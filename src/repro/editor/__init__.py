"""The Application Editor (paper §2).

"The Application Editor component of VDCE is a web-based, graphical
user interface for developing parallel and distributed applications.
The end-user establishes a URL connection to the VDCE Server software
within the site (Site Manager), which runs on a VDCE Server.  After
user authentication, the Application Editor is loaded into the user's
local web browser ..."

Three layers, innermost first:

* :class:`~repro.editor.builder.AFGBuilder` — the programmatic editor:
  pick tasks from the library menus, drop them on the canvas, wire
  ports, set properties;
* :class:`~repro.editor.session.EditorSession` — an authenticated
  connection to one site (the paper's user-authentication step) that
  owns builders and submits finished applications to the runtime;
* :func:`~repro.editor.webapp.create_webapp` — the web face: a Flask
  application exposing the same operations over HTTP/JSON.
"""

from repro import _lazy_exports

__getattr__, __dir__ = _lazy_exports(globals(), {
    "builder": ("AFGBuilder", "BuilderError"),
    "session": ("EditorSession", "SessionError"),
})

__all__ = ["AFGBuilder", "BuilderError", "EditorSession", "SessionError"]
