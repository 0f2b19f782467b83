"""Task libraries — the Application Editor's menu-driven palettes.

Paper §2: "The Application Editor provides menu-driven task libraries
that are grouped in terms of their functionality, such as the matrix
algebra library, C3I (command and control applications) library, etc."

Each library task is a :class:`~repro.tasklib.base.TaskSignature`: port
counts, a base-processor computation cost (what the task-performance
database stores), memory and communication sizes, an optional parallel
implementation model, and an actual Python callable so applications
really execute and produce verifiable results.
"""

from repro import _lazy_exports

__getattr__, __dir__ = _lazy_exports(globals(), {
    "base": ("ParallelModel", "TaskSignature"),
    "registry": ("TaskRegistry", "default_registry"),
    "c3i": ("c3i",),
    "generic": ("generic",),
    "matrix": ("matrix",),
    "signal": ("signal",),
})

__all__ = [
    "ParallelModel",
    "TaskRegistry",
    "TaskSignature",
    "c3i",
    "default_registry",
    "generic",
    "matrix",
    "signal",
]
