"""The VDCE facade: a whole deployment behind one object.

:class:`~repro.core.vdce.VDCE` composes the simulation substrate, site
repositories, scheduler and runtime into the environment the paper
describes in §1 — "distributed sites, each of which has one or more
VDCE Servers" — with the user-facing operations: open an editor
session, submit applications, run the monitoring control plane, and
inspect results.
"""

from repro import _lazy_exports

__getattr__, __dir__ = _lazy_exports(globals(), {
    "config": ("DeploymentSpec", "HostConfig", "SiteConfig"),
    "vdce": ("VDCE",),
})

__all__ = ["VDCE", "DeploymentSpec", "HostConfig", "SiteConfig"]
