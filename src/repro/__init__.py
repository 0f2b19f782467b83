"""repro — a full reproduction of VDCE, the Virtual Distributed Computing
Environment of Topcuoglu & Hariri, *A Global Computing Environment for
Networked Resources* (ICPP 1997).

Quick start::

    from repro import VDCE
    from repro.workloads import linear_solver_afg

    env = VDCE.standard(n_sites=2, hosts_per_site=4)
    result = env.submit(linear_solver_afg(scale=0.2), k=1)
    print(env.gantt(result))

Package map (see DESIGN.md for the full inventory):

=============  =========================================================
``core``       the :class:`VDCE` facade and deployment configuration
``sim``        discrete-event substrate: hosts, sites, links, failures
``afg``        application flow graphs (paper §2)
``tasklib``    task libraries: matrix algebra, C3I, generic (paper §2)
``editor``     Application Editor: builder, sessions, Flask web app
``repository`` the four per-site databases (paper §3)
``scheduler``  prediction, host selection, site scheduler, baselines
``runtime``    Control Manager + Data Manager + services (paper §4)
``net``        real-TCP Data Manager (paper §4.2)
``workloads``  example applications and DAG generators
``metrics``    schedule-length / SLR / speedup / utilisation metrics
``trace``      structured event tracing + deterministic trace hashing
``viz``        text Gantt + workload visualisation service
=============  =========================================================
"""

import importlib

__version__ = "1.0.0"


def _lazy_exports(namespace, table):
    """A package's PEP 562 ``__getattr__`` and ``__dir__``.

    ``table`` maps a submodule to the names the package re-exports from
    it; a name equal to its submodule's is the module itself.  The first
    read of a name imports its submodule and binds the name in
    ``namespace``, so a process loads only what it uses.
    """
    package = namespace["__name__"]
    owner = {name: sub for sub, names in table.items() for name in names}

    def __getattr__(name):
        if name not in owner:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        module = importlib.import_module(f"{package}.{owner[name]}")
        value = namespace[name] = (
            module if name == owner[name] else getattr(module, name))
        return value

    def __dir__():
        return sorted(namespace.keys() | owner.keys())

    return __getattr__, __dir__


__getattr__, __dir__ = _lazy_exports(globals(), {
    "core.config": ("DeploymentSpec", "SiteConfig"),
    "core.vdce": ("VDCE",),
    "sim.host": ("HostSpec",),
    "trace.tracer": ("Tracer",),
})

__all__ = [
    "DeploymentSpec",
    "HostSpec",
    "SiteConfig",
    "Tracer",
    "VDCE",
    "__version__",
]
