"""The visualisation service (paper §4.2).

"The VDCE visualization service provides application performance and
workload visualizations."  Rendered as plain text so it works in any
terminal and in test assertions: a per-host Gantt chart of task
executions (:func:`gantt`) and a workload timeline sparkline
(:func:`workload_sparkline`).
"""

from repro import _lazy_exports
# eager: the function ``gantt`` shares its submodule's name, and
# the first import of that submodule would rebind the package
# attribute to the module
from repro.viz.gantt import gantt

__getattr__, __dir__ = _lazy_exports(globals(), {
    "report": ("execution_report",),
    "topology_view": ("topology_diagram",),
    "workload": ("workload_sparkline",),
})

__all__ = [
    "execution_report",
    "gantt",
    "topology_diagram",
    "workload_sparkline",
]
