"""Application Flow Graphs (AFGs) — VDCE's application model (paper §2).

An AFG is a DAG of task nodes.  Each node names a task implementation
from a task library (:mod:`repro.tasklib`) and carries the user-set
*task properties* of Figure 1's properties window: computation mode
(sequential/parallel), number of nodes, preferred machine (type),
input/output files with sizes, with inputs supplied by parent tasks
marked as *dataflow*.  Edges connect logical output ports to input
ports and carry the data volume the runtime must move.
"""

from repro import _lazy_exports

__getattr__, __dir__ = _lazy_exports(globals(), {
    "properties": (
        "ComputationMode", "FileSpec", "InputBinding", "TaskProperties",
    ),
    "task": ("TaskNode",),
    "graph": ("ApplicationFlowGraph", "Edge"),
    "levels": ("compute_levels", "priority_order"),
    "validate": ("AFGValidationError", "validate_afg"),
    "serialize": (
        "afg_from_dict", "afg_to_dict", "afg_from_json",
    ),
})

__all__ = [
    "AFGValidationError",
    "ApplicationFlowGraph",
    "ComputationMode",
    "Edge",
    "FileSpec",
    "InputBinding",
    "TaskNode",
    "TaskProperties",
    "afg_from_dict",
    "afg_from_json",
    "afg_to_dict",
    "compute_levels",
    "priority_order",
    "validate_afg",
]
