"""Level computation — the priority metric of VDCE's list scheduling.

Paper §3: "The VDCE scheduling heuristic uses the level [4] of each
node to determine its priority.  The node (task) with a higher level
value will have a higher priority for scheduling.  The level of a node
in the graph is computed as the largest sum of computation costs along
the path from the node to an exit node.  For the computation cost, the
task (node) execution time on the base processor ... is used.  In VDCE
the level of each node of an application flow graph is determined
before the execution of the scheduling algorithm."

The cost function is supplied by the caller (normally a lookup in the
task-performance database), keeping this module a pure graph algorithm.
Note the level *includes the node's own cost* (the path from the node),
which makes it the classic "bottom level" / upward rank without
communication costs.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from repro.afg.graph import ApplicationFlowGraph

__all__ = ["compute_levels", "priority_order"]

CostFn = Callable[[str], float]


def compute_levels(afg: ApplicationFlowGraph, cost: CostFn) -> Dict[str, float]:
    """Level of every task: its cost plus the max level of its children.

    ``cost(task_id)`` must return the task's execution time on the base
    processor.  Raises ``ValueError`` on cyclic graphs and on negative
    costs (a negative base time is always a database bug).
    """
    structure = afg.structure()
    children = structure.children
    levels: Dict[str, float] = {}
    for task_id in reversed(structure.order):
        c = float(cost(task_id))
        if c < 0:
            raise ValueError(f"task {task_id!r}: negative computation cost {c}")
        child_best = max([levels[ch] for ch in children[task_id]], default=0.0)
        levels[task_id] = c + child_best
    return levels


def priority_order(afg: ApplicationFlowGraph, cost: CostFn) -> List[str]:
    """All tasks sorted by descending level (ties: task id, for determinism).

    This is the order in which the site scheduler considers ready
    tasks; it is computed once, "before the execution of the scheduling
    algorithm".
    """
    levels = compute_levels(afg, cost)
    return sorted(levels, key=lambda t: (-levels[t], t))
