"""AFG validation: every check the Application Editor runs before submit.

The editor refuses to hand a malformed graph to the scheduler; this
module centralises those rules so the programmatic builder, the JSON
deserialiser and the web editor all enforce the same contract.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

from repro.afg.graph import ApplicationFlowGraph

if TYPE_CHECKING:
    from repro.tasklib.registry import TaskRegistry

__all__ = ["AFGValidationError", "validate_afg"]


class AFGValidationError(ValueError):
    """Raised when an AFG violates structural rules; carries all problems."""

    def __init__(self, problems: List[str]):
        super().__init__("; ".join(problems))
        self.problems = list(problems)


def validate_afg(
    afg: ApplicationFlowGraph,
    registry: Optional[TaskRegistry] = None,
    collect: bool = False,
) -> List[str]:
    """Check structural validity; optionally check against a task registry.

    Returns the list of problems when ``collect=True``; otherwise raises
    :class:`AFGValidationError` if any problem exists (and returns ``[]``
    on success).

    Rules enforced:

    * non-empty graph, acyclic;
    * every *dataflow* input port has an incoming edge, every input
      port with an incoming edge is either unbound or bound as dataflow
      (an edge into a port bound to an explicit file is a conflict);
    * input ports without an edge must have an explicit file binding;
    * (with ``registry``) every ``task_type`` exists and port counts
      match the library signature.
    """
    problems: List[str] = []

    if len(afg) == 0:
        problems.append(f"AFG {afg.name!r} has no tasks")

    if len(afg) > 0 and not afg.is_acyclic():
        problems.append(f"AFG {afg.name!r} contains a cycle")

    for task in afg:
        connected_ports = {e.dst_port for e in afg.in_edges(task.id)} if task.id in afg else set()
        bound = {b.port: b for b in task.properties.inputs}
        for port in range(task.n_in_ports):
            binding = bound.get(port)
            has_edge = port in connected_ports
            if has_edge and binding is not None and not binding.is_dataflow:
                problems.append(
                    f"task {task.id!r}: input port {port} has both an incoming "
                    f"edge and an explicit file binding"
                )
            if not has_edge:
                if binding is None:
                    problems.append(
                        f"task {task.id!r}: input port {port} is unconnected "
                        f"and has no file binding"
                    )
                elif binding.is_dataflow:
                    problems.append(
                        f"task {task.id!r}: input port {port} is marked "
                        f"dataflow but no parent supplies it"
                    )

    if registry is not None:
        for task in afg:
            if not registry.has(task.task_type):
                problems.append(
                    f"task {task.id!r}: unknown task type {task.task_type!r}"
                )
                continue
            sig = registry.get(task.task_type)
            if getattr(sig, "variadic_inputs", False):
                if task.n_in_ports < sig.n_in_ports:
                    problems.append(
                        f"task {task.id!r}: {task.task_type!r} takes at "
                        f"least {sig.n_in_ports} inputs, node declares "
                        f"{task.n_in_ports}"
                    )
            elif task.n_in_ports != sig.n_in_ports:
                problems.append(
                    f"task {task.id!r}: {task.task_type!r} takes "
                    f"{sig.n_in_ports} inputs, node declares {task.n_in_ports}"
                )
            if task.n_out_ports != sig.n_out_ports:
                problems.append(
                    f"task {task.id!r}: {task.task_type!r} produces "
                    f"{sig.n_out_ports} outputs, node declares {task.n_out_ports}"
                )
            if task.properties.is_parallel and not sig.parallelizable:
                problems.append(
                    f"task {task.id!r}: {task.task_type!r} has no parallel "
                    f"implementation"
                )

    if problems and not collect:
        raise AFGValidationError(problems)
    return problems
