"""Resource allocation tables and the forward-pass schedule estimate.

Paper §3: "After the best schedule of the whole application is
determined by the local site and a set of nearest remote sites, the
resource allocation table is generated and transferred to the Site
Manager running on the VDCE server."

The table is the sole interface between scheduler and runtime: any
scheduler (VDCE or baseline) that emits a valid table can be executed
by the same runtime, which is what makes experiment E2's comparisons
apples-to-apples.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Tuple

from repro.afg.graph import ApplicationFlowGraph

__all__ = [
    "AllocationTable",
    "ScheduleEstimate",
    "TaskAssignment",
    "estimate_schedule",
]


@dataclass(frozen=True)
class TaskAssignment:
    """Where one task runs: a site and one host (or several if parallel).

    ``predicted_time`` is the scheduler's ``Predict`` figure — it is
    stored because the Site Manager compares it with the measured time
    to refine the task-performance database (paper §4.1).
    """

    task_id: str
    site: str
    hosts: Tuple[str, ...]
    predicted_time: float

    def __post_init__(self) -> None:
        if not self.hosts:
            raise ValueError(f"task {self.task_id!r}: empty host group")
        if len(set(self.hosts)) != len(self.hosts):
            raise ValueError(f"task {self.task_id!r}: duplicate hosts in group")
        if self.predicted_time < 0:
            raise ValueError(f"task {self.task_id!r}: negative predicted time")

    @property
    def primary_host(self) -> str:
        """The host that owns the task's I/O channels (first of the group)."""
        return self.hosts[0]


class AllocationTable:
    """task id -> :class:`TaskAssignment` for one application."""

    def __init__(self, application: str, scheduler: str = "vdce"):
        self.application = application
        self.scheduler = scheduler
        self._assignments: Dict[str, TaskAssignment] = {}

    def assign(self, assignment: TaskAssignment) -> TaskAssignment:
        if assignment.task_id in self._assignments:
            raise ValueError(f"task {assignment.task_id!r} already assigned")
        self._assignments[assignment.task_id] = assignment
        return assignment

    def get(self, task_id: str) -> TaskAssignment:
        try:
            return self._assignments[task_id]
        except KeyError:
            raise KeyError(f"task {task_id!r} has no assignment") from None

    def __contains__(self, task_id: str) -> bool:
        return task_id in self._assignments

    def __len__(self) -> int:
        return len(self._assignments)

    @property
    def assignments(self) -> Dict[str, TaskAssignment]:
        return dict(self._assignments)

    def hosts_of(self, task_id: str) -> Tuple[str, ...]:
        return self.get(task_id).hosts

    def sites_used(self) -> List[str]:
        return sorted({a.site for a in self._assignments.values()})

    def tasks_on_site(self, site: str) -> List[str]:
        """The "related portion of the resource allocation table" the
        Site Manager multicasts toward a site's Group Managers (§4.1)."""
        return sorted(
            t for t, a in self._assignments.items() if a.site == site
        )

    def is_complete_for(self, afg: ApplicationFlowGraph) -> bool:
        return all(t.id in self._assignments for t in afg)

    def validate_against(self, afg: ApplicationFlowGraph) -> None:
        missing = [t.id for t in afg if t.id not in self._assignments]
        if missing:
            raise ValueError(
                f"allocation table for {self.application!r} is missing tasks: "
                f"{missing}"
            )
        extra = [t for t in self._assignments if t not in afg]
        if extra:
            raise ValueError(
                f"allocation table for {self.application!r} has unknown tasks: "
                f"{extra}"
            )

    # -- wire format (Site Manager multicast) ------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return {
            "application": self.application,
            "scheduler": self.scheduler,
            "assignments": [
                {
                    "task_id": a.task_id,
                    "site": a.site,
                    "hosts": list(a.hosts),
                    "predicted_time": a.predicted_time,
                }
                for a in self._assignments.values()
            ],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "AllocationTable":
        table = cls(data["application"], scheduler=data.get("scheduler", "vdce"))
        for item in data["assignments"]:
            table.assign(
                TaskAssignment(
                    task_id=item["task_id"],
                    site=item["site"],
                    hosts=tuple(item["hosts"]),
                    predicted_time=item["predicted_time"],
                )
            )
        return table

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"AllocationTable({self.application!r}, scheduler={self.scheduler!r}, "
            f"tasks={len(self._assignments)})"
        )


@dataclass(frozen=True)
class ScheduleEstimate:
    """Forward-pass prediction of the schedule, before execution."""

    makespan: float
    start: Dict[str, float]
    finish: Dict[str, float]
    comm_time: float  # total predicted transfer time across edges


def estimate_schedule(
    afg: ApplicationFlowGraph,
    table: AllocationTable,
    transfer_time,
) -> ScheduleEstimate:
    """Forward pass over the DAG: predicted start/finish per task.

    ``transfer_time(src_assignment, dst_assignment, size_mb)`` supplies
    edge transfer estimates (usually a closure over the network model).
    Host serialisation is modelled: tasks sharing a primary host run
    back-to-back in topological order, which is how the Data-Manager
    runtime actually executes co-located tasks.
    """
    table.validate_against(afg)
    start: Dict[str, float] = {}
    finish: Dict[str, float] = {}
    host_free: Dict[str, float] = {}
    comm_total = 0.0

    for task_id in afg.topological_order():
        assignment = table.get(task_id)
        ready = 0.0
        for edge in afg.in_edges(task_id):
            src_assignment = table.get(edge.src)
            xfer = transfer_time(src_assignment, assignment, edge.size_mb)
            comm_total += xfer
            ready = max(ready, finish[edge.src] + xfer)
        earliest = max(
            [ready] + [host_free.get(h, 0.0) for h in assignment.hosts]
        )
        start[task_id] = earliest
        finish[task_id] = earliest + assignment.predicted_time
        for h in assignment.hosts:
            host_free[h] = finish[task_id]

    makespan = max(finish.values(), default=0.0)
    return ScheduleEstimate(
        makespan=makespan, start=start, finish=finish, comm_time=comm_total
    )
