"""Execution timelines: per-host busy intervals and parallel efficiency.

Derived purely from an :class:`~repro.runtime.execution.ApplicationResult`'s
task records, these power the visualisation service's "application
performance" views (paper §4.2) and several experiment assertions.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.obs.attribution import merge_intervals
from repro.runtime.execution import ApplicationResult

__all__ = ["busy_intervals", "parallel_efficiency"]


def busy_intervals(result: ApplicationResult) -> Dict[str, List[Tuple[float, float]]]:
    """Per-host sorted (start, finish) intervals of task residence."""
    intervals: Dict[str, List[Tuple[float, float]]] = {}
    for record in result.records.values():
        for host in record.hosts:
            intervals.setdefault(host, []).append(
                (record.started_at, record.finished_at)
            )
    for host in intervals:
        intervals[host].sort()
    return intervals


def parallel_efficiency(result: ApplicationResult) -> float:
    """Fraction of (hosts used x makespan) during which hosts held work.

    Per host, the union of its task-residence intervals counts as busy
    (co-resident tasks share the processor, so they don't double-count).
    1.0 means every used host was occupied for the whole makespan; low
    values flag serialisation (chains) or placement imbalance.
    """
    if result.makespan <= 0:
        return 0.0
    intervals = busy_intervals(result)
    if not intervals:
        return 0.0
    busy = sum(
        sum(end - start for start, end in merge_intervals(iv))
        for iv in intervals.values()
    )
    return busy / (len(intervals) * result.makespan)
