"""Execution timelines: utilisation and concurrency over time.

Derived purely from an :class:`~repro.runtime.execution.ApplicationResult`'s
task records, these power the visualisation service's "application
performance" views (paper §4.2) and several experiment assertions.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.obs.attribution import merge_intervals
from repro.runtime.execution import ApplicationResult

__all__ = ["busy_intervals", "concurrency_profile", "parallel_efficiency"]


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


def concurrency_profile(result: ApplicationResult) -> List[Tuple[float, int]]:
    """Step function ``(time, #tasks running)`` over the execution.

    Times are the task start/finish instants; between consecutive
    entries the concurrency is constant.  The profile starts at the
    startup signal and ends at the last finish with concurrency 0.
    """
    events: List[Tuple[float, int]] = []
    for record in result.records.values():
        events.append((record.started_at, +1))
        events.append((record.finished_at, -1))
    events.sort()
    profile: List[Tuple[float, int]] = []
    running = 0
    for time, delta in events:
        running += delta
        if profile and profile[-1][0] == time:
            profile[-1] = (time, running)
        else:
            profile.append((time, running))
    return profile


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
