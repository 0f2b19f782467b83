"""Metrics over :class:`~repro.runtime.execution.ApplicationResult`."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.afg.graph import ApplicationFlowGraph
from repro.metrics.schedule import critical_path_cost, serial_cost, slr, speedup
from repro.repository.taskperf import TaskPerformanceDB
from repro.runtime.execution import ApplicationResult
from repro.sim.topology import Topology

__all__ = ["ResultSummary", "host_utilization", "summarize_result"]


@dataclass(frozen=True)
class ResultSummary:
    """Everything an experiment row reports about one run."""

    application: str
    scheduler: str
    makespan: float
    setup_time: float
    total_time: float
    slr: float
    speedup: float
    n_tasks: int
    n_sites: int
    n_hosts: int
    reschedules: int
    data_transferred_mb: float
    prediction_error: float  # mean relative |measured - predicted| / predicted


def summarize_result(
    result: ApplicationResult,
    afg: ApplicationFlowGraph,
    task_perf: TaskPerformanceDB,
) -> ResultSummary:
    cp = critical_path_cost(afg, task_perf)
    serial = serial_cost(afg, task_perf)
    errors = [
        abs(r.measured_time - r.predicted_time) / r.predicted_time
        for r in result.records.values()
        if r.predicted_time > 0
    ]
    sites = {r.site for r in result.records.values()}
    hosts = {h for r in result.records.values() for h in r.hosts}
    return ResultSummary(
        application=result.application,
        scheduler=result.scheduler,
        makespan=result.makespan,
        setup_time=result.setup_time,
        total_time=result.total_time,
        slr=slr(result.makespan, cp),
        speedup=speedup(result.makespan, serial),
        n_tasks=len(result.records),
        n_sites=len(sites),
        n_hosts=len(hosts),
        reschedules=result.reschedules,
        data_transferred_mb=result.data_transferred_mb,
        prediction_error=sum(errors) / len(errors) if errors else 0.0,
    )


def host_utilization(topology: Topology, horizon: Optional[float] = None) -> Dict[str, float]:
    """Busy-time fraction per host since t=0 (uses host busy counters)."""
    horizon = horizon if horizon is not None else topology.sim.now
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    return {
        host.name: min(1.0, host.busy_time / horizon)
        for host in topology.all_hosts
    }
