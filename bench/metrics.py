"""Metric names, units and the summary statistics reported for each.

Host time (``_s``) is what the simulator costs, in seconds at the
reference speed (see :mod:`bench.measure`); simulated time (``_vs``,
virtual seconds) is what the modelled VDCE would take and repeats
exactly for a given seed.  Later issues
refer to workloads and metrics by the names in this file.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from typing import Dict, List, Sequence

__all__ = [
    "END_TO_END", "PER_LAYER", "EXACT_END_TO_END", "Metric",
    "contract_blocks", "summary",
]


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str = "lower"


END_TO_END = (
    Metric("setup_s", "s"),
    Metric("wall_s", "s"),
    Metric("cpu_s", "s"),
    Metric("ops_per_s", "1/s", "higher"),
    Metric("peak_rss_mb", "MB"),
    Metric("makespan_vs", "vs"),
    Metric("fail_share", "ratio"),
    Metric("turnaround_p50_vs", "vs"),
    Metric("turnaround_p95_vs", "vs"),
)

#: End-to-end metrics that repeat exactly for a given seed and move only
#: with the inputs.  BENCHMARK.json lists them in its ``per_layer`` block,
#: because the driver's ``end_to_end`` contract fits neither: its bound is
#: a tolerance on the spread across *seeds* (capped at 0.25), and
#: makespan_vs moves with the inputs (another seed, other DAGs); and every
#: entry must be non-zero on every workload, while fail_share is 0 without
#: faults and the turnarounds exist on chaos_2x64 alone.  Everywhere else (result
#: files, compare.py) they are end-to-end metrics, compared for equality.
EXACT_END_TO_END = ("makespan_vs", "fail_share", "turnaround_p50_vs",
                    "turnaround_p95_vs")

_LOWER_S = (
    "sim.kernel.self_s",
    "runtime.app_controller.self_s",
    "runtime.monitor.self_s",
    "runtime.group_manager.self_s",
    "runtime.execution.self_s",
    "runtime.vdce_runtime.self_s",
    "scheduler.site_scheduler.busy_s",
    "scheduler.host_selection.busy_s",
    "scheduler.prediction.busy_s",
    "afg.levels_s",
    "workloads.generate_s",
    "net.rpc.busy_s",
    "sim.network.busy_s",
    "sim.host.busy_s",
    "trace.emit_s",
    "trace.hash_s",
    "metrics.snapshot_hash_s",
    "obs.explain_s",
    "sim.chaos.audit_s",
    "layers.unattributed_s",
)
_LOWER_COUNT = (
    "sim.kernel.events",
    "sim.kernel.events_per_op",
    "runtime.app_controller.watches",
    "runtime.app_controller.wakeups",
    "runtime.monitor.reports",
    "runtime.group_manager.echo_packets",
    "runtime.group_manager.forwards",
    "runtime.execution.reschedules",
    "runtime.execution.transfer_retries",
    "runtime.execution.failure_restarts",
    "runtime.execution.checkpoint_records",
    "runtime.stats.scheduler_messages",
    "scheduler.host_selection.calls",
    "scheduler.host_selection.bids",
    "scheduler.prediction.calls",
    "repository.predict_cache.misses",
    "net.rpc.requests",
    "net.rpc.retries",
    "net.rpc.timeouts",
    "sim.network.transfers",
    "trace.events",
    "sim.failures.injections",
    "sim.failures.detections",
    "sim.failures.false_positives",
)
_LOWER_RATIO = (
    "obs.on_cost_ratio",
    "trace.only_ratio",
    "metrics.only_ratio",
    "obs.spans_ratio",
    "layers.overhead_ratio",
)

PER_LAYER = (
    tuple(Metric(name, "s") for name in _LOWER_S)
    + tuple(Metric(name, "count") for name in _LOWER_COUNT)
    + tuple(Metric(name, "ratio") for name in _LOWER_RATIO)
    + (
        Metric("runtime.group_manager.suppressed", "count", "higher"),
        Metric("runtime.vdce_runtime.sched_vs", "vs"),
        Metric("repository.predict_cache.hits", "count", "higher"),
        Metric("repository.predict_cache.hit_ratio", "ratio", "higher"),
        Metric("sim.network.mb", "MB"),
    )
)


def contract_blocks() -> Dict[str, List[Metric]]:
    """The split BENCHMARK.json uses (see EXACT_END_TO_END)."""
    host = [m for m in END_TO_END if m.name not in EXACT_END_TO_END]
    exact = [m for m in END_TO_END if m.name in EXACT_END_TO_END]
    return {"end_to_end": host, "per_layer": exact + list(PER_LAYER)}


def summary(values: Sequence[float], unit: str) -> Dict[str, object]:
    """Median with n, min, quartiles and max.  With n <= 5 rounds no
    percentile above the median is meaningful, so none is reported."""
    values = list(values)
    out: Dict[str, object] = {
        "value": statistics.median(values), "unit": unit,
        "n": len(values), "min": min(values), "max": max(values),
        "values": values,
    }
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3)
    return out
