"""Metrics over schedules and execution results (experiment currency).

The paper's scheduler objective is "to minimize the schedule length
(total execution time)"; everything here quantifies that and its usual
companions from the list-scheduling literature: SLR (schedule length
ratio against the computation-only critical path), speedup against
serial execution on the base processor, host utilisation, and the
communication share of the makespan.
"""

from repro import _lazy_exports

__getattr__, __dir__ = _lazy_exports(globals(), {
    "analysis": (
        "analyze_trace", "critical_path", "format_analysis",
        "format_structural_diff", "host_timelines", "schedule_lag",
        "structural_diff",
    ),
    "export": (
        "METRICS_SCHEMA_VERSION", "load_snapshot", "prometheus_from_snapshot",
        "prometheus_text", "registry_snapshot", "save_snapshot",
        "snapshot_hash", "snapshot_to_json",
    ),
    "registry": (
        "DEFAULT_BUCKETS", "Counter", "Gauge", "Histogram", "MetricsRegistry",
        "NULL_METRICS", "NullMetricsRegistry", "Series",
    ),
    "schedule": ("critical_path_cost", "serial_cost", "slr", "speedup"),
    "results": ("ResultSummary", "host_utilization", "summarize_result"),
    "tables": ("format_table",),
    "timeline": (
        "busy_intervals", "concurrency_profile", "parallel_efficiency",
    ),
    "trace_summary": ("event_counts", "format_trace_summary", "phase_timings"),
})

__all__ = [
    "Counter",
    "METRICS_SCHEMA_VERSION",
    "DEFAULT_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_METRICS",
    "NullMetricsRegistry",
    "ResultSummary",
    "Series",
    "analyze_trace",
    "critical_path",
    "format_analysis",
    "format_structural_diff",
    "host_timelines",
    "load_snapshot",
    "prometheus_from_snapshot",
    "prometheus_text",
    "registry_snapshot",
    "save_snapshot",
    "schedule_lag",
    "snapshot_hash",
    "snapshot_to_json",
    "structural_diff",
    "busy_intervals",
    "concurrency_profile",
    "parallel_efficiency",
    "critical_path_cost",
    "event_counts",
    "format_table",
    "format_trace_summary",
    "host_utilization",
    "phase_timings",
    "serial_cost",
    "slr",
    "speedup",
    "summarize_result",
]
