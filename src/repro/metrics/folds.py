"""The fold table: each metric of a traced moment, spelled once.

A registry listening to the deployment's emitter applies :data:`FOLDS`
to every event of a kind it has (DESIGN §8; no other kind reaches it),
so adding a metric of a traced moment is one entry.  A fold reads the
payload and the ``source`` owner (``gm:<group>``
-> ``<group>``); families take values through ``float``, so an int
payload value lands as the float a snapshot holds.  Metrics with no
event at the instant they are written stay direct writes (DESIGN §8
lists them).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, NamedTuple, Optional, Tuple

from repro.trace.events import EventKind

Payload = Dict[str, Any]
LabelKey = Tuple[Tuple[str, str], ...]


def _owner(source: str) -> str:
    return source.partition(":")[2]


def _from_applications(source: str, data: Payload) -> bool:
    # file staging (``io``) and the real path (``dm:``) emit these kinds
    # too, unmeasured
    return source.startswith("app:")


class Fold(NamedTuple):
    """One family written from one event kind."""

    metric: str                   # counter | gauge | histogram | series
    name: str
    help: str
    value: Callable[[str, Payload], Any] = lambda s, d: 1.0
    #: the label key: ``(name, str value)`` pairs sorted by name
    labels: Callable[[str, Payload], LabelKey] = lambda s, d: ()
    when: Optional[Callable[[str, Payload], bool]] = None
    buckets: Tuple[float, ...] = ()   # histograms; () = the default edges

    def register(self, registry):
        """This fold's family in ``registry``."""
        extra = (self.buckets,) if self.buckets else ()
        return getattr(registry, self.metric)(self.name, self.help, *extra)


_BREAKER = Fold("gauge", "vdce_breaker_state",
                "circuit breaker state per WAN link "
                "(0 closed, 1 half-open, 2 open)",
                labels=lambda s, d: (("dst", d["dst"]), ("src", d["src"])))
_MEMBERSHIP = Fold("counter", "vdce_membership_transitions_total",
                   "host membership transitions (join/drain/depart/rejoin)")
_HOST = lambda s, d: (("host", d["host"]),)         # noqa: E731
_SITE = lambda s, d: (("site", d["site"]),)         # noqa: E731

#: event kind -> the folds applied to each event of that kind
FOLDS: Dict[str, Tuple[Fold, ...]] = {
    # a repeated report and a quiet echo are elided, so the report, its
    # suppress and the echo counts are written at export (``VDCERuntime.
    # export_metrics``)
    EventKind.MONITOR_REPORT: (
        Fold("series", "vdce_host_load",
             "run-queue length sampled by the monitor daemon",
             lambda s, d: d["load"], _HOST),
        Fold("series", "vdce_host_available_memory_mb",
             "available memory sampled by the monitor daemon",
             lambda s, d: d["available_memory_mb"], _HOST)),
    EventKind.SCHEDULE_DECISION: (
        Fold("counter", "vdce_schedule_decisions_total",
             "tasks placed by the site scheduler, per chosen site",
             labels=_SITE),
        Fold("histogram", "vdce_predicted_task_seconds",
             "Predict(task, R) of the winning bid",
             lambda s, d: d["predicted_time"])),
    EventKind.HOST_BID: (Fold("counter", "vdce_host_bids_total",
                              "host-selection bids produced, per site",
                              labels=_SITE),),
    EventKind.TASK_FINISH: (Fold(
        "histogram", "vdce_task_runtime_seconds",
        "measured wall time of the successful task attempt",
        lambda s, d: d["measured_time"], _SITE, _from_applications),),
    EventKind.TASKPERF_UPDATE: (Fold(
        "histogram", "vdce_prediction_error_ratio",
        "measured / predicted task execution time",
        lambda s, d: d["measured_s"] / d["expected_s"],
        lambda s, d: (("site", _owner(s)),), lambda s, d: d["expected_s"] > 0,
        (0.25, 0.5, 0.8, 0.9, 0.95, 1.0, 1.05, 1.1, 1.25, 2.0, 4.0)),),
    EventKind.DATA_TRANSFER: (Fold(
        "histogram", "vdce_transfer_mb",
        "inter-task payload size per dataflow transfer",
        lambda s, d: d["size_mb"], when=_from_applications,
        buckets=(0.01, 0.1, 0.5, 1.0, 5.0, 10.0, 50.0, 100.0)),),
    EventKind.CHECKPOINT: (Fold(
        "counter", "vdce_checkpoint_bytes",
        "bytes appended to application checkpoint journals",
        lambda s, d: d["bytes"], lambda s, d: (("application", _owner(s)),)),),
    EventKind.SPECULATE: (Fold(
        "counter", "vdce_speculative_launches_by_host_total",
        "speculative backup task copies launched",
        labels=lambda s, d: (("host", d["backup_host"]),)),),
    EventKind.SPECULATE_CANCEL: (Fold(
        "counter", "vdce_speculative_wasted_s",
        "virtual seconds discarded with cancelled race losers",
        lambda s, d: d["wasted_s"], _HOST),),
    EventKind.SHED: (Fold(
        "counter", "vdce_shed_total",
        "submissions shed by the admission controller, by reason",
        labels=lambda s, d: (("reason", d["reason"]), ("site", _owner(s)))),),
    EventKind.BROWNOUT: (Fold(
        "gauge", "vdce_brownout_level",
        "federation brownout level (0 normal .. 3 critical)",
        lambda s, d: d["level"]),),
    # one count per event, per Group Manager (``gm:<group>``) ...
    **{kind: (Fold("counter", name, help,
                   labels=lambda s, d: (("group", _owner(s)),)),)
       for kind, name, help in (
        (EventKind.WORKLOAD_FORWARD, "vdce_workload_forwards_by_group_total",
         "significant measurements forwarded to the Site Manager"),
        (EventKind.FAILOVER, "vdce_failovers_by_group_total",
         "manager failovers completed (deputy promotions)"),
    )},
    # ... and unlabelled, for the integrity ladder (DESIGN §16)
    **{kind: (Fold("counter", name, help),) for kind, name, help in (
        (EventKind.CORRUPT_DETECTED, "vdce_corruptions_detected_total",
         "payload hash mismatches caught before consumption"),
        (EventKind.REFETCH, "vdce_refetches_total",
         "verify-and-refetch repair attempts"),
        (EventKind.REGENERATE, "vdce_regenerations_total",
         "lineage-based producer re-executions"),
        (EventKind.POISON, "vdce_poisoned_artifacts_total",
         "artifacts quarantined after exhausting their repair budget"),
    )},
    **{kind: (_BREAKER._replace(value=lambda s, d, v=state: v),)
       for kind, state in ((EventKind.BREAKER_CLOSE, 0.0),
                           (EventKind.BREAKER_HALF_OPEN, 1.0),
                           (EventKind.BREAKER_OPEN, 2.0))},
    **{kind: (_MEMBERSHIP._replace(labels=lambda s, d, t=transition: (
        ("site", d["site"]), ("transition", t))),)
       for kind, transition in ((EventKind.HOST_JOIN, "join"),
                                (EventKind.HOST_DRAIN, "drain"),
                                (EventKind.HOST_DEPART, "depart"),
                                (EventKind.HOST_REJOIN, "rejoin"))},
}
