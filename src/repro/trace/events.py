"""Typed event records for the VDCE trace stream.

A trace is an ordered list of :class:`TraceEvent` records.  Every event
carries the virtual time it happened at, a monotonically increasing
sequence number (the tie-breaker that makes the stream totally
ordered), a *kind* drawn from :class:`EventKind`, the component that
emitted it, and a JSON-safe payload.

The kinds mirror the paper's message classes one-to-one where a
:class:`~repro.runtime.stats.RuntimeStats` counter exists (monitor
reports, echo packets, failure notifications, channel setups, ...) so
that ``count(kind) == counter`` is a checkable invariant the cross-
check tests rely on — modulo a declared move for an elided kind (a
repeated ``monitor_report``, a quiet ``echo``: DESIGN §13.9, §13.13).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict

__all__ = ["EventKind", "KNOWN_KINDS", "TraceEvent"]


class EventKind:
    """Namespace of well-known event kinds (plain strings).

    Emitters are free to use ad-hoc kinds; these are the ones the
    instrumented stack produces and the summary/cross-check tooling
    understands.
    """

    # -- kernel -----------------------------------------------------------
    PROCESS_SPAWN = "process_spawn"
    PROCESS_FINISH = "process_finish"
    PROCESS_FAIL = "process_fail"

    # -- monitoring / control plane (paper §4.1) --------------------------
    MONITOR_REPORT = "monitor_report"
    WORKLOAD_FORWARD = "workload_forward"
    WORKLOAD_SUPPRESS = "workload_suppress"
    ECHO = "echo"
    FAILURE_NOTIFICATION = "failure_notification"
    RECOVERY_NOTIFICATION = "recovery_notification"
    LOAD_CANCEL = "load_cancel"

    # -- scheduling (paper §3) --------------------------------------------
    AFG_MULTICAST = "afg_multicast"
    BID_REPLY = "bid_reply"
    HOST_BID = "host_bid"
    SCHEDULE_DECISION = "schedule_decision"

    # -- execution / data plane (paper §4.2) ------------------------------
    ALLOCATION_MULTICAST = "allocation_multicast"
    EXECUTION_REQUEST = "execution_request"
    CHANNEL_SETUP = "channel_setup"
    CHANNEL_ACK = "channel_ack"
    STARTUP_SIGNAL = "startup_signal"
    TASK_START = "task_start"
    TASK_FINISH = "task_finish"
    DATA_TRANSFER = "data_transfer"
    FILE_STAGE = "file_stage"
    RESCHEDULE = "reschedule"
    TASKPERF_UPDATE = "taskperf_update"

    # -- faults / control-plane retries (second-generation fault model) ----
    RPC_RETRY = "rpc_retry"
    RPC_TIMEOUT = "rpc_timeout"
    SITE_UNREACHABLE = "site_unreachable"
    TRANSFER_RETRY = "transfer_retry"
    CHANNEL_REESTABLISH = "channel_reestablish"

    # -- checkpointing & control-plane failover ----------------------------
    CHECKPOINT = "checkpoint"
    RESUME = "resume"
    FAILOVER = "failover"
    MANAGER_CRASH = "manager_crash"
    MANAGER_RECOVER = "manager_recover"

    # -- straggler defense (performance-fault model) ------------------------
    SUSPECT = "suspect"
    TRUST = "trust"
    SPECULATE = "speculate"
    SPECULATE_WIN = "speculate_win"
    SPECULATE_CANCEL = "speculate_cancel"
    QUARANTINE = "quarantine"
    PROBATION = "probation"

    # -- overload protection (admission, brownout, circuit breakers) -------
    SHED = "shed"
    BROWNOUT = "brownout"
    SITE_OVERLOADED = "site_overloaded"
    BREAKER_OPEN = "breaker_open"
    BREAKER_HALF_OPEN = "breaker_half_open"
    BREAKER_CLOSE = "breaker_close"

    # -- data integrity & repair (corruption fault model) ------------------
    CORRUPT_DETECTED = "corrupt_detected"
    ARTIFACT_LOST = "artifact_lost"
    REFETCH = "refetch"
    REGENERATE = "regenerate"
    POISON = "poison"

    # -- elastic membership (host churn) -----------------------------------
    HOST_JOIN = "host_join"
    HOST_DRAIN = "host_drain"
    HOST_DEPART = "host_depart"
    HOST_REJOIN = "host_rejoin"
    #: checkpoint resume found a frontier task bound to a departed host
    RESUME_MEMBERSHIP_WARNING = "resume_membership_warning"

    # -- causal spans (timed operations, tree-structured, repro.obs) -------
    SPAN_OPEN = "span_open"
    SPAN_CLOSE = "span_close"
    SPAN_ORPHAN = "span_orphan"


KNOWN_KINDS = frozenset(
    value
    for name, value in vars(EventKind).items()
    if not name.startswith("_") and isinstance(value, str)
)


@dataclass(slots=True)
class TraceEvent:
    """One structured trace record.

    Slotted and built by a plain ``__init__``: a traced run constructs
    one per event (tens of thousands per application), so the record
    costs five attribute stores, not a ``__dict__`` plus the five
    ``object.__setattr__`` calls a frozen dataclass pays.  Treat events
    as immutable all the same — :func:`~repro.trace.serialize.trace_hash`
    is only an identity for a trace nobody edits.
    """

    #: virtual time (simulated runs) or caller-clock time (real runs)
    time: float
    #: total order over the stream; unique within one trace
    seq: int
    #: event kind, usually one of :class:`EventKind`
    kind: str
    #: emitting component, e.g. ``"monitor:s0-h01"`` or ``"app:solver"``
    source: str = ""
    #: JSON-safe payload
    data: Dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict form (the JSONL wire format); ``data`` is copied."""
        return {
            "time": self.time,
            "seq": self.seq,
            "kind": self.kind,
            "source": self.source,
            "data": dict(self.data),
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "TraceEvent":
        return cls(
            time=float(payload["time"]),
            seq=int(payload["seq"]),
            kind=str(payload["kind"]),
            source=str(payload.get("source", "")),
            data=dict(payload.get("data", {})),
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TraceEvent(t={self.time:.6g}, #{self.seq}, {self.kind!r})"
