"""Runtime message/event counters, shared across one deployment.

Experiments E5-E8 are statements about these counters (monitoring
message volume, failure-detection latency, rescheduling events, channel
setup counts), so they are first-class rather than scattered ad-hoc.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, field, fields
from typing import Dict, List, Tuple

__all__ = ["RuntimeStats"]


@dataclass
class RuntimeStats:
    """Counters for every message class the paper's runtime exchanges."""

    #: Monitor daemon -> Group Manager workload measurements
    monitor_reports: int = 0
    #: Group Manager -> Site Manager forwarded (significant) measurements
    workload_forwards: int = 0
    #: measurements suppressed by the significant-change filter
    workload_suppressed: int = 0
    #: echo packets sent by Group Managers
    echo_packets: int = 0
    #: failure notifications Group Manager -> Site Manager
    failure_notifications: int = 0
    #: recovery notifications Group Manager -> Site Manager
    recovery_notifications: int = 0
    #: allocation-table portions multicast by Site Managers
    allocation_messages: int = 0
    #: execution requests Group Manager -> Application Controller
    execution_requests: int = 0
    #: Data Manager channel setups
    channel_setups: int = 0
    #: channel acknowledgements received
    channel_acks: int = 0
    #: execution startup signals sent
    startup_signals: int = 0
    #: inter-task data transfers performed
    data_transfers: int = 0
    #: MB moved by inter-task transfers
    data_transferred_mb: float = 0.0
    #: task rescheduling requests (load threshold or failure)
    reschedule_requests: int = 0
    #: tasks restarted after a host failure
    failure_restarts: int = 0
    #: inter-site scheduler messages (AFG multicast + bid replies)
    scheduler_messages: int = 0
    #: control-plane RPC attempts that failed and were retried
    rpc_retries: int = 0
    #: control-plane RPCs abandoned after exhausting every attempt
    rpc_timeouts: int = 0
    #: payload transfers retried after a link outage killed them
    transfer_retries: int = 0
    #: inter-task channels re-established after a mid-flight failure
    channel_reestablishes: int = 0
    #: task-performance DB refinements recorded after completion
    taskperf_updates: int = 0
    #: manager failovers completed (Group Manager deputy promotions)
    failovers: int = 0
    #: records appended to application checkpoint journals
    checkpoint_records: int = 0
    #: bytes appended to application checkpoint journals
    checkpoint_bytes: float = 0.0
    #: applications resumed from a checkpoint journal
    resumes: int = 0
    #: speculative backup task copies launched
    speculative_launches: int = 0
    #: speculation races won by the backup copy
    speculative_wins: int = 0
    #: virtual seconds of work discarded with cancelled race losers
    speculative_wasted_s: float = 0.0
    #: virtual seconds applications spent queued before admission
    queue_wait_s: float = 0.0
    #: (virtual time, host, event) failure-detection log for E6
    detection_log: List[Tuple[float, str, str]] = field(default_factory=list)
    #: per-application queue wait (admission control), excluded from as_dict
    queue_waits: Dict[str, float] = field(default_factory=dict)
    #: per application, the sites whose bid sheets its (latest) scheduling
    #: round had in hand: the local one + every remote that answered
    sites_bid: Dict[str, int] = field(default_factory=dict)
    #: per application, the distinct sites its allocation table names
    sites_used: Dict[str, int] = field(default_factory=dict)

    def record_detection(self, time: float, host: str, event: str) -> None:
        self.detection_log.append((time, host, event))

    def total_control_messages(self) -> int:
        """Everything except payload data transfers.

        Both sides of the failure path are summed: the rescheduling
        *request* (Application Controller -> Site Manager) and the
        restart message the replacement host receives.  Historically
        only ``reschedule_requests`` was counted, understating control
        traffic in faulty runs; the composition is pinned by a
        regression test.
        """
        return (
            self.monitor_reports
            + self.workload_forwards
            + self.echo_packets
            + self.failure_notifications
            + self.recovery_notifications
            + self.allocation_messages
            + self.execution_requests
            + self.channel_setups
            + self.channel_acks
            + self.startup_signals
            + self.reschedule_requests
            + self.failure_restarts
            + self.scheduler_messages
        )

    def export_to(self, registry) -> None:
        """Back every counter field by a registry counter.

        Each field becomes ``vdce_<field>_total`` in the given
        :class:`~repro.metrics.registry.MetricsRegistry`, written with
        ``set_total`` so repeated exports stay idempotent.  The
        dataclass API stays the in-run source (cheap increments on hot
        paths); the registry becomes the queryable mirror — ``vdce
        metrics`` and experiment assertions read the same numbers.
        """
        for field_name, value in self.as_dict().items():
            registry.counter(
                f"vdce_{field_name}_total",
                f"RuntimeStats.{field_name} (runtime message counter)",
            ).set_total(float(value))

    def as_dict(self) -> Dict[str, float]:
        """Every scalar counter (the fields with a plain default, in
        field order), the per-application dicts summed, and the total."""
        counters = {
            f.name: getattr(self, f.name)
            for f in fields(self) if f.default is not MISSING
        }
        return {
            **counters,
            "sites_bid": sum(self.sites_bid.values()),
            "sites_used": sum(self.sites_used.values()),
            "total_control_messages": self.total_control_messages(),
        }
