"""Tests: the control-message total is the exact sum of its parts.

Regression pin for a long-standing undercount: ``failure_restarts``
(the restart message the replacement host receives) was missing from
:meth:`RuntimeStats.total_control_messages`, so faulty runs reported
less control traffic than they generated.
"""

from repro.runtime.stats import RuntimeStats

# every counter that is a control-plane message, with a distinct prime
# so a dropped or double-counted term changes the sum detectably
_CONTROL_FIELDS = {
    "monitor_reports": 2,
    "workload_forwards": 3,
    "echo_packets": 5,
    "failure_notifications": 7,
    "recovery_notifications": 11,
    "allocation_messages": 13,
    "execution_requests": 17,
    "channel_setups": 19,
    "channel_acks": 23,
    "startup_signals": 29,
    "reschedule_requests": 31,
    "failure_restarts": 37,
    "scheduler_messages": 41,
}

# counted elsewhere (payload data plane, diagnostics, checkpointing) —
# must NOT contribute to the control-message total
_NON_CONTROL_FIELDS = {
    "workload_suppressed": 43,
    "data_transfers": 47,
    "rpc_retries": 53,
    "rpc_timeouts": 59,
    "transfer_retries": 61,
    "channel_reestablishes": 67,
    "taskperf_updates": 71,
    "failovers": 73,
    "checkpoint_records": 79,
    "resumes": 83,
    "speculative_launches": 89,
    "speculative_wins": 97,
}


class TestTotalControlMessages:
    def test_composition_is_exactly_the_control_fields(self):
        stats = RuntimeStats(**_CONTROL_FIELDS, **_NON_CONTROL_FIELDS)
        assert stats.total_control_messages() == sum(_CONTROL_FIELDS.values())

    def test_failure_restarts_are_counted(self):
        stats = RuntimeStats(failure_restarts=7)
        assert stats.total_control_messages() == 7

    def test_each_control_field_contributes_exactly_once(self):
        for field_name in _CONTROL_FIELDS:
            stats = RuntimeStats(**{field_name: 1})
            assert stats.total_control_messages() == 1, field_name

    def test_non_control_fields_contribute_nothing(self):
        stats = RuntimeStats(**_NON_CONTROL_FIELDS)
        assert stats.total_control_messages() == 0

    def test_as_dict_mirrors_the_total(self):
        stats = RuntimeStats(**_CONTROL_FIELDS)
        assert stats.as_dict()["total_control_messages"] \
            == stats.total_control_messages()


# the 29 scalar counters, in the order as_dict listed them when it was
# a hand-written literal (export_to registers metric families in it)
_SCALARS = (
    "monitor_reports", "workload_forwards", "workload_suppressed",
    "echo_packets", "failure_notifications", "recovery_notifications",
    "allocation_messages", "execution_requests", "channel_setups",
    "channel_acks", "startup_signals", "data_transfers",
    "data_transferred_mb", "reschedule_requests", "failure_restarts",
    "scheduler_messages", "rpc_retries", "rpc_timeouts", "transfer_retries",
    "channel_reestablishes", "taskperf_updates", "failovers",
    "checkpoint_records", "checkpoint_bytes", "resumes",
    "speculative_launches", "speculative_wins", "speculative_wasted_s",
    "queue_wait_s",
)


class TestAsDict:
    def test_every_counter_and_nothing_else_in_field_order(self):
        values = {name: 1.5 + i for i, name in enumerate(_SCALARS)}
        stats = RuntimeStats(
            **values,
            detection_log=[(1.0, "a1", "down")],
            queue_waits={"app": 2.0},
            sites_bid={"app": 3, "other": 2},
            sites_used={"app": 2, "other": 1},
        )
        assert list(stats.as_dict().items()) == [
            *values.items(),
            ("sites_bid", 5),
            ("sites_used", 3),
            ("total_control_messages", stats.total_control_messages()),
        ]
