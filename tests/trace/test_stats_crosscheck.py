"""Cross-check: trace event counts must equal RuntimeStats counters.

RuntimeStats and the tracer observe the same actions through different
mechanisms (aggregate counters vs. structured events); every counter
with a corresponding event kind must agree exactly.  A divergence means
an emit site and a counter increment drifted apart.

The one declared exception is the monitor's elision (DESIGN §13.9): a
report that repeats its daemon's last one, and that the Group Manager
would suppress anyway, is counted but emits neither ``monitor_report``
nor ``workload_suppress`` — so the two counters exceed their events by
the same number, and with ``change_threshold=0`` by nothing.  The
other is the quiet echo (DESIGN §13.13): an echo answered in time after
an answer, no reset between, is counted by its Group Manager and not
traced, so ``echo`` events and the Group Managers' quiet counts add up
to ``echo_packets``.
"""

import pytest

from repro import VDCE, Tracer
from repro.runtime import RuntimeConfig
from repro.metrics import event_counts
from repro.trace import EventKind
from repro.workloads import linear_solver_afg

pytestmark = pytest.mark.gate


def build_traced_env(**kwargs):
    tracer = Tracer()
    env = VDCE.standard(tracer=tracer, **kwargs)
    return env, tracer


class TestStatsCrosscheck:
    def test_monitoring_counters_match_trace(self):
        env, tracer = build_traced_env(n_sites=1, hosts_per_site=3, seed=0)
        env.start_monitoring()

        # a failure and a recovery so the notification paths fire
        victim = env.topology.all_hosts[0].name
        env.sim.call_at(6.0, lambda: env.topology.host(victim).fail())
        env.sim.call_at(18.0, lambda: env.topology.host(victim).recover())
        # to just past a tick's deliveries: no report is in flight
        env.advance(31.0)

        stats = env.runtime.stats
        counts = event_counts(tracer)
        elided = stats.monitor_reports - counts[EventKind.MONITOR_REPORT]
        assert elided == (
            stats.workload_suppressed - counts.get(EventKind.WORKLOAD_SUPPRESS, 0)
        )
        assert elided > 0
        quiet = sum(gm.quiet_echoes
                    for gm in env.runtime.group_managers.values())
        assert counts[EventKind.ECHO] + quiet == stats.echo_packets
        assert 0 < quiet < stats.echo_packets
        assert counts[EventKind.FAILURE_NOTIFICATION] == stats.failure_notifications
        assert counts[EventKind.RECOVERY_NOTIFICATION] == stats.recovery_notifications
        assert (
            counts.get(EventKind.WORKLOAD_FORWARD, 0) == stats.workload_forwards
        )
        # sanity: the failure actually happened and was noticed
        assert stats.failure_notifications >= 1
        assert stats.recovery_notifications >= 1

    def test_a_zero_threshold_elides_nothing(self):
        env, tracer = build_traced_env(
            n_sites=1, hosts_per_site=3, seed=0,
            runtime_config=RuntimeConfig(change_threshold=0.0),
        )
        env.start_monitoring()
        env.advance(31.0)

        stats = env.runtime.stats
        counts = event_counts(tracer)
        assert counts[EventKind.MONITOR_REPORT] == stats.monitor_reports > 0
        assert counts.get(EventKind.WORKLOAD_SUPPRESS, 0) == 0
        assert stats.workload_suppressed == 0
        assert counts[EventKind.WORKLOAD_FORWARD] == stats.workload_forwards \
            == stats.monitor_reports

    def test_execution_counters_match_trace(self):
        env, tracer = build_traced_env(n_sites=2, hosts_per_site=3, seed=1)
        env.submit(linear_solver_afg(scale=0.1), k=1)

        stats = env.runtime.stats
        counts = event_counts(tracer)
        assert counts[EventKind.CHANNEL_SETUP] == stats.channel_setups
        assert counts[EventKind.CHANNEL_ACK] == stats.channel_acks
        assert counts[EventKind.STARTUP_SIGNAL] == stats.startup_signals
        assert counts[EventKind.EXECUTION_REQUEST] == stats.execution_requests
        assert counts[EventKind.DATA_TRANSFER] == stats.data_transfers
        assert counts[EventKind.TASKPERF_UPDATE] == stats.taskperf_updates
        assert (
            counts[EventKind.AFG_MULTICAST] + counts[EventKind.BID_REPLY]
            == stats.scheduler_messages
        )
        assert counts.get(EventKind.RESCHEDULE, 0) == stats.reschedule_requests
        # sanity: this run exercised the paths being cross-checked
        assert stats.channel_setups > 0
        assert stats.data_transfers > 0

    def test_reschedule_counter_matches_trace(self):
        from repro.scheduler import SiteScheduler
        from repro.workloads import linear_pipeline

        env, tracer = build_traced_env(n_sites=1, hosts_per_site=3, seed=3)
        afg = linear_pipeline(n_stages=3, cost=5.0)
        rt = env.runtime
        table = SiteScheduler(k=0).schedule(afg, rt.federation_view())
        victim = table.get("s000").hosts[0]
        proc = rt.execute_process(afg, table, execute_payloads=False)
        env.sim.call_after(1.0, lambda: env.topology.host(victim).fail())
        result = env.sim.run_until_complete(proc)
        assert result.reschedules >= 1

        counts = event_counts(tracer)
        assert counts[EventKind.RESCHEDULE] == rt.stats.reschedule_requests
        assert counts[EventKind.DATA_TRANSFER] == rt.stats.data_transfers
