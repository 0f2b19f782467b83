"""Tests for monitors, group managers and site managers (paper §4.1)."""

import pytest

from repro.runtime import RuntimeConfig
from repro.sim import ConstantLoad, TraceLoad

from tests.runtime.conftest import build_runtime


class TestMonitoringPath:
    def test_workload_reaches_resource_db(self):
        rt = build_runtime(monitor_period_s=1.0)
        rt.topology.host("a1").set_bg_load(1.7)
        rt.start_monitoring()
        rt.sim.run(until=1.5)
        rec = rt.repositories["alpha"].resources.get("a1")
        assert rec.load == pytest.approx(1.7)
        assert rec.updated_at >= 0.0

    def test_monitor_reports_counted(self):
        rt = build_runtime(monitor_period_s=1.0)
        rt.start_monitoring()
        rt.sim.run(until=5.5)
        # 4 hosts x 6 measurement ticks (t=0..5)
        assert rt.stats.monitor_reports == 4 * 6

    def test_constant_load_is_suppressed_after_first_report(self):
        rt = build_runtime(monitor_period_s=1.0, change_threshold=0.25)
        for host in rt.topology.all_hosts:
            ConstantLoad(level=0.5, period_s=10.0).start(rt.sim, host)
        rt.start_monitoring()
        rt.sim.run(until=10.5)
        # only the first measurement per host is forwarded
        assert rt.stats.workload_forwards == 4
        assert rt.stats.workload_suppressed == rt.stats.monitor_reports - 4

    def test_significant_change_forwarded(self):
        rt = build_runtime(monitor_period_s=1.0, change_threshold=0.25)
        host = rt.topology.host("a1")
        # load jumps by 1.0 at t=3 (trace period 1s: 0,0,0,1,1,...)
        TraceLoad([0.0, 0.0, 0.0, 1.0, 1.0, 1.0], period_s=1.0).start(rt.sim, host)
        rt.start_monitoring()
        rt.sim.run(until=6.5)
        forwards_for_a1 = 2  # initial 0.0 and the jump to 1.0
        # can't isolate per-host counters directly; check DB state instead
        assert rt.repositories["alpha"].resources.get("a1").load == pytest.approx(1.0)
        assert rt.stats.workload_forwards >= forwards_for_a1

    def test_zero_threshold_forwards_everything(self):
        rt = build_runtime(monitor_period_s=1.0, change_threshold=0.0)
        rt.start_monitoring()
        rt.sim.run(until=4.5)
        assert rt.stats.workload_suppressed == 0
        assert rt.stats.workload_forwards == rt.stats.monitor_reports

    def test_monitoring_cannot_start_twice(self):
        rt = build_runtime()
        rt.start_monitoring()
        with pytest.raises(RuntimeError):
            rt.start_monitoring()


class TestFailureDetection:
    def test_failure_detected_within_one_echo_period(self):
        rt = build_runtime(echo_period_s=2.0)
        rt.start_monitoring()
        rt.sim.call_at(3.0, lambda: rt.topology.host("b1").fail())
        rt.sim.run(until=10.0)
        db = rt.repositories["beta"].resources
        assert not db.get("b1").up
        detections = [e for e in rt.stats.detection_log if e[1] == "b1"]
        assert detections and detections[0][2] == "down"
        # failed at t=3, next echo tick at t=4
        assert 3.0 <= detections[0][0] <= 5.0

    def test_recovery_detected(self):
        rt = build_runtime(echo_period_s=2.0)
        rt.start_monitoring()
        host = rt.topology.host("b1")
        rt.sim.call_at(3.0, host.fail)
        rt.sim.call_at(7.0, host.recover)
        rt.sim.run(until=12.0)
        assert rt.repositories["beta"].resources.get("b1").up
        kinds = [e[2] for e in rt.stats.detection_log if e[1] == "b1"]
        assert kinds == ["down", "up"]
        assert rt.stats.failure_notifications == 1
        assert rt.stats.recovery_notifications == 1

    def test_echo_packets_counted(self):
        rt = build_runtime(echo_period_s=1.0)
        rt.start_monitoring()
        rt.sim.run(until=3.5)
        # 4 hosts x 3 echo rounds (t=1,2,3)
        assert rt.stats.echo_packets == 12

    def test_detection_latency_scales_with_echo_period(self):
        latencies = {}
        for period in (1.0, 8.0):
            rt = build_runtime(echo_period_s=period)
            rt.start_monitoring()
            rt.sim.call_at(0.5, lambda rt=rt: rt.topology.host("a1").fail())
            rt.sim.run(until=30.0)
            first = [e for e in rt.stats.detection_log if e[1] == "a1"][0]
            latencies[period] = first[0] - 0.5
        assert latencies[8.0] > latencies[1.0]


class TestSiteManager:
    def test_scheduler_messages_counted_by_schedule_process(self):
        from repro.scheduler import SiteScheduler

        rt = build_runtime()
        from tests.runtime.conftest import chain_afg

        afg = chain_afg()

        def run():
            table, elapsed = yield from rt.schedule_process(
                afg, SiteScheduler(k=1)
            )
            return table, elapsed

        table, elapsed = rt.sim.run_until_complete(rt.sim.process(run()))
        assert table.is_complete_for(afg)
        # one AFG multicast + one bid reply to/from the single neighbor
        assert rt.stats.scheduler_messages == 2
        assert elapsed > 0.0
        # both sites' sheets were in hand; the table says which got work
        assert rt.stats.sites_bid == {afg.name: 2}
        assert rt.stats.sites_used == {afg.name: len(table.sites_used())}
        assert rt.stats.as_dict()["sites_bid"] == 2

    def test_schedule_k0_exchanges_no_messages(self):
        from repro.scheduler import SiteScheduler
        from tests.runtime.conftest import chain_afg

        rt = build_runtime()
        afg = chain_afg()

        def run():
            result = yield from rt.schedule_process(afg, SiteScheduler(k=0))
            return result

        table, elapsed = rt.sim.run_until_complete(rt.sim.process(run()))
        assert rt.stats.scheduler_messages == 0
        assert elapsed == pytest.approx(0.0)
        assert table.sites_used() == ["alpha"]
        assert rt.stats.sites_bid == rt.stats.sites_used == {afg.name: 1}
