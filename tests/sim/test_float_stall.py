"""Regression tests: the float-stall guard in processor-sharing servers.

At large virtual times, a tiny residual (left by inexact credit
subtraction) can have an ETA below the clock's ulp; without the guard,
the completion tick re-fires at the same instant forever (the bug that
froze the campus-day scenario at t=1387.07).
"""

import pytest

from repro.sim import Host, HostSpec, LinkSpec, Simulator
from repro.sim.network import Link

pytestmark = pytest.mark.gate


class TestLinkStallGuard:
    def test_subulp_residual_completes(self):
        sim = Simulator()
        # jump the clock far enough that ulp(now) is significant
        sim.call_at(1e9, lambda: None)
        sim.run()
        link = Link(sim, LinkSpec(latency_s=0.0, bandwidth_mbps=1.0))
        t = link.transfer(size_mb=1e-18)  # ETA << ulp(1e9)
        sim.run()
        assert t.done.triggered
        assert link.n_active == 0

    def test_normal_transfer_unaffected_at_large_time(self):
        sim = Simulator()
        sim.call_at(1e9, lambda: None)
        sim.run()
        link = Link(sim, LinkSpec(latency_s=0.0, bandwidth_mbps=2.0))
        t = link.transfer(size_mb=10.0)
        sim.run()
        assert t.finished_at == pytest.approx(1e9 + 5.0)

    def test_mixed_residual_and_real_transfer(self):
        sim = Simulator()
        sim.call_at(1e9, lambda: None)
        sim.run()
        link = Link(sim, LinkSpec(latency_s=0.0, bandwidth_mbps=1.0))
        tiny = link.transfer(size_mb=1e-18)
        big = link.transfer(size_mb=4.0)
        sim.run()
        assert tiny.done.triggered
        assert big.done.triggered
        assert big.finished_at == pytest.approx(1e9 + 4.0, rel=1e-6)


class TestHostStallGuard:
    def test_subulp_residual_work_completes(self):
        sim = Simulator()
        sim.call_at(1e9, lambda: None)
        sim.run()
        host = Host(sim, HostSpec(name="h", speed=1.0))
        execution = host.execute(work=1e-18)
        sim.run()
        assert execution.done.triggered
        assert host.n_running == 0
        assert host.completed_count == 1

    def test_bounded_event_count_with_many_tiny_jobs(self):
        """No event storm: tiny jobs complete in O(jobs) events."""
        sim = Simulator()
        sim.call_at(1e9, lambda: None)
        sim.run()
        host = Host(sim, HostSpec(name="h", speed=1.0))
        executions = [host.execute(work=1e-17) for _ in range(50)]
        before = sim.events_processed
        sim.run()
        assert all(e.done.triggered for e in executions)
        assert sim.events_processed - before < 50 * 20
