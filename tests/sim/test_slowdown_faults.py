"""Performance-fault injection: scripted slowdowns and stochastic
flapping, with the same edge-case guarantees as the crash injectors."""

import pytest

from repro.sim import Host, HostSpec, Simulator
from repro.sim.failures import FailureInjector
from repro.sim.host import SimulationError
from tests.sim._scripted import host_fault


def make_host(sim, speed=1.0, name="h0"):
    return Host(sim, HostSpec(name=name, speed=speed, memory_mb=256))


class TestHostSlowdownModel:
    def test_slowdown_divides_rate(self):
        sim = Simulator()
        host = make_host(sim)
        host.set_slowdown(4.0)
        execution = host.execute(work=10.0)
        sim.run()
        assert execution.finished_at == pytest.approx(40.0)

    def test_mid_flight_slowdown_stretches_the_remainder(self):
        # 5 of 10 work at nominal rate, then the rest at 1/10th:
        # finish = 5 + 10*5 = 55
        sim = Simulator()
        host = make_host(sim)
        execution = host.execute(work=10.0)
        sim.call_at(5.0, lambda: host.set_slowdown(10.0))
        sim.run()
        assert execution.finished_at == pytest.approx(55.0)

    def test_restore_reschedules_completion(self):
        # 5 work at nominal, 10s degraded 10x (1 work), 4 work nominal
        sim = Simulator()
        host = make_host(sim)
        execution = host.execute(work=10.0)
        sim.call_at(5.0, lambda: host.set_slowdown(10.0))
        sim.call_at(15.0, lambda: host.set_slowdown(1.0))
        sim.run()
        assert execution.finished_at == pytest.approx(19.0)

    def test_factor_below_one_rejected(self):
        sim = Simulator()
        host = make_host(sim)
        with pytest.raises(SimulationError):
            host.set_slowdown(0.5)

    def test_slowdown_does_not_mark_host_down(self):
        sim = Simulator()
        host = make_host(sim)
        host.set_slowdown(8.0)
        assert host.is_up()  # slow is not dead


class TestScheduledSlowdown:
    def test_slowdown_interval_logged_and_paired(self):
        sim = Simulator()
        host = make_host(sim)
        injector = FailureInjector(sim)
        injector.schedule_host_slowdown(host, start=10.0, duration=20.0,
                                        factor=5.0)
        sim.run()
        assert injector.slowdown_intervals("h0") == [(10.0, 30.0)]
        kinds = [(e.kind, e.factor) for e in injector.log]
        assert kinds == [("slow", 5.0), ("normal", 1.0)]

    def test_past_event_rejected(self):
        sim = Simulator()
        host = make_host(sim)
        injector = FailureInjector(sim)
        sim.run(until=5.0)
        with pytest.raises(ValueError):
            injector.schedule_host_slowdown(host, start=1.0, duration=2.0,
                                            factor=2.0)

    def test_invalid_parameters_rejected(self):
        sim = Simulator()
        host = make_host(sim)
        injector = FailureInjector(sim)
        with pytest.raises(ValueError):
            injector.schedule_host_slowdown(host, start=0.0, duration=0.0,
                                            factor=2.0)
        with pytest.raises(ValueError):
            injector.schedule_host_slowdown(host, start=0.0, duration=1.0,
                                            factor=1.0)

    def test_overlapping_slowdowns_are_duplicate_tolerant(self):
        # mirrors downtime_intervals: a host already degraded stays at
        # its current factor and the overlap logs nothing extra
        sim = Simulator()
        host = make_host(sim)
        injector = FailureInjector(sim)
        injector.schedule_host_slowdown(host, start=10.0, duration=20.0,
                                        factor=5.0)
        injector.schedule_host_slowdown(host, start=15.0, duration=5.0,
                                        factor=3.0)
        sim.run()
        # second "slow" at 15 is a no-op; its "normal" at 20 restores
        assert injector.slowdown_intervals("h0") == [(10.0, 20.0)]
        assert host.slowdown == 1.0

    def test_crash_and_slowdown_logs_are_independent(self):
        sim = Simulator()
        host = make_host(sim)
        injector = FailureInjector(sim)
        host_fault(injector, host, 5.0, "down")
        host_fault(injector, host, 10.0, "up")
        injector.schedule_host_slowdown(host, start=20.0, duration=10.0,
                                        factor=2.0)
        sim.run()
        assert injector.downtime_intervals("h0") == [(5.0, 10.0)]
        assert injector.slowdown_intervals("h0") == [(20.0, 30.0)]


class TestFlapping:
    def test_flapping_produces_paired_intervals(self):
        sim = Simulator(seed=0)
        host = make_host(sim)
        injector = FailureInjector(sim)
        injector.start_flapping(host, mean_normal_s=10.0, mean_slow_s=5.0,
                                factor=4.0)
        sim.run(until=200.0)
        intervals = injector.slowdown_intervals("h0")
        assert intervals, "no flaps in 200s with a 10s mean normal phase"
        for slow_at, normal_at in intervals[:-1]:
            assert normal_at is not None and normal_at > slow_at

    def test_flapping_is_deterministic_per_stream(self):
        def run_once():
            sim = Simulator(seed=7)
            host = make_host(sim)
            injector = FailureInjector(sim)
            injector.start_flapping(host, mean_normal_s=10.0,
                                    mean_slow_s=5.0, factor=4.0)
            sim.run(until=100.0)
            return injector.slowdown_intervals("h0")

        assert run_once() == run_once()

    def test_adding_a_flapper_does_not_perturb_other_hosts(self):
        # the crash injector on h0 must draw the same fate whether or
        # not h1 flaps: per-target streams compose
        def crash_log(with_flapper):
            sim = Simulator(seed=3)
            h0 = make_host(sim, name="h0")
            h1 = make_host(sim, name="h1")
            injector = FailureInjector(sim)
            injector.start_random(h0, mtbf_s=20.0, mttr_s=5.0)
            if with_flapper:
                injector.start_flapping(h1, mean_normal_s=8.0,
                                        mean_slow_s=4.0, factor=3.0)
            sim.run(until=150.0)
            return injector.downtime_intervals("h0")

        assert crash_log(False) == crash_log(True)

    def test_invalid_parameters_rejected(self):
        sim = Simulator()
        host = make_host(sim)
        injector = FailureInjector(sim)
        with pytest.raises(ValueError):
            injector.start_flapping(host, mean_normal_s=0.0, mean_slow_s=5.0,
                                    factor=2.0)
        with pytest.raises(ValueError):
            injector.start_flapping(host, mean_normal_s=5.0, mean_slow_s=5.0,
                                    factor=1.0)
