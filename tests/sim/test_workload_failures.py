"""Unit tests for load generators and failure injection."""

import pytest

from repro.sim import (
    FailureInjector,
    Host,
    HostSpec,
    LoadGenerator,
    OrnsteinUhlenbeckLoad,
    Simulator,
    SpikeLoad,
)
from repro.sim.workload import attach_generators

from tests.sim._loads import RandomWalkLoad, TraceLoad


def make_host(sim, name="h0"):
    return Host(sim, HostSpec(name=name))


def test_constant_load_holds_level():
    sim = Simulator()
    host = make_host(sim)
    SpikeLoad(base=0.7, spike_prob=0.0, period_s=1.0).start(sim, host)
    sim.run(until=5.0)
    assert host.bg_load == pytest.approx(0.7)


def test_trace_load_replays_and_holds_last():
    sim = Simulator()
    host = make_host(sim)
    TraceLoad([0.0, 1.0, 2.0], period_s=1.0).start(sim, host)
    observed = []
    for t in (0.5, 1.5, 2.5, 9.5):
        sim.call_at(t, lambda: observed.append(host.bg_load))
    sim.run(until=10.0)
    assert observed == [0.0, 1.0, 2.0, 2.0]


def test_trace_load_validation():
    with pytest.raises(ValueError):
        TraceLoad([])
    with pytest.raises(ValueError):
        TraceLoad([0.5, -1.0])


def test_random_walk_stays_in_bounds():
    sim = Simulator(seed=42)
    host = make_host(sim)
    RandomWalkLoad(lo=0.0, hi=1.0, step=0.5, period_s=0.5).start(sim, host)
    samples = []
    for i in range(100):
        sim.call_at(i * 0.5 + 0.25, lambda: samples.append(host.bg_load))
    sim.run(until=50.0)
    assert samples
    assert all(0.0 <= s <= 1.0 for s in samples)


def test_random_walk_is_seed_deterministic():
    def sample(seed):
        sim = Simulator(seed=seed)
        host = make_host(sim)
        RandomWalkLoad(period_s=1.0).start(sim, host)
        out = []
        for i in range(10):
            sim.call_at(i + 0.5, lambda: out.append(host.bg_load))
        sim.run(until=10.0)
        return out

    assert sample(1) == sample(1)
    assert sample(1) != sample(2)


def test_ou_load_reverts_toward_mean():
    sim = Simulator(seed=3)
    host = make_host(sim)
    OrnsteinUhlenbeckLoad(mean=1.0, theta=0.5, sigma=0.01, period_s=1.0).start(sim, host)
    sim.run(until=200.0)
    assert host.bg_load == pytest.approx(1.0, abs=0.2)


def test_ou_load_never_negative():
    sim = Simulator(seed=5)
    host = make_host(sim)
    OrnsteinUhlenbeckLoad(mean=0.05, theta=0.2, sigma=0.5, period_s=0.5).start(sim, host)
    samples = []
    for i in range(200):
        sim.call_at(i * 0.5 + 0.1, lambda: samples.append(host.bg_load))
    sim.run(until=100.0)
    assert min(samples) >= 0.0


def test_spike_load_produces_spikes_of_right_height_and_width():
    sim = Simulator(seed=11)
    host = make_host(sim)
    gen = SpikeLoad(base=0.0, spike_level=4.0, spike_prob=0.2,
                    spike_duration_periods=3, period_s=1.0)
    gen.start(sim, host)
    timeline = []
    for i in range(300):
        sim.call_at(i + 0.5, lambda: timeline.append(host.bg_load))
    sim.run(until=300.0)
    assert set(timeline) <= {0.0, 4.0}
    assert 4.0 in timeline  # with prob 0.2/period over 300 periods, certain
    # spikes last >= spike_duration consecutive periods
    runs = []
    run = 0
    for v in timeline:
        if v == 4.0:
            run += 1
        elif run:
            runs.append(run)
            run = 0
    if run:
        runs.append(run)
    assert runs and min(runs) >= 3


def test_generator_param_validation():
    with pytest.raises(ValueError):
        SpikeLoad(spike_duration_periods=0)
    with pytest.raises(ValueError):
        OrnsteinUhlenbeckLoad(theta=0.0)
    with pytest.raises(ValueError):
        SpikeLoad(spike_prob=2.0)
    with pytest.raises(ValueError):
        LoadGenerator(period_s=0.0)


def test_attach_generators_one_per_host():
    sim = Simulator()
    hosts = [make_host(sim, name=f"h{i}") for i in range(4)]
    procs = attach_generators(
        sim, hosts, lambda: SpikeLoad(base=0.3, spike_prob=0.0))
    sim.run(until=1.0)
    assert len(procs) == 4
    assert all(h.bg_load == pytest.approx(0.3) for h in hosts)


def test_scripted_failure_and_recovery():
    sim = Simulator()
    host = make_host(sim)
    injector = FailureInjector(sim)
    injector.schedule(host, 5.0, "down")
    injector.schedule(host, 8.0, "up")
    states = {}
    sim.call_at(4.0, lambda: states.setdefault("before", host.is_up()))
    sim.call_at(6.0, lambda: states.setdefault("during", host.is_up()))
    sim.call_at(9.0, lambda: states.setdefault("after", host.is_up()))
    sim.run()
    assert states == {"before": True, "during": False, "after": True}
    assert injector.downtime_intervals("h0") == [(5.0, 8.0)]


def test_failure_injector_validation():
    sim = Simulator()
    host = make_host(sim)
    injector = FailureInjector(sim)
    with pytest.raises(ValueError):
        injector.schedule(host, 1.0, kind="explode")
    with pytest.raises(ValueError):
        injector.schedule(host, -1.0)
    with pytest.raises(ValueError):
        injector.start_random(host, mtbf_s=0.0, mttr_s=1.0)


def test_random_failures_alternate_down_up():
    sim = Simulator(seed=9)
    host = make_host(sim)
    injector = FailureInjector(sim)
    injector.start_random(host, mtbf_s=10.0, mttr_s=2.0)
    sim.run(until=200.0)
    kinds = [e.kind for e in injector.log]
    assert kinds, "expected at least one failure in 20 MTBFs"
    assert kinds[0] == "down"
    for a, b in zip(kinds, kinds[1:]):
        assert a != b  # strict alternation


def test_downtime_intervals_open_ended():
    sim = Simulator()
    host = make_host(sim)
    injector = FailureInjector(sim)
    injector.schedule(host, 4.0, "down")
    sim.run()
    assert injector.downtime_intervals("h0") == [(4.0, None)]
