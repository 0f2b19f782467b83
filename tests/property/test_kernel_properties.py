"""Property-based tests: discrete-event kernel invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Simulator, Timeout

times = st.floats(min_value=0.0, max_value=1e6, allow_nan=False,
                  allow_infinity=False)
delays = st.floats(min_value=0.0, max_value=1e3, allow_nan=False,
                   allow_infinity=False)


@given(st.lists(times, min_size=1, max_size=50))
def test_callbacks_fire_in_nondecreasing_time_order(schedule_times):
    sim = Simulator()
    fired = []
    for t in schedule_times:
        sim.call_at(t, lambda t=t: fired.append(sim.now))
    sim.run()
    assert len(fired) == len(schedule_times)
    assert fired == sorted(fired)
    assert sim.now == max(schedule_times)


@given(st.lists(delays, min_size=1, max_size=30))
def test_sequential_timeouts_sum_exactly(delay_list):
    sim = Simulator()

    def proc():
        for d in delay_list:
            yield Timeout(d)
        return sim.now

    final = sim.run_until_complete(sim.process(proc()))
    assert final == sum(delay_list) or abs(final - sum(delay_list)) < 1e-6


@given(st.lists(st.tuples(times, delays), min_size=1, max_size=20))
def test_interleaved_processes_all_complete(specs):
    sim = Simulator()
    done = []

    def proc(start, duration, index):
        yield Timeout(start)
        yield Timeout(duration)
        done.append(index)

    procs = [sim.process(proc(s, d, i)) for i, (s, d) in enumerate(specs)]
    sim.run()
    assert sorted(done) == list(range(len(specs)))
    assert all(p.triggered for p in procs)


@given(st.integers(min_value=0, max_value=2**32 - 1), st.text(min_size=1, max_size=20))
def test_rng_streams_reproducible(seed, name):
    a = Simulator(seed=seed).rng(name)
    b = Simulator(seed=seed).rng(name)
    values = [a.random() for _ in range(3)]
    assert values == [b.random() for _ in range(3)]
    oracle = np.random.default_rng(np.random.SeedSequence(
        entropy=seed, spawn_key=tuple(name.encode("utf-8"))))
    assert values == list(oracle.random(3))


@given(st.lists(times, min_size=1, max_size=30), times)
def test_run_until_boundary(schedule_times, boundary):
    sim = Simulator()
    fired = []
    for t in schedule_times:
        sim.call_at(t, lambda t=t: fired.append(t))
    sim.run(until=boundary)
    assert sorted(fired) == sorted(t for t in schedule_times if t <= boundary)
