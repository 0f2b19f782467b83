"""Unit tests for the discrete-event kernel."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.sim import (
    AllOf,
    AnyOf,
    Interrupt,
    Signal,
    SimulationError,
    Simulator,
    Timeout,
)


def test_clock_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0.0


def test_call_at_runs_in_time_order():
    sim = Simulator()
    seen = []
    sim.call_at(5.0, lambda: seen.append(("b", sim.now)))
    sim.call_at(1.0, lambda: seen.append(("a", sim.now)))
    sim.call_at(9.0, lambda: seen.append(("c", sim.now)))
    sim.run()
    assert seen == [("a", 1.0), ("b", 5.0), ("c", 9.0)]


def test_ties_broken_in_schedule_order():
    sim = Simulator()
    seen = []
    for tag in "abc":
        sim.call_at(2.0, lambda t=tag: seen.append(t))
    sim.run()
    assert seen == ["a", "b", "c"]


def test_run_until_stops_before_later_events():
    sim = Simulator()
    seen = []
    sim.call_at(1.0, lambda: seen.append(1))
    sim.call_at(10.0, lambda: seen.append(10))
    sim.run(until=5.0)
    assert seen == [1]
    assert sim.now == 5.0
    sim.run()
    assert seen == [1, 10]


def test_cannot_schedule_in_the_past():
    sim = Simulator()
    sim.call_at(3.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.call_at(1.0, lambda: None)


def test_process_timeout_advances_clock():
    sim = Simulator()

    def proc():
        yield Timeout(4.0)
        return sim.now

    p = sim.process(proc())
    result = sim.run_until_complete(p)
    assert result == 4.0


def test_process_return_value_delivered_to_waiter():
    sim = Simulator()

    def child():
        yield Timeout(1.0)
        return 42

    def parent():
        value = yield sim.process(child())
        return value + 1

    p = sim.process(parent())
    assert sim.run_until_complete(p) == 43


def test_timeout_value_passthrough():
    sim = Simulator()

    def proc():
        got = yield Timeout(1.0, value="payload")
        return got

    assert sim.run_until_complete(sim.process(proc())) == "payload"


def test_signal_wakes_all_waiters_with_value():
    sim = Simulator()
    sig = sim.signal("go")
    results = []

    def waiter(tag):
        value = yield sig
        results.append((tag, value, sim.now))

    sim.process(waiter("w1"))
    sim.process(waiter("w2"))
    sim.call_at(3.0, lambda: sig.succeed("data"))
    sim.run()
    assert results == [("w1", "data", 3.0), ("w2", "data", 3.0)]


def test_signal_fires_for_late_subscriber():
    sim = Simulator()
    sig = sim.signal()
    sig.succeed(7)

    def waiter():
        value = yield sig
        return value

    assert sim.run_until_complete(sim.process(waiter())) == 7


def test_signal_double_fire_rejected():
    sim = Simulator()
    sig = sim.signal()
    sig.succeed()
    with pytest.raises(SimulationError):
        sig.succeed()


def test_signal_fail_raises_in_waiter():
    sim = Simulator()
    sig = sim.signal()

    def waiter():
        try:
            yield sig
        except ValueError as exc:
            return f"caught:{exc}"

    p = sim.process(waiter())
    sim.call_at(1.0, lambda: sig.fail(ValueError("boom")))
    assert sim.run_until_complete(p) == "caught:boom"


def test_process_exception_propagates_to_run():
    sim = Simulator()

    def bad():
        yield Timeout(1.0)
        raise RuntimeError("kaput")

    sim.process(bad())
    with pytest.raises(RuntimeError, match="kaput"):
        sim.run()


def test_process_exception_observed_by_waiter_not_reraised():
    sim = Simulator()

    def bad():
        yield Timeout(1.0)
        raise RuntimeError("kaput")

    def parent():
        try:
            yield sim.process(bad())
        except RuntimeError:
            return "handled"

    p = sim.process(parent())
    assert sim.run_until_complete(p) == "handled"


def test_all_of_waits_for_every_child():
    sim = Simulator()

    def proc():
        values = yield AllOf([Timeout(1.0, "a"), Timeout(5.0, "b"), Timeout(3.0, "c")])
        return (values, sim.now)

    values, t = sim.run_until_complete(sim.process(proc()))
    assert values == ["a", "b", "c"]
    assert t == 5.0


def test_all_of_empty_completes_immediately():
    sim = Simulator()

    def proc():
        values = yield AllOf([])
        return values

    assert sim.run_until_complete(sim.process(proc())) == []


def test_any_of_fires_on_first_child():
    sim = Simulator()

    def proc():
        index, value = yield AnyOf([Timeout(9.0, "slow"), Timeout(2.0, "fast")])
        return (index, value, sim.now)

    assert sim.run_until_complete(sim.process(proc())) == (1, "fast", 2.0)


def test_interrupt_raises_inside_process():
    sim = Simulator()

    def victim():
        try:
            yield Timeout(100.0)
        except Interrupt as exc:
            return ("interrupted", exc.cause, sim.now)

    p = sim.process(victim())
    sim.call_at(5.0, lambda: p.interrupt("load-threshold"))
    assert sim.run_until_complete(p) == ("interrupted", "load-threshold", 5.0)


def test_interrupt_after_completion_is_noop():
    sim = Simulator()

    def quick():
        yield Timeout(1.0)
        return "done"

    p = sim.process(quick())
    sim.run()
    p.interrupt("late")
    sim.run()
    assert p.value == "done"


def test_uninterrupted_timeout_delivers_normally():
    sim = Simulator()
    resumed_values = []

    def victim():
        try:
            value = yield Timeout(10.0, "original")
            resumed_values.append(value)
        except Interrupt:  # pragma: no cover - not expected here
            resumed_values.append("interrupted")

    sim.process(victim())
    sim.run()
    assert resumed_values == ["original"]


def test_interrupt_discards_pending_wait():
    sim = Simulator()
    log = []

    def victim():
        try:
            yield Timeout(10.0, "original")
            log.append("original-delivered")
        except Interrupt:
            got = yield Timeout(5.0, "post-interrupt")
            log.append(got)

    p = sim.process(victim())
    sim.call_at(3.0, lambda: p.interrupt())
    sim.run()
    assert log == ["post-interrupt"]
    # original timeout at t=10 must not have resumed the process a second time
    assert sim.now >= 10.0


def test_negative_timeout_rejected():
    with pytest.raises(SimulationError):
        Timeout(-1.0)


@pytest.mark.gate
@pytest.mark.parametrize("delay", [float("nan"), float("-inf")])
def test_a_nan_or_minus_infinite_delay_never_reaches_the_clock(delay):
    """The kernel refuses a NaN or -inf delay, from a process or a raw
    callback, and the clock stays where it was."""
    sim = Simulator()
    sim.call_at(1.0, lambda: None)
    sim.run()

    def proc():
        yield Timeout(delay)

    with pytest.raises(SimulationError):
        sim.run_until_complete(sim.process(proc()))
    with pytest.raises(SimulationError):
        sim.call_after(delay, lambda: None)
    assert sim.now == 1.0


@pytest.mark.gate
@pytest.mark.parametrize("time", [float("nan"), float("-inf")])
def test_call_at_refuses_a_nan_or_minus_infinite_time(time):
    """``call_at`` refuses a NaN or -inf time; nothing is scheduled."""
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.call_at(time, lambda: None)
    assert sim.run() == 0.0


@pytest.mark.gate
def test_run_refuses_a_nan_until():
    """No event time is past NaN, so ``run(until=nan)`` would run every
    event there is — forever, with the periodic daemons running.  It is
    refused like a NaN ``call_at``; the calendar here drains, so a
    kernel that accepts NaN fails this test instead of hanging."""
    sim = Simulator()
    woke = []
    sim.call_at(1.0, lambda: woke.append(sim.now))
    with pytest.raises(SimulationError):
        sim.run(until=float("nan"))
    assert woke == [] and sim.now == 0.0


@pytest.mark.gate
def test_an_infinite_delay_is_a_never_that_no_bounded_run_reaches():
    """+inf is a legal "never" (``RetryPolicy(timeout_s=inf)`` waits out a
    lost message with ``Timeout(inf)``): no bounded run reaches it."""
    sim = Simulator()
    woke = []

    def sleeper():
        yield Timeout(float("inf"))
        woke.append(sim.now)

    sim.process(sleeper())
    sim.call_at(float("inf"), lambda: woke.append("call"))
    assert sim.run(until=50.0) == 50.0
    assert woke == [] and sim.now == 50.0


def test_yielding_non_waitable_fails_process():
    sim = Simulator()

    def bad():
        yield 42

    with pytest.raises(SimulationError, match="non-waitable"):
        sim.run_until_complete(sim.process(bad()))


def test_rng_streams_are_deterministic_and_independent():
    a1 = Simulator(seed=123).rng("alpha").random(5)
    a2 = Simulator(seed=123).rng("alpha").random(5)
    b = Simulator(seed=123).rng("beta").random(5)
    assert list(a1) == list(a2)
    assert list(a1) != list(b)


def test_rng_stream_cached_per_name():
    sim = Simulator(seed=1)
    assert sim.rng("x") is sim.rng("x")


def test_rng_streams_counts_misses_not_calls():
    sim = Simulator(seed=1)
    assert sim.rng_streams == 0
    for name in ("x", "y", "x", "x", "y"):
        sim.rng(name)
    assert sim.rng_streams == 2


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**63),
    steps=st.lists(
        # (name, 0) materialises; (name, k) draws k values
        st.tuples(st.text(min_size=1, max_size=12),
                  st.integers(min_value=0, max_value=4)),
        max_size=30,
    ),
)
def test_stream_values_do_not_depend_on_when_it_materialises(seed, steps):
    """What makes first-draw safe: the values of stream X are those of
    ``default_rng(SeedSequence(seed, spawn_key=X))``, whatever else was
    materialised before, between or never."""
    sim = Simulator(seed=seed)
    drawn = {}
    for name, k in steps:
        values = sim.rng(name).random(k)
        drawn.setdefault(name, []).extend(values)
    assert sim.rng_streams == len(drawn)
    for name, values in drawn.items():
        reference = np.random.default_rng(np.random.SeedSequence(
            entropy=seed, spawn_key=tuple(name.encode("utf-8")),
        ))
        assert values == list(reference.random(len(values)))


def test_run_until_complete_raises_if_unfinished():
    sim = Simulator()

    def forever():
        while True:
            yield Timeout(1.0)

    p = sim.process(forever())
    with pytest.raises(SimulationError, match="did not complete"):
        sim.run_until_complete(p, limit=10.0)


def test_nested_all_any_composition():
    sim = Simulator()

    def proc():
        index, value = yield AnyOf(
            [
                AllOf([Timeout(2.0, "x"), Timeout(4.0, "y")]),
                Timeout(10.0, "slow"),
            ]
        )
        return (index, value, sim.now)

    index, value, t = sim.run_until_complete(sim.process(proc()))
    assert index == 0
    assert value == ["x", "y"]
    assert t == 4.0


def test_events_processed_counter():
    sim = Simulator()
    for i in range(5):
        sim.call_at(float(i), lambda: None)
    sim.run()
    assert sim.events_processed == 5


@pytest.mark.gate
def test_no_waitable_carries_a_dict():
    """A kernel object is made per simulated event: every waitable is
    slotted, the base class included, or ``__slots__`` buys nothing."""
    sim = Simulator()

    def proc():
        yield Timeout(1.0)

    waitables = [Timeout(0), Signal("s"), AllOf([]), AnyOf([Timeout(1)]),
                 sim.process(proc())]
    assert [w for w in waitables if hasattr(w, "__dict__")] == []
    # a waitable that never fails still answers the resume's question
    assert Timeout(0)._exc is None


def test_a_calendar_entry_is_its_own_handle():
    sim = Simulator()
    fired = []
    keep = sim.call_at(1.0, lambda: fired.append("keep"))
    drop = sim.call_at(1.0, lambda: fired.append("drop"))
    drop.cancelled = True
    assert keep == [1.0, 0, keep.callback, False]
    assert drop.cancelled and sim._queue[0] is keep
    keep.callback()
    sim.run()
    assert fired == ["keep", "keep"]


@pytest.mark.gate
def test_the_event_loop_writes_its_instruments_without_a_call(monkeypatch):
    """``sim_events_total`` / ``sim_queue_depth`` are written in place by
    ``Simulator.run``: the cells ``inc()`` / ``observe()`` would write,
    current at every event, with no call to either."""
    from repro.metrics.registry import Counter, Histogram, MetricsRegistry

    def cells(registry):
        events = registry.get("sim_events_total")
        depth = registry.get("sim_queue_depth")
        return (events.label_sets(), events.value(), depth.bucket_counts(),
                depth.sum())

    # by call: six events, the third a read, at 5, 4, ..., 0 pending
    reference = Simulator().attach_metrics(MetricsRegistry())
    events = reference.get("sim_events_total")
    depth = reference.get("sim_queue_depth")
    expected = []
    for pending in (5, 4, 3, 2, 1, 0):
        events.inc()
        depth.observe(pending)
        if pending == 3:
            expected.append(cells(reference))
    expected.append(cells(reference))

    def forbidden(self, *args, **kwargs):
        raise AssertionError(f"{self.name} written through a call")

    monkeypatch.setattr(Counter, "inc", forbidden)
    monkeypatch.setattr(Histogram, "observe", forbidden)
    sim = Simulator()
    registry = sim.attach_metrics(MetricsRegistry())
    seen = []
    for t in range(1, 6):
        sim.call_at(float(t), lambda: None)
    sim.call_at(2.5, lambda: seen.append(cells(registry)))
    # no cell before the first event, as when they were written by call
    assert cells(registry)[0] == []
    sim.run()
    seen.append(cells(registry))
    assert seen == expected


@pytest.mark.gate
@pytest.mark.parametrize("first, second", [
    ("repro.sim.kernel", "repro.metrics.registry"),
    ("repro.metrics.registry", "repro.sim.kernel"),
    ("repro.sim", "repro.metrics"),
    ("repro.metrics", "repro.sim"),
])
def test_the_kernel_and_the_metrics_registry_import_in_either_order(
        first, second):
    """The kernel imports the registry at module top: with lazy package
    inits, ``metrics.registry`` reaches only ``metrics.folds`` and
    ``trace``, so neither order closes a cycle (a fresh interpreter each,
    since an earlier import would hide one)."""
    src = Path(__file__).resolve().parents[2] / "src"
    code = (f"import {first}, {second}\n"
            "from repro.metrics.registry import NULL_METRICS\n"
            "from repro.sim.kernel import Simulator\n"
            "assert Simulator().metrics is NULL_METRICS\n")
    subprocess.run([sys.executable, "-c", code], check=True, timeout=120,
                   env=dict(os.environ, PYTHONPATH=str(src)))
