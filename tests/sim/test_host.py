"""Unit tests for the processor-sharing host model."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim import Host, HostSpec, HostState, Simulator
from repro.sim.host import HostDownError, Interrupted


def make_host(sim, speed=1.0, memory_mb=256, thrash=0.25, name="h0"):
    return Host(sim, HostSpec(name=name, speed=speed, memory_mb=memory_mb,
                              thrash_factor=thrash))


def test_single_task_on_idle_unit_host_takes_work_seconds():
    sim = Simulator()
    host = make_host(sim)
    execution = host.execute(work=10.0)
    sim.run()
    assert execution.finished_at == pytest.approx(10.0)
    assert execution.elapsed == pytest.approx(10.0)


def test_speed_divides_execution_time():
    sim = Simulator()
    host = make_host(sim, speed=2.0)
    execution = host.execute(work=10.0)
    sim.run()
    assert execution.finished_at == pytest.approx(5.0)


def test_background_load_slows_execution():
    sim = Simulator()
    host = make_host(sim)
    host.set_bg_load(1.0)  # run queue: 1 background + 1 task = rate 1/2
    execution = host.execute(work=10.0)
    sim.run()
    assert execution.finished_at == pytest.approx(20.0)


def test_two_tasks_share_the_processor():
    sim = Simulator()
    host = make_host(sim)
    e1 = host.execute(work=10.0)
    e2 = host.execute(work=10.0)
    sim.run()
    # both progress at rate 1/2 throughout
    assert e1.finished_at == pytest.approx(20.0)
    assert e2.finished_at == pytest.approx(20.0)


def test_short_task_departure_speeds_up_survivor():
    sim = Simulator()
    host = make_host(sim)
    short = host.execute(work=5.0)
    long = host.execute(work=10.0)
    sim.run()
    # shared until short finishes at t=10 (5 work at rate 1/2),
    # survivor then has 5 work left at rate 1 -> t=15
    assert short.finished_at == pytest.approx(10.0)
    assert long.finished_at == pytest.approx(15.0)


def test_mid_run_load_change_is_integrated():
    sim = Simulator()
    host = make_host(sim)
    execution = host.execute(work=10.0)
    # at t=5 the owner comes back: load 1.0 -> rate halves
    sim.call_at(5.0, lambda: host.set_bg_load(1.0))
    sim.run()
    # 5 work done by t=5, remaining 5 at rate 1/2 -> 10 more seconds
    assert execution.finished_at == pytest.approx(15.0)


def test_zero_work_completes_immediately_but_async():
    sim = Simulator()
    host = make_host(sim)
    execution = host.execute(work=0.0)
    assert not execution.done.triggered  # async delivery
    sim.run()
    assert execution.done.triggered
    assert execution.finished_at == pytest.approx(0.0)


def test_memory_oversubscription_applies_thrash_factor():
    sim = Simulator()
    host = make_host(sim, memory_mb=100, thrash=0.5)
    execution = host.execute(work=10.0, memory_mb=200)
    sim.run()
    assert execution.finished_at == pytest.approx(20.0)


def test_memory_within_budget_no_penalty():
    sim = Simulator()
    host = make_host(sim, memory_mb=100, thrash=0.5)
    execution = host.execute(work=10.0, memory_mb=100)
    sim.run()
    assert execution.finished_at == pytest.approx(10.0)


def test_available_memory_tracks_running_tasks():
    sim = Simulator()
    host = make_host(sim, memory_mb=256)
    assert host.available_memory_mb() == 256
    host.execute(work=100.0, memory_mb=100)
    assert host.available_memory_mb() == 156
    host.execute(work=100.0, memory_mb=300)
    assert host.available_memory_mb() == 0  # clamped at zero


def test_load_average_counts_tasks_and_background():
    sim = Simulator()
    host = make_host(sim)
    host.set_bg_load(0.5)
    host.execute(work=100.0)
    host.execute(work=100.0)
    assert host.load_average() == pytest.approx(2.5)


def test_cancel_fails_the_done_signal():
    sim = Simulator()
    host = make_host(sim)
    execution = host.execute(work=100.0)
    outcome = []

    def waiter():
        try:
            yield execution.done
            outcome.append("completed")
        except Interrupted:
            outcome.append("cancelled")

    sim.process(waiter())
    sim.call_at(5.0, lambda: host.cancel(execution, cause="reschedule"))
    sim.run()
    assert outcome == ["cancelled"]
    assert host.failed_count == 1
    assert host.n_running == 0


def test_cancel_unknown_execution_is_noop():
    sim = Simulator()
    host = make_host(sim)
    e1 = host.execute(work=1.0)
    sim.run()
    host.cancel(e1)  # already finished
    assert host.failed_count == 0


def test_fail_kills_all_running_executions():
    sim = Simulator()
    host = make_host(sim)
    e1 = host.execute(work=100.0)
    e2 = host.execute(work=100.0)
    caught = []

    def waiter(execution):
        try:
            yield execution.done
        except HostDownError as exc:
            caught.append(exc.host_name)

    sim.process(waiter(e1))
    sim.process(waiter(e2))
    sim.call_at(3.0, lambda: host.fail())
    sim.run()
    assert caught == ["h0", "h0"]
    assert host.state is HostState.DOWN


def test_execute_on_down_host_raises():
    sim = Simulator()
    host = make_host(sim)
    host.fail()
    with pytest.raises(HostDownError):
        host.execute(work=1.0)


def test_recover_allows_new_work():
    sim = Simulator()
    host = make_host(sim)
    host.fail()
    host.recover()
    assert host.is_up()
    execution = host.execute(work=2.0)
    sim.run()
    assert execution.done.triggered


@pytest.mark.gate
@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_a_host_refuses_a_non_finite_speed(bad):
    """A host's speed is refused unless finite, at the model's entry point."""
    with pytest.raises(ValueError):
        HostSpec("h", speed=bad)


def test_double_fail_and_double_recover_are_noops():
    sim = Simulator()
    host = make_host(sim)
    host.fail()
    host.fail()
    host.recover()
    host.recover()
    assert host.is_up()


def test_completed_counter():
    sim = Simulator()
    host = make_host(sim)
    for _ in range(3):
        host.execute(work=1.0)
    sim.run()
    assert host.completed_count == 3


def test_negative_work_rejected():
    sim = Simulator()
    host = make_host(sim)
    with pytest.raises(Exception):
        host.execute(work=-1.0)


def test_negative_bg_load_rejected():
    sim = Simulator()
    host = make_host(sim)
    with pytest.raises(Exception):
        host.set_bg_load(-0.1)


def test_hostspec_validation():
    with pytest.raises(ValueError):
        HostSpec(name="bad", speed=0.0)
    with pytest.raises(ValueError):
        HostSpec(name="bad", memory_mb=0)
    with pytest.raises(ValueError):
        HostSpec(name="bad", thrash_factor=0.0)


def test_busy_time_accumulates_only_when_running():
    sim = Simulator()
    host = make_host(sim)
    host.execute(work=5.0)
    sim.run()
    sim.call_at(20.0, lambda: None)
    sim.run()
    assert host.busy_time == pytest.approx(5.0)


# -- the running resident-memory counter against the sums it replaced ---------

def summed_available_memory_mb(host):
    used = sum(e.memory_mb for e in host._running)
    return max(0, host.spec.memory_mb - used)


def summed_per_task_rate(host):
    if host.state is HostState.DOWN or not host._running:
        return 0.0
    rate = host.spec.speed / (host.bg_load + len(host._running))
    used = sum(e.memory_mb for e in host._running)
    if used > host.spec.memory_mb:
        rate *= host.spec.thrash_factor
    if host.slowdown > 1.0:
        rate /= host.slowdown
    return rate


operations = st.lists(
    st.one_of(
        st.tuples(st.just("execute"), st.sampled_from([0.0, 0.5, 2.0, 7.0]),
                  st.integers(0, 200)),
        st.tuples(st.just("cancel"), st.integers(0, 7)),
        st.tuples(st.just("preempt_all")),
        st.tuples(st.just("fail")),
        st.tuples(st.just("recover")),
        st.tuples(st.just("set_bg_load"), st.sampled_from([0.0, 1.0, 2.5])),
        st.tuples(st.just("set_slowdown"), st.sampled_from([1.0, 3.0])),
        # let completions (and their ticks) happen
        st.tuples(st.just("advance"), st.sampled_from([0.0, 0.25, 3.0, 40.0])),
    ),
    max_size=40,
)


@settings(max_examples=150, deadline=None)
@given(ops=operations)
def test_resident_memory_counter_equals_the_sum(ops):
    sim = Simulator()
    host = make_host(sim, speed=2.0, memory_mb=256)
    started = []

    def check():
        assert host._resident_mb == sum(e.memory_mb for e in host._running)
        assert host.available_memory_mb() == summed_available_memory_mb(host)
        assert host.per_task_rate() == summed_per_task_rate(host)

    for op, *args in ops:
        if op == "execute":
            if host.is_up():
                started.append(host.execute(work=args[0], memory_mb=args[1]))
        elif op == "cancel":
            if started:
                host.cancel(started[args[0] % len(started)])
        elif op == "advance":
            sim.run(until=sim.now + args[0])
        else:
            getattr(host, op)(*args)
        check()
    sim.run()
    check()
    assert host._resident_mb == 0 and not host._running
