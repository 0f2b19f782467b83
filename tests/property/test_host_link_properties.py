"""Property-based tests: processor-sharing conservation laws."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import Host, HostSpec, LinkSpec, Simulator
from repro.sim.network import Link

works = st.floats(min_value=0.01, max_value=50.0, allow_nan=False)
speeds = st.floats(min_value=0.1, max_value=8.0, allow_nan=False)
arrivals = st.floats(min_value=0.0, max_value=20.0, allow_nan=False)
sizes = st.floats(min_value=0.001, max_value=50.0, allow_nan=False)


@given(st.lists(st.tuples(arrivals, works), min_size=1, max_size=12), speeds)
@settings(max_examples=60, deadline=None)
def test_work_conservation_on_idle_host(jobs, speed):
    """sum(work) == speed x busy_time: processor sharing loses nothing."""
    sim = Simulator()
    host = Host(sim, HostSpec(name="h", speed=speed))
    executions = []

    def submit(work):
        executions.append(host.execute(work=work))

    for arrival, work in jobs:
        sim.call_at(arrival, lambda w=work: submit(w))
    sim.run()
    assert all(e.done.triggered for e in executions)
    total_work = sum(w for _, w in jobs)
    assert host.busy_time * speed == pytest.approx(total_work, rel=1e-6)
    assert host.completed_count == len(jobs)


@given(st.lists(works, min_size=1, max_size=10), speeds)
@settings(max_examples=60, deadline=None)
def test_no_execution_beats_its_solo_time(work_list, speed):
    """Sharing can only slow a task down: elapsed >= work / speed."""
    sim = Simulator()
    host = Host(sim, HostSpec(name="h", speed=speed))
    executions = [host.execute(work=w) for w in work_list]
    sim.run()
    for execution, work in zip(executions, work_list):
        assert execution.elapsed >= work / speed - 1e-9


@given(st.lists(works, min_size=2, max_size=8), speeds)
@settings(max_examples=60, deadline=None)
def test_simultaneous_jobs_finish_in_work_order(work_list, speed):
    """With equal shares, less work always finishes no later."""
    sim = Simulator()
    host = Host(sim, HostSpec(name="h", speed=speed))
    executions = [host.execute(work=w) for w in work_list]
    sim.run()
    pairs = sorted(zip(work_list, executions), key=lambda p: p[0])
    finishes = [e.finished_at for _, e in pairs]
    assert finishes == sorted(finishes)


@given(st.lists(st.tuples(arrivals, sizes), min_size=1, max_size=10),
       st.floats(min_value=0.0, max_value=1.0),
       st.floats(min_value=0.1, max_value=100.0))
@settings(max_examples=60, deadline=None)
def test_transfers_never_beat_analytic_lower_bound(jobs, latency, bandwidth):
    sim = Simulator()
    link = Link(sim, LinkSpec(latency_s=latency, bandwidth_mbps=bandwidth))
    transfers = []  # (transfer, its size)

    for arrival, size in jobs:
        sim.call_at(
            arrival,
            lambda s=size: transfers.append((link.transfer(size_mb=s), s)),
        )
    sim.run()
    assert len(transfers) == len(jobs)
    for transfer, size in transfers:
        assert transfer.done.triggered
        lower = latency + size / bandwidth
        assert transfer.finished_at - transfer.started_at >= lower - 1e-6


@given(st.lists(sizes, min_size=1, max_size=8),
       st.floats(min_value=0.1, max_value=100.0))
@settings(max_examples=60, deadline=None)
def test_link_serves_total_bytes_at_full_rate(size_list, bandwidth):
    """Zero-latency link: last completion == total MB / bandwidth."""
    sim = Simulator()
    link = Link(sim, LinkSpec(latency_s=0.0, bandwidth_mbps=bandwidth))
    transfers = [link.transfer(size_mb=s) for s in size_list]
    sim.run()
    last = max(t.finished_at for t in transfers)
    assert last == pytest.approx(sum(size_list) / bandwidth, rel=1e-6)
