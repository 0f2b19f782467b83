"""The one fair-share server, driven through both of its subclasses.

``Host`` and ``Link`` are :class:`~repro.sim.fair_share.FairShareServer`
with a rate, a completion threshold and an on-finish hook each; the
settle / re-time / tick bookkeeping is the base class's.  The same
scripted arrivals therefore have to complete at the same instants on
both — the instants processor sharing prescribes, computed here by an
exact fluid calculation that shares no code with the server.
"""

import random
from fractions import Fraction

import pytest

from repro.sim.fair_share import _MIN_RATE, FairShareServer
from repro.sim.host import Host, HostDownError, HostSpec
from repro.sim.kernel import Simulator
from repro.sim.network import Link, LinkDownError, LinkSpec

pytestmark = pytest.mark.gate

CAPACITY = 2.0


def host_server(sim):
    host = Host(sim, HostSpec(name="h", speed=CAPACITY))
    return host, lambda size: host.execute(work=size)


def link_server(sim):
    link = Link(sim, LinkSpec(latency_s=0.0, bandwidth_mbps=CAPACITY))
    return link, lambda size: link.transfer(size)


SERVERS = pytest.mark.parametrize(
    "make", [host_server, link_server], ids=["host", "link"])


def drive(make, arrivals):
    """Start a job of each ``(time, size)``; returns (server, jobs)."""
    sim = Simulator()
    server, start = make(sim)
    jobs = []
    for at, size in arrivals:
        sim.call_at(at, lambda size=size: jobs.append(start(size)))
    sim.run()
    return server, jobs


def processor_sharing(arrivals, capacity):
    """Completion time of each ``(arrival, size)`` job when every
    resident job gets ``capacity / n``: between two events all residents
    drain at the same rate, so the next event is the earlier of the next
    arrival and the smallest residual times n over the capacity."""
    arrivals = [(Fraction(at), Fraction(size)) for at, size in arrivals]
    capacity = Fraction(capacity)
    pending = sorted(range(len(arrivals)), key=lambda i: arrivals[i][0])
    residual, done, now = {}, {}, Fraction(0)
    while pending or residual:
        next_arrival = arrivals[pending[0]][0] if pending else None
        if residual:
            n = len(residual)
            finish = now + min(residual.values()) * n / capacity
            if next_arrival is None or finish <= next_arrival:
                credit = (finish - now) * capacity / n
                now = finish
                for job in list(residual):
                    residual[job] -= credit
                    if residual[job] == 0:
                        del residual[job]
                        done[job] = now
                continue
            credit = (next_arrival - now) * capacity / n
            for job in residual:
                residual[job] -= credit
        now = next_arrival
        job = pending.pop(0)
        residual[job] = arrivals[job][1]
    return [float(done[i]) for i in range(len(arrivals))]


ARRIVALS = [(0.0, 4.0), (1.0, 2.0), (1.0, 6.0), (5.0, 1.0), (20.0, 3.0)]


def test_the_reference_knows_the_textbook_cases():
    assert processor_sharing([(0, 4)], 2) == [2.0]
    # two equal jobs share: both take twice as long
    assert processor_sharing([(0, 4), (0, 4)], 2) == [4.0, 4.0]
    # the short one leaves at 2, the long one has 2 left, alone
    assert processor_sharing([(0, 2), (0, 4)], 2) == [2.0, 3.0]


@SERVERS
def test_completions_are_processor_sharing(make):
    server, jobs = drive(make, ARRIVALS)
    expected = processor_sharing(ARRIVALS, CAPACITY)
    assert [job.finished_at for job in jobs] == pytest.approx(expected)
    assert all(job.done.triggered and not job.done.failed for job in jobs)
    assert server._running == [] and server._completion_call is None
    # resident from 0 until the fourth job leaves, then 20 -> 21.5
    assert server.busy_time == pytest.approx(max(expected[:4]) + 1.5)


def test_host_and_link_complete_at_the_same_floats():
    """One server, two units: not approximately — the same floats."""
    _, executions = drive(host_server, ARRIVALS)
    _, transfers = drive(link_server, ARRIVALS)
    assert [e.finished_at for e in executions] \
        == [t.finished_at for t in transfers]


def test_each_subclass_names_its_completion_threshold():
    """In its own unit; the bookkeeping itself is the base class's
    (``tests/runtime/test_execution_shape.py`` keeps it single)."""
    assert "DONE_BELOW" not in vars(FairShareServer)
    assert vars(Host)["DONE_BELOW"] == 1e-9    # base-processor seconds
    assert vars(Link)["DONE_BELOW"] == 1e-12   # megabytes


@SERVERS
def test_a_tick_is_billed_to_the_subclass_module(make):
    """``bench/layers.py`` bills a calendar callback by
    ``type(callback.__self__).__module__``."""
    sim = Simulator()
    server, start = make(sim)
    start(1.0)
    sim.run(until=0.0)  # a link joins its bandwidth phase at t=0
    owner = server._completion_call.callback.__self__
    assert type(owner).__module__ == type(server).__module__ \
        != FairShareServer.__module__


@SERVERS
def test_failure_mid_flight_fails_every_resident_job(make):
    sim = Simulator()
    server, start = make(sim)
    jobs = [start(4.0), start(8.0)]
    sim.call_at(1.0, server.fail)
    sim.run()
    assert sim.now == 1.0  # no completion tick left behind
    assert server._running == [] and server._completion_call is None
    for job in jobs:
        assert job.done.failed and job.finished_at == 1.0
        assert isinstance(job.done.exception, (HostDownError, LinkDownError))
    # one second at capacity / 2 each was credited before the fall
    assert jobs[0].remaining == pytest.approx(3.0)
    assert jobs[1].remaining == pytest.approx(7.0)
    # back up, the server starts from a clean settle point
    server.recover()
    again = start(2.0)
    sim.run()
    assert again.finished_at == pytest.approx(1.0 + 2.0 / CAPACITY)


@SERVERS
def test_zero_size_jobs_complete_at_once_and_disturb_nobody(make):
    arrivals = [(0.0, 4.0), (1.0, 0.0), (1.0, 0.0)]
    server, (big, *empties) = drive(make, arrivals)
    assert big.finished_at == pytest.approx(4.0 / CAPACITY)
    for job in empties:
        assert job.done.triggered and not job.done.failed
        assert job.finished_at == 1.0


# -- the kept least job against the full rescan it replaced -------------------

def rescan_reschedule_completion(self):
    """``FairShareServer._reschedule_completion`` as it was before the
    server kept its least job: a ``min`` over every resident job."""
    if self._completion_call is not None:
        self._completion_call.cancelled = True
        self._completion_call = None
    if not self._running:
        return
    rate = self._rate()
    if rate <= _MIN_RATE:
        return  # stalled: no progress until conditions change
    soonest = min(job.remaining for job in self._running)
    self._completion_call = self.sim.call_after(soonest / rate, self._tick)


def recording(cls, oracle):
    """``cls`` whose every re-timing is logged as ``(now, entry time)``;
    the oracle re-times by rescanning, the other checks its kept job."""
    class Recording(cls):
        def _reschedule_completion(self):
            if oracle:
                rescan_reschedule_completion(self)
            else:
                super()._reschedule_completion()
                if self._running:
                    assert any(j is self._least for j in self._running)
                    assert self._least.remaining == min(
                        j.remaining for j in self._running)
                else:
                    assert self._least is None
            call = self._completion_call
            self.log.append((self.sim.now, call and call[0]))
    return Recording


def scripted_pair(kind, seed):
    """The kept-least server and its rescanning oracle, side by side in
    one simulator, driven by one seeded script; returns both logs and
    both job lists."""
    rng = random.Random(seed)
    sim = Simulator()
    if kind == "host":
        pair = [recording(Host, oracle)(sim, HostSpec("h", speed=CAPACITY))
                for oracle in (False, True)]
        start = lambda server, size: server.execute(work=size)
    else:
        spec = LinkSpec(latency_s=0.0, bandwidth_mbps=CAPACITY)
        pair = [recording(Link, oracle)(sim, spec) for oracle in (False, True)]
        start = lambda server, size: server.transfer(size)
    jobs = ([], [])
    for server in pair:
        server.log = []

    def act(what, arg):
        for server, started in zip(pair, jobs):
            if what == "start":
                if kind == "link" or server.is_up():
                    started.append(start(server, arg))
            elif what == "cancel":
                if kind == "host" and started:
                    server.cancel(started[arg % len(started)], "script")
            elif what == "load" and kind == "host":
                server.set_bg_load(arg)
            elif what == "slow" and kind == "host":
                server.set_slowdown(arg)
            elif what in ("fail", "recover"):
                getattr(server, what)()

    for _ in range(200):
        # a coarse grid of instants: many actions land together
        at = rng.randrange(80) * 0.25
        what = rng.choices(["start", "cancel", "load", "slow", "fail",
                            "recover"], weights=[12, 2, 2, 2, 1, 3])[0]
        arg = {"start": rng.choice([0.0, 0.5, 1.0, 1.0, rng.uniform(0, 3)]),
               "cancel": rng.randrange(1000),
               "load": rng.choice([0.0, 0.5, 2.0]),
               "slow": rng.choice([1.0, 1.5, 4.0]),
               }.get(what)
        sim.call_at(at, lambda what=what, arg=arg: act(what, arg))
    # bounded: a server that loses track of its jobs may tick forever
    sim.run(stop_when=lambda: sim.events_processed > 10_000)
    return pair, jobs


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("kind", ["host", "link"])
def test_the_kept_least_job_retimes_like_a_full_rescan(kind, seed):
    (kept, rescanned), (jobs, oracle_jobs) = scripted_pair(kind, seed)
    completed = [j for j in jobs if j.done.triggered and not j.done.failed]
    assert len(kept.log) > 60 and len(completed) > 10
    assert kept.log == rescanned.log
    assert [j.finished_at for j in jobs] == [j.finished_at for j in oracle_jobs]
    assert [j.done.failed for j in jobs] == [j.done.failed for j in oracle_jobs]
