"""An arrival at a fair-share server costs O(1) resident visits.

``FairShareServer._reschedule_completion`` re-times the one completion
entry after every arrival.  It used to take a ``min`` over every
resident job, so r jobs arriving at one instant cost r(r+1)/2 visits —
about 39 400 for the 2 140 re-timings of the ``bag_2k`` benchmark
workload.  The server keeps its least job instead (DESIGN §13.15): a
uniform settle credit cannot reorder the residents, so an arrival
compares the newcomer with the kept job, and only losing that job
forces a rescan.  Counted here by iterating the resident list through
a counting subclass, on any machine.
"""

import pytest

from repro.sim.host import Host, HostSpec
from repro.sim.kernel import Simulator
from repro.sim.network import Link, LinkSpec

pytestmark = pytest.mark.gate


class CountingList(list):
    """A resident list that counts the jobs a pass over it visits."""

    visits = 0

    def __iter__(self):
        for job in super().__iter__():
            self.visits += 1
            yield job


def arrival_visits(kind: str, r: int) -> int:
    """Resident visits while ``r`` jobs of distinct sizes arrive at one
    instant on a fresh server."""
    sim = Simulator()
    if kind == "host":
        server = Host(sim, HostSpec("h"))
        start = lambda size: server.execute(work=size)
    else:
        server = Link(sim, LinkSpec(latency_s=0.0, bandwidth_mbps=1.0))
        start = lambda size: server.transfer(size)
    server._running = CountingList()
    for k in range(r):
        # shrinking sizes: every newcomer undercuts the kept job
        sim.call_at(0.0, lambda k=k: start(float(r - k)))
    sim.run(until=0.0)
    assert len(server._running) == r
    return server._running.visits


@pytest.mark.parametrize("kind", ["host", "link"])
def test_simultaneous_arrivals_cost_linear_visits(kind):
    for r in (64, 256):
        assert arrival_visits(kind, r) <= 2 * r
