"""A legitimately large scheduling message is slow, not lost.

The per-attempt deadline of the Fig. 2 exchange is the control plane's
``policy.timeout_s`` *plus* the believed wire time of the request and
the expected reply, and step 5 waits ``_BID_DEADLINE_S`` plus the
largest such estimate — so a WAN on which the round trip outlasts the flat
timeout (or the flat bid deadline) delays the schedule instead of
reading as a partition.
"""

from collections import Counter

import pytest

from repro.runtime.vdce_runtime import _BID_DEADLINE_S
from repro.scheduler import SiteScheduler
from repro.trace.events import EventKind
from repro.trace.tracer import Tracer

from tests.runtime.conftest import build_runtime, chain_afg


@pytest.mark.parametrize("bandwidth_mb_s, outlasts_s", [
    (0.0005, 1.0),  # the flat RetryPolicy.timeout_s
    (0.0001, 6.0),  # the flat bid deadline
])
def test_a_slow_wan_answers_on_the_first_attempt(bandwidth_mb_s, outlasts_s):
    rt = build_runtime(wan_bandwidth_mbps=bandwidth_mb_s, tracer=Tracer())
    assert rt.control.policy.timeout_s == 1.0
    assert _BID_DEADLINE_S == 6.0
    afg = chain_afg(n=3)

    def run():
        return (yield from rt.schedule_process(afg, SiteScheduler(k=1)))

    table, sched_s = rt.sim.run_until_complete(rt.sim.process(run()))
    assert sched_s > outlasts_s
    kinds = Counter(e.kind for e in rt.tracer.events())
    assert kinds[EventKind.AFG_MULTICAST] == kinds[EventKind.BID_REPLY] == 1
    assert not kinds[EventKind.RPC_RETRY]
    assert not kinds[EventKind.RPC_TIMEOUT]
    assert not kinds[EventKind.SITE_UNREACHABLE]
    assert rt.stats.rpc_timeouts == rt.stats.rpc_retries == 0
    assert rt.stats.sites_bid[afg.name] == 2
    # the fast remote hosts were bid and won work
    assert "beta" in table.sites_used()
