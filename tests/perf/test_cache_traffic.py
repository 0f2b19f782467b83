"""Read-path traffic: how often ``HostIndex.rows`` is asked, builds, hits.

``HostIndex.rows`` is the repository's one cache (DESIGN §13.10).  The
three levels it replaced were written for a scheduler that asked per
(task, host) and kept after the scheduler started asking once per
(site, task type) — on the committed bench workloads two of them hit 0
times.  This gate keeps the traffic on record, machine-independently,
so the next cache level is added against numbers:

* a round on a fresh federation asks once per (site asked, task type)
  and every ask builds — the cache cannot help there;
* a campaign, where many small applications are scheduled between
  repository writes, is where hits come from — and every call is
  either a build or a hit, nothing else.
"""

import pytest

from repro.repository.host_index import HostIndex
from repro.sim.chaos import run_campaign, smoke_config
from tests.perf.test_events_per_task import run_bag

pytestmark = pytest.mark.gate


@pytest.fixture
def traffic(monkeypatch):
    """Counts of ``rows`` calls, tables built and calls answered with a
    table handed out before (a hit), over every index in the process."""
    counts = {"calls": 0, "builds": 0, "hits": 0}
    handed_out = {}  # id -> table, kept alive so an id is never reused
    original = HostIndex.rows

    def rows(self, task_type, model):
        before = self.builds
        table = original(self, task_type, model)
        counts["calls"] += 1
        counts["builds"] += self.builds - before
        if id(table) in handed_out:
            counts["hits"] += 1
        else:
            handed_out[id(table)] = table
        return table

    monkeypatch.setattr(HostIndex, "rows", rows)
    return counts


def test_a_fresh_federation_round_builds_every_table_it_asks_for(traffic):
    run_bag(64)  # 2 sites, one task type, one round
    # the local site sizes the expected reply from its own sheet, the
    # remote site answers, and the local pass reads its repository again
    # after the exchange — monitor reports have re-keyed it by then
    assert traffic == {"calls": 3, "builds": 3, "hits": 0}


def test_a_campaign_call_is_a_build_or_a_hit(traffic):
    report = run_campaign(smoke_config(seed=0))
    assert report.ok
    assert traffic["calls"] == traffic["builds"] + traffic["hits"]
    # applications of a campaign share repositories: between two writes
    # a second ask for the same (site, task type) is served from the table
    assert 0 < traffic["hits"] < traffic["calls"]
