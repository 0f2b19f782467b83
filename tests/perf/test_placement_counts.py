"""One round = one snapshot: the Fig. 2 / Fig. 3 pass count gate.

A scheduling round is synchronous, so what depends on the AFG's
structure is derived once per ``structure_version`` and what depends on
the task is derived once per task — never per (task, site) bid.  Exact
counts on the 2 x 4 federation of ``test_prediction_counts.py``, the
same whatever the number of participating sites, so a change that
quietly re-runs Kahn's algorithm per site (10 passes per k=7
``schedule_process`` before the snapshot), re-derives adjacency per
ready test, walks the whole related set per task, or builds a closure
per task fails here and not in a bench run:

* Kahn passes per round: exactly one, shared by ``validate_afg``,
  ``compute_levels`` (local and at every remote ``select_hosts``), the
  reachability sets and the ready loop;
* adjacency: derived inside that one build, the public
  ``parents()`` / ``children()`` are not called at all;
* ledger visits: Σ |related ∩ placed| over the placement order, not
  Σ |related|;
* closures: the per-task functions define no nested function.
"""

import types

import pytest

from repro.afg.graph import ApplicationFlowGraph, StructureSnapshot
from repro.scheduler import SiteScheduler
from repro.scheduler.host_selection import (
    CommitmentLedger,
    bid_for_task,
    select_hosts,
)
from tests.perf.test_prediction_counts import N_SITES, federation, layered_dag


class CountingDict(dict):
    """A ledger's ``_placed_on`` that counts element reads."""

    reads = 0

    def __getitem__(self, key):
        self.reads += 1
        return dict.__getitem__(self, key)

    def get(self, key, default=None):
        self.reads += 1
        return dict.get(self, key, default)


def count_round(n_tasks: int, k: int, monkeypatch):
    """One Fig. 2 round preceded by Fig. 3 at each of the k remote sites,
    all on one AFG object, as ``schedule_process`` runs them.  Returns
    (Kahn passes, public adjacency calls, ledger visits, expected
    ledger visits)."""
    repos, view = federation()
    afg = layered_dag(n_tasks)
    counts = {"kahn": 0, "adjacency": 0}

    build = StructureSnapshot.__init__

    def counted_build(self, graph):
        counts["kahn"] += 1
        build(self, graph)

    monkeypatch.setattr(StructureSnapshot, "__init__", counted_build)
    for name in ("parents", "children"):
        public = getattr(ApplicationFlowGraph, name)

        def counted(self, task_id, _public=public):
            counts["adjacency"] += 1
            return _public(self, task_id)

        monkeypatch.setattr(ApplicationFlowGraph, name, counted)

    ledgers = []
    init = CommitmentLedger.__init__

    def counted_init(self, related):
        init(self, related)
        self._placed_on = CountingDict()
        ledgers.append(self)

    monkeypatch.setattr(CommitmentLedger, "__init__", counted_init)

    for site in view.remote_sites(k):
        assert len(select_hosts(afg, repos[site])) == n_tasks
    _table, order = SiteScheduler(k=k).schedule_with_trace(afg, view)
    monkeypatch.undo()

    assert len(order) == n_tasks and len(ledgers) == k + 1
    visits = ledgers[-1]._placed_on.reads  # the Fig. 2 round's ledger
    related = afg.structure().related
    placed, expected = set(), 0
    for task_id in order:
        expected += len(related[task_id] & placed)
        placed.add(task_id)
    # each ordered pair is met once, by whichever of the two comes second
    assert 2 * expected == sum(len(r) for r in related.values())
    return counts["kahn"], counts["adjacency"], visits, expected


@pytest.mark.parametrize("n_tasks", [256, 1024])
def test_round_counts_do_not_depend_on_the_number_of_sites(n_tasks, monkeypatch):
    seen = set()
    for k in range(N_SITES):  # local only, then local + one remote
        kahn, adjacency, visits, expected = count_round(n_tasks, k, monkeypatch)
        assert kahn == 1
        assert adjacency == 0
        # single-host commitments: one read per related placed task
        assert visits == expected
        seen.add((kahn, adjacency, visits))
    assert len(seen) == 1


def _nested_functions(function):
    """Names of the functions ``function`` would create when it runs
    (comprehensions are not functions from 3.12 on, and close over
    nothing that outlives them before)."""
    return [
        const.co_name
        for const in function.__code__.co_consts
        if isinstance(const, types.CodeType)
        and (const.co_name == "<lambda>" or not const.co_name.startswith("<"))
    ]


def test_per_task_functions_create_no_closure():
    for function in (
        bid_for_task,
        SiteScheduler._place_task,
        CommitmentLedger.extra_load,
        CommitmentLedger.commit,
    ):
        assert _nested_functions(function) == [], function.__qualname__
    # the check sees one where there is one: the per-round level cost
    assert _nested_functions(SiteScheduler.schedule_with_trace) == ["cost"]
