"""One round = one snapshot, on indices: the Fig. 2 / Fig. 3 count gate.

A scheduling round is synchronous, so what depends on the AFG's
structure is derived once per ``structure_version``, what depends on
the (site, task type) pair once per round and what depends on the task
once per task — never per (task, site) bid.  Exact counts on the 2 x 4
federation of ``test_prediction_counts.py``, so a change that quietly
re-runs Kahn's algorithm per site (10 passes per k=7
``schedule_process`` before the snapshot), re-derives adjacency per
ready test, re-keys the repositories per bid, keeps reachability as n
sets, or builds a closure per task fails here and not in a bench run:

* Kahn passes per round: exactly one, shared by ``validate_afg``,
  ``compute_levels`` (local and at every remote ``select_hosts``), the
  reach masks and the ready loop;
* adjacency: derived inside that one build, the public
  ``parents()`` / ``children()`` are not called at all;
* bid sheets: one per (participating site, distinct task type) per
  call, and ``HostIndex.version_key`` — two tuples per *bid* before the
  sheet — at most twice per sheet (the row-table key, and the host
  table's on a build);
* reachability: n masks of n bits (n² / 8 bytes), not n sets whose total
  size grows with depth squared;
* scaling: the cost of placing a task does not depend on how many tasks
  the application has (a ratio of two timings taken in one process);
* closures: the per-task functions define no nested function;
* a task's bid is one pass over its bidders (DESIGN §13.12): one
  ``task_bid`` call per placed task, ``task_terms`` once per distinct
  task-performance record among its bidders (not once per site), one
  transfer-estimator look-up per (source site, bidder) pair per round,
  and no host -> load mapping built per task — the kernel reads the
  ledger's own totals.
"""

import statistics
import sys
import time
import types

import pytest

from repro.afg.graph import ApplicationFlowGraph, StructureSnapshot
from repro.repository.host_index import HostIndex
from repro.scheduler import SiteScheduler, host_selection, site_scheduler
from repro.scheduler import federation as federation_view
from repro.scheduler.federation import TransferRow
from repro.scheduler.host_selection import (
    CommitmentLedger,
    bid_for_task,
    select_hosts,
    task_bid,
)
from repro.scheduler.prediction import PredictionModel
from tests.perf.test_prediction_counts import N_SITES, federation, layered_dag


def count_round(n_tasks: int, k: int, monkeypatch):
    """One Fig. 2 round preceded by Fig. 3 at each of the k remote sites,
    all on one AFG object, as ``schedule_process`` runs them.  Returns
    (Kahn passes, public adjacency calls, bid sheets built,
    ``version_key`` calls, distinct task types)."""
    repos, view = federation()
    afg = layered_dag(n_tasks)
    counts = {"kahn": 0, "adjacency": 0, "sheets": 0, "version_key": 0}

    def counting(name, function):
        def counted(*args, **kwargs):
            counts[name] += 1
            return function(*args, **kwargs)
        return counted

    monkeypatch.setattr(StructureSnapshot, "__init__", counting(
        "kahn", StructureSnapshot.__init__))
    for name in ("parents", "children"):
        monkeypatch.setattr(ApplicationFlowGraph, name, counting(
            "adjacency", getattr(ApplicationFlowGraph, name)))
    monkeypatch.setattr(HostIndex, "version_key", counting(
        "version_key", HostIndex.version_key))
    counted_sheet = counting("sheets", host_selection.bid_sheet)
    for module in (host_selection, federation_view):  # bound by name in both
        monkeypatch.setattr(module, "bid_sheet", counted_sheet)

    for site in view.remote_sites(k):
        assert len(select_hosts(afg, repos[site])) == n_tasks
    _table, order = SiteScheduler(k=k).schedule_with_trace(afg, view)
    monkeypatch.undo()

    assert len(order) == n_tasks
    return (counts["kahn"], counts["adjacency"], counts["sheets"],
            counts["version_key"], len({t.task_type for t in afg}))


@pytest.mark.parametrize("n_tasks", [256, 1024])
def test_round_counts_do_not_depend_on_the_number_of_sites(n_tasks, monkeypatch):
    """One Kahn pass and no adjacency call whatever the number of sites;
    per site, work per task *type*, whatever the number of tasks."""
    for k in range(N_SITES):  # local only, then local + one remote
        kahn, adjacency, sheets, version_keys, task_types = count_round(
            n_tasks, k, monkeypatch)
        assert kahn == 1
        assert adjacency == 0
        # k remote Fig. 3 passes of one site, one Fig. 2 pass of k + 1
        assert sheets == (k + k + 1) * task_types
        assert version_keys <= 2 * sheets < n_tasks


def test_reach_masks_of_a_deep_dag_stay_within_n_squared_bits():
    reach = layered_dag(4096).structure().reach
    # 4096 masks of <= 4096 bits: 2 MB and the int headers
    assert sum(sys.getsizeof(mask) for mask in reach.values()) < 3_000_000


def _cpu_seconds_per_task(n_tasks: int) -> float:
    _repos, view = federation()
    afg = layered_dag(n_tasks)  # a fresh graph: the snapshot is in the bill
    started = time.process_time()
    table = SiteScheduler(k=N_SITES - 1).schedule(afg, view)
    elapsed = time.process_time() - started
    assert len(table) == n_tasks
    return elapsed / n_tasks


def test_placement_cost_per_task_is_flat_from_1k_to_4k_tasks():
    """4x the tasks, 256 layers instead of 64: with reachability as sets
    and a per-query intersection the per-task cost is 1.7-1.85x (median
    of seven interleaved pairs, the parent of PR 19); on masks it is 1.05-1.35x,
    what a larger working set costs."""
    ratios = []
    for _ in range(7):
        at_1k = _cpu_seconds_per_task(1024)
        ratios.append(_cpu_seconds_per_task(4096) / at_1k)
    assert statistics.median(ratios) < 1.5


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
        task_bid,
        SiteScheduler._place_task,
        CommitmentLedger.load,
        CommitmentLedger.commit,
    ):
        assert _nested_functions(function) == [], function.__qualname__
    # the check sees one where there is one: the per-round level cost
    assert _nested_functions(SiteScheduler.schedule_with_trace) == ["cost"]


@pytest.mark.gate
@pytest.mark.parametrize("n_tasks", [256, 1024])
def test_a_tasks_bid_is_one_pass_over_its_bidders(n_tasks, monkeypatch):
    """A task's bid is one pass over its bidders: one kernel call per placed
    task, task terms once per distinct record, one transfer estimator per
    (source, bidder) pair and no per-task load mapping."""
    _repos, view = federation()
    afg = layered_dag(n_tasks)
    counts = {"kernel": 0, "terms": 0}
    loads = []

    def counting(name, function):
        def counted(*args, **kwargs):
            counts[name] += 1
            return function(*args, **kwargs)
        return counted

    monkeypatch.setattr(site_scheduler, "task_bid", counting(
        "kernel", task_bid))
    monkeypatch.setattr(PredictionModel, "task_terms", counting(
        "terms", PredictionModel.task_terms))
    pairs = []
    missing = TransferRow.__missing__

    def resolved(row, source):
        pairs.append((source, row._site))
        return missing(row, source)

    monkeypatch.setattr(TransferRow, "__missing__", resolved)
    load = CommitmentLedger.load

    def logged_load(ledger, task_id):
        loaded = load(ledger, task_id)
        loads.append(loaded[0] is ledger._total and loaded[1] is ledger._on)
        return loaded

    monkeypatch.setattr(CommitmentLedger, "load", logged_load)
    table = SiteScheduler(k=N_SITES - 1).schedule(afg, view)
    monkeypatch.undo()

    assert len(table) == n_tasks
    assert counts["kernel"] == n_tasks
    # every site's record of a type is the library's: one distinct
    # record per task, where each of the N_SITES bids used to derive it
    distinct = sum(
        len({view.repository(site).task_perf.get(task.task_type)
             for site in view.participating_sites()})
        for task in afg)
    assert distinct == n_tasks
    assert counts["terms"] == distinct
    # one estimator per (source site, bidder) pair for the whole round
    assert 0 < len(pairs) == len(set(pairs)) <= N_SITES * N_SITES
    # the ledger is read in place: no per-task host -> load mapping
    assert loads == [True] * n_tasks
    assert not hasattr(CommitmentLedger, "extra_load")
