"""CommitmentLedger, the rank-heap ready queue and the per-site bid memo
against their rescans.

The site scheduler asks two questions per placed task that have an
obvious O(n) answer: "how many commitments on host R can run
concurrently with this task?" (rescan every commitment on R) and "which
ready task goes next?" (``max`` over the ready set by ``(level, id)``).
``src/`` answers both incrementally — the ledger's per-host totals less
the popcount of the task's reach mask on the host's placed mask, read in
place by the kernel (``CommitmentLedger.load``; ``_reference.extra_load``
is the host -> count mapping it used to be handed); a heap of integer ranks,
each task's position in one descending sort of ``(level, id)`` — and on
any DAG, any commit sequence, the answers must be the rescans' and the
set-form ledger's (``_reference.SetLedger`` on
``_reference.related_sets``, the bodies the masks replaced).  The
remaining tests hold whole rounds (``select_hosts`` on any queue order,
Fig. 2 under both ablations, on DAGs and on bags whose identical tasks
a site answers from its memo) to the straight-line forms in
``_reference.py``, which bid every task at every site.
"""

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.afg import ComputationMode
from repro.afg.levels import compute_levels
from repro.scheduler import (
    PredictionModel,
    SchedulingError,
    SiteScheduler,
    site_scheduler,
)
from repro.scheduler.host_selection import CommitmentLedger, select_hosts
from repro.sim.host import HostSpec
from repro.tasklib.base import ParallelModel
from repro.workloads import (
    RandomDAGConfig,
    bag_of_tasks,
    figure1_afg,
    linear_solver_afg,
    random_dag,
    surveillance_afg,
)
from tests.scheduler import _reference
from tests.scheduler.conftest import build_federation, log_site_bids

HOSTS = tuple(f"h{i}" for i in range(5))

dags = st.builds(
    RandomDAGConfig,
    n_tasks=st.integers(min_value=1, max_value=24),
    width=st.integers(min_value=1, max_value=6),
    max_fan_in=st.integers(min_value=1, max_value=3),
    # 0 = every task costs the same: levels tie, the id breaks them
    cost_heterogeneity=st.sampled_from((0.0, 0.5)),
    seed=st.integers(min_value=0, max_value=10_000),
).map(random_dag)


def with_parallel_tasks(afg, parallel):
    """Make every ``parallel``-th interior task a 2-node parallel one, so
    a round commits host *groups* (edges and structure unchanged)."""
    if parallel:
        interior = [t for t in afg if t.n_in_ports]
        for node in interior[::parallel]:
            afg.replace_task(node.with_properties(
                mode=ComputationMode.PARALLEL, n_nodes=2))
    return afg


@given(dags, st.data())
@settings(max_examples=150, deadline=None)
def test_extra_load_is_the_rescan(afg, data):
    structure = afg.structure()
    related = _reference.related_sets(structure)
    assert _reference.reach_sets(structure) == related
    assert related == _reference.reachability(afg)
    tasks = sorted(related)
    ledger = CommitmentLedger(structure)
    sets = _reference.SetLedger(related)
    closures = _reference.ClosureLedger(related)
    committed = {}
    # any order, not only a schedulable one (a descendant may be placed
    # before its ancestor): the ledger's argument needs symmetry of
    # relatedness and duplicate-free host groups, nothing else
    for task_id in data.draw(st.permutations(tasks)):
        query = data.draw(st.sampled_from(tasks))
        load = data.draw(st.floats(min_value=0.0, max_value=8.0))
        fast = _reference.extra_load(ledger, query)
        slow = sets.extra_load(query)
        closure = closures.extra_load_fn(query)
        rescan = _reference.rescan_extra_load(committed, related, query)
        # same keys in the same order, same ints; and the totals object
        # itself exactly when nothing placed is ordered with the task
        assert list(fast.items()) == list(slow.items())
        assert (fast is ledger._total) == (slow is sets._total)
        assert (not ledger.load(query)[2]) == (slow is sets._total)
        for host in HOSTS:
            assert fast.get(host, 0) == rescan(host) == closure(host)
            assert fast.get(host, 0) >= 0
            # the mapping hands out ints; what the kernel does with one
            # is add it to a float, and that must be one float
            assert load + fast.get(host, 0) == load + rescan(host)
        group = data.draw(
            st.lists(st.sampled_from(HOSTS), min_size=1, max_size=3,
                     unique=True))
        ledger.commit(task_id, tuple(group))
        sets.commit(task_id, tuple(group))
        closures.commit(task_id, tuple(group))
        for host in group:
            committed.setdefault(host, []).append(task_id)


def test_a_task_committed_twice_is_refused():
    """A second ``commit`` used to add to the totals again while the
    placement was overwritten, and surfaced — if at all — as a negative
    ``extra_load`` inside some later, unrelated bid."""
    afg = random_dag(RandomDAGConfig(n_tasks=6, width=2, seed=3))
    first, second = afg.structure().order[:2]
    ledger = CommitmentLedger(afg.structure())
    ledger.commit(first, ("h0",))
    with pytest.raises(ValueError, match=f"task {first!r} committed twice"):
        ledger.commit(first, ("h1",))
    # the refused commit left no mark
    ledger.commit(second, ("h1",))
    assert dict(ledger._total) == {"h0": 1, "h1": 1}


@given(dags, st.booleans())
@settings(max_examples=60, deadline=None)
def test_every_placement_is_the_max_of_the_ready_set(afg, account):
    _topo, repos, view = build_federation()
    scheduler = SiteScheduler(k=1, account_commitments=account)
    _table, placement_order = scheduler.schedule_with_trace(afg, view)

    perf = repos["alpha"].task_perf
    levels = compute_levels(afg, lambda t: perf.base_cost(
        afg.task(t).task_type, afg.task(t).properties.workload_scale))
    ready = set(afg.entry_tasks())
    scheduled = set()
    for task_id in placement_order:
        assert task_id == max(ready, key=lambda t: (levels[t], t))
        ready.remove(task_id)
        scheduled.add(task_id)
        ready.update(
            child for child in afg.children(task_id)
            if all(parent in scheduled for parent in afg.parents(child)))
    assert not ready and len(scheduled) == len(afg)


@given(dags, st.integers(min_value=0, max_value=3), st.data())
@settings(max_examples=60, deadline=None)
def test_select_hosts_on_any_queue_order_is_the_reference(afg, parallel, data):
    """``order=`` need not be topological — level ties at zero cost put a
    descendant ahead of its ancestor — and parallel tasks commit host
    groups; every bid must still be the rescan's."""
    afg = with_parallel_tasks(afg, parallel)
    _topo, repos, _view = build_federation()
    order = data.draw(st.permutations(sorted(t.id for t in afg)))
    model = PredictionModel()
    bids = select_hosts(afg, repos["alpha"], model, order=list(order))
    assert bids == _reference.select_hosts(afg, repos["alpha"], model,
                                           list(order))
    assert list(bids) == [t for t in order if t in bids]


def _assert_round_is_the_reference(afg, view, k=1, health=None, **ablation):
    """``health`` (host -> factor, absent = quarantined) becomes a hook
    for each side that logs what it is asked: ``factor_of`` releases
    quarantines when asked, so the round must ask what the reference
    asks, in the same order."""
    asked = ([], [])
    hooks = (None, None) if health is None else [
        lambda host, log=log: log.append(host) or health.get(host)
        for log in asked
    ]
    scheduler = SiteScheduler(k=k, **ablation)
    try:
        ref_table, ref_order = _reference.schedule_with_trace(
            scheduler, afg, view, hooks[1])
    except SchedulingError as exc:  # then the round fails the same way
        with pytest.raises(SchedulingError) as raised:
            scheduler.schedule_with_trace(afg, view, health_of=hooks[0])
        assert str(raised.value) == str(exc)
        assert asked[0] == asked[1]
        return None, None
    table, order = scheduler.schedule_with_trace(
        afg, view, health_of=hooks[0])
    assert order == ref_order
    # Fig. 2 site choice and Fig. 3 argmin, every float by ==
    assert table.to_dict() == ref_table.to_dict()
    assert asked[0] == asked[1]
    return table, order


@given(dags, st.integers(min_value=0, max_value=3), st.booleans(),
       st.booleans())
@settings(max_examples=60, deadline=None)
def test_fig2_round_is_the_reference(afg, parallel, by_level, account):
    _topo, _repos, view = build_federation()
    _assert_round_is_the_reference(
        with_parallel_tasks(afg, parallel), view,
        use_level_priority=by_level, account_commitments=account)


def test_fig2_round_is_the_reference_on_the_paper_applications():
    """File inputs (staged from the submitting site), parallel tasks and
    multi-port fan-in, as the shipped applications combine them."""
    _topo, _repos, view = build_federation()
    for afg in (figure1_afg(), linear_solver_afg(), surveillance_afg()):
        for by_level in (True, False):
            _assert_round_is_the_reference(
                afg, view, use_level_priority=by_level)


# -- bags: where a site answers an identical task from its memo ---------------

#: three sites of three hosts, a different speed at each site: one
#: 128 MB host per site for ``memory_mb`` to overflow and one x86/linux
#: host per site for ``preferred_machine_type`` to select (``alpha``,
#: the submitting site, takes part at every k)
BAG_SITES = {
    site: [
        HostSpec(f"{site}-h0", 1.0 + s, 256),
        HostSpec(f"{site}-h1", 2.0, 128),
        HostSpec(f"{site}-h2", 1.5, 256, arch="x86", os="linux"),
    ]
    for s, site in enumerate(("alpha", "beta", "gamma"))
}
#: host health: one penalised host, one quarantined (absent -> None)
HEALTH = {spec.name: 1.0 for specs in BAG_SITES.values() for spec in specs}
HEALTH["beta-h0"] = 1.5
del HEALTH["gamma-h2"]
BAG_TYPES = ("generic.source", "generic.compute", "generic.merge")
#: what a bag task may ask for besides its type; the parallel entry
#: applies to the parallelizable types only
VARIANTS = (
    {}, {}, {},
    {"preferred_machine_type": "x86 linux"},
    {"preferred_machine": "alpha-h1"},  # the other sites decline
    {"memory_mb": 192},
    {"mode": ComputationMode.PARALLEL, "n_nodes": 2},
)


@st.composite
def bags(draw):
    afg = bag_of_tasks(
        n=draw(st.integers(min_value=1, max_value=16)), cost=2.0,
        heterogeneity=draw(st.sampled_from((0.0, 0.5))),
        seed=draw(st.integers(min_value=0, max_value=10_000)))
    types = BAG_TYPES[:draw(st.integers(min_value=1, max_value=3))]
    for node in list(afg):
        task_type = draw(st.sampled_from(types))
        changes = draw(st.sampled_from(VARIANTS))
        if task_type == "generic.source" and "n_nodes" in changes:
            changes = {}
        afg.replace_task(
            replace(node, task_type=task_type).with_properties(**changes))
    return afg


@given(bags(), st.sampled_from((1, 2)), st.booleans(), st.booleans(),
       st.booleans())
@settings(max_examples=80, deadline=None)
def test_fig2_round_on_a_bag_is_the_reference(afg, k, by_level, account,
                                              health):
    _topo, _repos, view = build_federation(site_hosts=BAG_SITES)
    _assert_round_is_the_reference(
        afg, view, k=k, health=HEALTH if health else None,
        use_level_priority=by_level, account_commitments=account)


# -- per-site records: what a task shares across its bidders ----------------

#: how a site's record of a type differs from the library's: computation
#: size factor, required memory, parallel overhead.  The first keeps it
#: equal to the library's (one object across such sites, one task-terms
#: computation); each other one gives the site terms of its own
RECORD_CHANGES = ((1.0, None, None), (1.5, None, None), (1.0, 200, None),
                  (1.0, None, 0.3))


def own_records(repos, changes, dropped=None):
    """Re-record every ``BAG_TYPES`` type at the i-th site with
    ``changes[i]``, and drop type ``dropped`` from ``alpha``, the
    submitting site (the DB has no re-registration API, so the records
    are swapped in place and the version bumped, as a registration
    would)."""
    for (site, repo), (factor, memory, overhead) in zip(repos.items(),
                                                        changes):
        db = repo.task_perf
        for task_type in BAG_TYPES:
            record = db.get(task_type)
            db._records[task_type] = replace(
                record, computation_size=record.computation_size * factor,
                required_memory_mb=(record.required_memory_mb
                                    if memory is None else memory),
                parallel=(record.parallel
                          if overhead is None or record.parallel is None
                          else ParallelModel(overhead=overhead)))
        if site == "alpha" and dropped is not None:
            del db._records[dropped]
        db.version += 1


@st.composite
def typed_dags(draw):
    """A random DAG whose tasks draw a type and a variant as bag tasks
    do: preferred machine or machine type, over-asked memory, 2 nodes."""
    afg = draw(dags)
    for node in list(afg):
        task_type = draw(st.sampled_from(BAG_TYPES))
        changes = draw(st.sampled_from(VARIANTS))
        if task_type == "generic.source" and "n_nodes" in changes:
            changes = {}
        afg.replace_task(
            replace(node, task_type=task_type).with_properties(**changes))
    return afg


records = st.lists(st.sampled_from(RECORD_CHANGES), min_size=3, max_size=3)


@given(typed_dags(), records, st.sampled_from((None,) + BAG_TYPES),
       st.sampled_from((1, 2)), st.booleans(), st.booleans(), st.booleans())
@settings(max_examples=80, deadline=None)
def test_fig2_round_with_per_site_records_is_the_reference(
        afg, changes, dropped, k, by_level, account, health):
    """Bidders whose records differ per site (sharing task terms across
    them by mistake fails here), the submitting site lacking a type
    (its level cost comes from the first bidder knowing it), every task
    variant, the health hook on and off, both ablations."""
    _topo, repos, view = build_federation(site_hosts=BAG_SITES)
    own_records(repos, changes, dropped)
    _assert_round_is_the_reference(
        afg, view, k=k, health=HEALTH if health else None,
        use_level_priority=by_level, account_commitments=account)


@given(typed_dags(), records, st.booleans())
@settings(max_examples=60, deadline=None)
def test_select_hosts_descendants_first_is_the_reference(afg, changes, health):
    """Fig. 3 at one site on a FIFO queue that commits every descendant
    before its ancestors, on the same task variants and own records,
    the health hook asked exactly what the reference asks."""
    _topo, repos, _view = build_federation(site_hosts=BAG_SITES)
    own_records(repos, changes)
    order = list(reversed(afg.structure().order))
    asked = ([], [])
    hooks = [None, None] if not health else [
        lambda host, log=log: log.append(host) or HEALTH.get(host)
        for log in asked
    ]
    model = PredictionModel()
    bids = select_hosts(afg, repos["beta"], model, order=order,
                        health_of=hooks[0])
    assert bids == _reference.select_hosts(afg, repos["beta"], model, order,
                                           hooks[1])
    assert asked[0] == asked[1]
    assert list(bids) == [t for t in order if t in bids]


def test_a_commit_invalidates_its_sites_bids_and_no_others(monkeypatch):
    """Six identical tasks at k = 2: the first is bid at all three
    sites; each later one at the site the previous placement committed
    to only — the other two answer from their memo — and the round is
    still the reference's."""
    _topo, _repos, view = build_federation(site_hosts=BAG_SITES)
    log = log_site_bids(monkeypatch)
    kernel = site_scheduler.task_bid

    def logged(task, *args):
        log.append((task.id,))  # the kernel call, then its sites' bids
        return kernel(task, *args)

    monkeypatch.setattr(site_scheduler, "task_bid", logged)
    table, order = _assert_round_is_the_reference(bag_of_tasks(n=6), view,
                                                  k=2)
    bid_at = []
    for entry in log:
        if isinstance(entry, tuple):
            (task_id,) = entry
        else:
            bid_at.append((task_id, entry))
    assert len(table.sites_used()) == 3
    expected = [(order[0], site) for site in BAG_SITES]
    expected += [(task, table.site_of(before))
                 for before, task in zip(order, order[1:])]
    assert bid_at == expected
