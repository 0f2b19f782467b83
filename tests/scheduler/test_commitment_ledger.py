"""CommitmentLedger and the heap ready queue against their rescans.

The site scheduler asks two questions per placed task that have an
obvious O(n) answer: "how many commitments on host R can run
concurrently with this task?" (rescan every commitment on R) and "which
ready task goes next?" (``max`` over the ready set by ``(level, id)``).
``src/`` answers both incrementally — the ledger's per-host totals minus
a per-task related overlay, a heap on ``(-level, _MaxStr(id))`` — and on
any DAG, any commit sequence, the answers must be the rescans'.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.afg.levels import compute_levels
from repro.scheduler import SiteScheduler
from repro.scheduler.host_selection import CommitmentLedger, _reachability
from repro.workloads import RandomDAGConfig, random_dag
from tests.scheduler._reference import rescan_extra_load
from tests.scheduler.conftest import build_federation

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


@given(dags, st.data())
@settings(max_examples=150, deadline=None)
def test_extra_load_is_the_rescan(afg, data):
    related = _reachability(afg)
    tasks = sorted(related)
    ledger = CommitmentLedger(related)
    committed = {}
    # any order, not only a schedulable one: the ledger's argument needs
    # symmetry of `related` and duplicate-free host groups, nothing else
    for task_id in data.draw(st.permutations(tasks)):
        query = data.draw(st.sampled_from(tasks))
        load = data.draw(st.floats(min_value=0.0, max_value=8.0))
        fast = ledger.extra_load_fn(query)
        rescan = rescan_extra_load(committed, related, query)
        for host in HOSTS:
            assert fast(host) == rescan(host)
            # the fast path may hand out an int; what the kernel does
            # with it is add it to a float, and that must be one float
            assert load + fast(host) == load + rescan(host)
        group = data.draw(
            st.lists(st.sampled_from(HOSTS), min_size=1, max_size=3,
                     unique=True))
        ledger.commit(task_id, tuple(group))
        for host in group:
            committed.setdefault(host, []).append(task_id)


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
