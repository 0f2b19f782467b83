"""Property-based tests: scheduler output invariants."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.scheduler import (
    HEFTScheduler,
    MinMinScheduler,
    RandomScheduler,
    SiteScheduler,
    estimate_schedule,
)
from repro.workloads import RandomDAGConfig

from tests.scheduler.conftest import build_federation
from tests.workloads.fan_in import random_dag_at

small_dags = st.tuples(
    st.builds(
        RandomDAGConfig,
        n_tasks=st.integers(min_value=1, max_value=25),
        width=st.integers(min_value=1, max_value=5),
        mean_cost=st.floats(min_value=0.5, max_value=5.0),
        cost_heterogeneity=st.floats(min_value=0.0, max_value=0.8),
        ccr=st.floats(min_value=0.0, max_value=1.0),
        seed=st.integers(min_value=0, max_value=1000),
    ),
    st.integers(min_value=1, max_value=3),
)

scheduler_factories = st.sampled_from([
    lambda: SiteScheduler(k=1),
    lambda: SiteScheduler(k=0),
    lambda: SiteScheduler(k=1, use_level_priority=False),
    lambda: MinMinScheduler(),
    lambda: HEFTScheduler(),
    lambda: RandomScheduler(seed=7),
])


@given(small_dags, scheduler_factories)
@settings(max_examples=50, deadline=None)
def test_every_table_is_complete_and_well_formed(dag, factory):
    _, repos, view = build_federation()
    afg = random_dag_at(*dag)
    table = factory().schedule(afg, view)
    table.validate_against(afg)
    known_hosts = {
        r.name
        for repo in repos.values()
        for r in repo.resources.all_hosts()
    }
    for assignment in table.assignments.values():
        assert assignment.predicted_time >= 0
        assert set(assignment.hosts) <= known_hosts
        # the site recorded must actually own the hosts
        site_repo = repos[assignment.site]
        for host in assignment.hosts:
            assert site_repo.resources.has_host(host)


@given(small_dags)
@settings(max_examples=40, deadline=None)
def test_vdce_schedule_is_deterministic(dag):
    _, _, view = build_federation()
    afg = random_dag_at(*dag)
    t1 = SiteScheduler(k=1).schedule(afg, view).to_dict()
    t2 = SiteScheduler(k=1).schedule(afg, view).to_dict()
    assert t1 == t2


@given(small_dags)
@settings(max_examples=40, deadline=None)
def test_estimate_respects_precedence_and_durations(dag):
    _, _, view = build_federation()
    afg = random_dag_at(*dag)
    table = SiteScheduler(k=1).schedule(afg, view)
    est = estimate_schedule(
        afg, table,
        lambda src, dst, mb: view.site_transfer_time(src.site, dst.site, mb),
    )
    for task_id, assignment in table.assignments.items():
        assert est.finish[task_id] == pytest.approx(
            est.start[task_id] + assignment.predicted_time
        )
    for edge in afg.edges:
        assert est.start[edge.dst] >= est.finish[edge.src] - 1e-9
    assert est.makespan == pytest.approx(max(est.finish.values()))


@given(small_dags)
@settings(max_examples=25, deadline=None)
def test_simulated_execution_respects_precedence(dag):
    """The runtime never starts a task before its parents finished."""
    from tests.runtime.conftest import build_runtime

    rt = build_runtime()
    afg = random_dag_at(*dag)
    table = SiteScheduler(k=1).schedule(afg, rt.federation_view())
    result = rt.sim.run_until_complete(
        rt.execute_process(afg, table, execute_payloads=False)
    )
    for edge in afg.edges:
        parent = result.records[edge.src]
        child = result.records[edge.dst]
        assert child.started_at >= parent.finished_at - 1e-9
    # lower bound: the heaviest single task on the fastest host
    max_speed = max(h.spec.speed for h in rt.topology.all_hosts)
    heaviest = max(t.properties.workload_scale for t in afg)
    assert result.makespan >= heaviest / max_speed - 1e-9
