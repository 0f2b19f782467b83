"""Property-based tests: runtime protocol accounting invariants."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.scheduler import SiteScheduler
from repro.workloads import RandomDAGConfig

from tests.runtime.conftest import build_runtime
from tests.workloads.fan_in import random_dag_at

small_dags = st.tuples(
    st.builds(
        RandomDAGConfig,
        n_tasks=st.integers(min_value=1, max_value=20),
        width=st.integers(min_value=1, max_value=5),
        mean_cost=st.floats(min_value=0.2, max_value=4.0),
        ccr=st.floats(min_value=0.0, max_value=1.0),
        seed=st.integers(min_value=0, max_value=500),
    ),
    st.integers(min_value=1, max_value=3),
)


@given(small_dags)
@settings(max_examples=40, deadline=None)
def test_protocol_counters_match_graph_structure(dag):
    """Without failures, the Data Manager's message bill is exact:

    * one channel setup + one ack per AFG edge;
    * one startup signal;
    * one data transfer per edge (no file inputs, no re-staging);
    * one task-performance refinement per task.
    """
    rt = build_runtime()
    afg = random_dag_at(*dag)
    table = SiteScheduler(k=1).schedule(afg, rt.federation_view())
    result = rt.sim.run_until_complete(
        rt.execute_process(afg, table, execute_payloads=False)
    )
    n_edges = len(afg.edges)
    assert rt.stats.channel_setups == n_edges
    assert rt.stats.channel_acks == n_edges
    assert rt.stats.startup_signals == 1
    assert rt.stats.data_transfers == n_edges
    assert rt.stats.data_transferred_mb == pytest.approx(
        sum(e.size_mb for e in afg.edges)
    )
    assert rt.stats.taskperf_updates == len(afg)
    assert result.reschedules == 0
    assert rt.stats.reschedule_requests == 0


@given(small_dags)
@settings(max_examples=30, deadline=None)
def test_makespan_bounds(dag):
    """Makespan is bounded below by the slowest single slice and above
    by fully serial execution on the slowest host plus all transfers."""
    rt = build_runtime()
    afg = random_dag_at(*dag)
    table = SiteScheduler(k=1).schedule(afg, rt.federation_view())
    result = rt.sim.run_until_complete(
        rt.execute_process(afg, table, execute_payloads=False)
    )
    speeds = {h.name: h.spec.speed for h in rt.topology.all_hosts}
    # lower bound: each task ran somewhere; the longest (work / its
    # host's speed) is a hard floor
    floor = max(
        afg.task(t).properties.workload_scale / speeds[r.hosts[0]]
        for t, r in result.records.items()
    )
    assert result.makespan >= floor - 1e-9
    # upper bound: all work serial on the slowest host + generous
    # transfer allowance
    slowest = min(speeds.values())
    total_work = sum(t.properties.workload_scale for t in afg)
    transfer_allowance = sum(
        0.2 + e.size_mb / 1.0 for e in afg.edges
    )  # worst link: 2 MB/s WAN with latency, doubled for safety
    ceiling = total_work / slowest + 2 * transfer_allowance + 1.0
    assert result.makespan <= ceiling


@given(small_dags, st.integers(min_value=0, max_value=1))
@settings(max_examples=30, deadline=None)
def test_execution_is_deterministic(dag, k):
    def run():
        rt = build_runtime()
        afg = random_dag_at(*dag)
        table = SiteScheduler(k=k).schedule(afg, rt.federation_view())
        result = rt.sim.run_until_complete(
            rt.execute_process(afg, table, execute_payloads=False)
        )
        return (
            result.makespan,
            tuple(sorted((t, r.hosts) for t, r in result.records.items())),
        )

    assert run() == run()
