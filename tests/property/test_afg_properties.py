"""Property-based tests: AFG structure, levels and serialisation."""

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.afg import (
    afg_from_dict,
    afg_from_json,
    afg_to_dict,
    afg_to_json,
    compute_levels,
    priority_order,
    validate_afg,
)
from repro.workloads import RandomDAGConfig

from tests.workloads.fan_in import random_dag_at

dag_configs = st.tuples(
    st.builds(
        RandomDAGConfig,
        n_tasks=st.integers(min_value=1, max_value=40),
        width=st.integers(min_value=1, max_value=6),
        mean_cost=st.floats(min_value=0.1, max_value=10.0),
        cost_heterogeneity=st.floats(min_value=0.0, max_value=0.9),
        ccr=st.floats(min_value=0.0, max_value=2.0),
        seed=st.integers(min_value=0, max_value=10_000),
    ),
    st.integers(min_value=1, max_value=4),
)


@given(dag_configs)
@settings(max_examples=60, deadline=None)
def test_random_dags_are_structurally_valid(dag):
    from repro.tasklib import default_registry

    afg = random_dag_at(*dag)
    assert len(afg) == dag[0].n_tasks
    assert validate_afg(afg, registry=default_registry()) == []
    assert afg.is_acyclic()
    # every non-entry task has all input ports fed
    for task in afg:
        fed = {e.dst_port for e in afg.in_edges(task.id)}
        assert fed == set(range(task.n_in_ports))


@given(dag_configs)
@settings(max_examples=60, deadline=None)
def test_serialisation_roundtrip_is_exact(dag):
    afg = random_dag_at(*dag)
    assert afg_to_dict(afg_from_dict(afg_to_dict(afg))) == afg_to_dict(afg)
    assert afg_to_dict(afg_from_json(afg_to_json(afg))) == afg_to_dict(afg)


@given(dag_configs)
@settings(max_examples=40, deadline=None)
def test_levels_match_networkx_longest_path(dag):
    """Level(t) == longest node-weighted path from t to any exit."""
    afg = random_dag_at(*dag)

    def cost(task_id):
        return afg.task(task_id).properties.workload_scale

    levels = compute_levels(afg, cost)

    g = afg.to_networkx()
    # longest path ending computation via reverse topological DP
    expected = {}
    for task_id in reversed(list(nx.topological_sort(g))):
        best_child = max(
            (expected[c] for c in g.successors(task_id)), default=0.0
        )
        expected[task_id] = cost(task_id) + best_child
    for task_id in levels:
        assert levels[task_id] == pytest.approx(expected[task_id])


@given(dag_configs)
@settings(max_examples=40, deadline=None)
def test_priority_order_is_topologically_safe_for_chains(dag):
    """A parent's level is strictly above any descendant's (positive costs),
    so the priority order never schedules a descendant before an ancestor."""
    afg = random_dag_at(*dag)
    order = priority_order(afg, lambda t: afg.task(t).properties.workload_scale)
    position = {t: i for i, t in enumerate(order)}
    for edge in afg.edges:
        assert position[edge.src] < position[edge.dst]


@given(dag_configs)
@settings(max_examples=40, deadline=None)
def test_topological_order_respects_all_edges(dag):
    afg = random_dag_at(*dag)
    order = afg.topological_order()
    position = {t: i for i, t in enumerate(order)}
    for edge in afg.edges:
        assert position[edge.src] < position[edge.dst]
