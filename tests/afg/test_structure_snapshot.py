"""The AFG's structure snapshot: what it holds, when it is dropped.

``ApplicationFlowGraph.structure()`` derives the topological order, the
de-duplicated parent/child tuples and the reach (ancestor |
descendant) masks once per ``structure_version``.  Two things are held
here: the snapshot equals the straight-line forms it replaced
(``tests/scheduler/_reference.py``) on any DAG, and no reader can see a
snapshot older than the graph — every mutator drops it, a property edit
does not, a failed build is never kept, and nothing carries it across a
copy or a serialisation.
"""

import copy
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.afg import (
    ApplicationFlowGraph,
    TaskNode,
    afg_from_dict,
    afg_to_dict,
)
from repro.afg.levels import compute_levels
from repro.editor import AFGBuilder
from repro.workloads import RandomDAGConfig
from tests.scheduler import _reference
from tests.workloads.fan_in import random_dag_at

dags = st.builds(
    random_dag_at,
    st.builds(
        RandomDAGConfig,
        n_tasks=st.integers(min_value=1, max_value=40),
        width=st.integers(min_value=1, max_value=6),
        seed=st.integers(min_value=0, max_value=10_000),
    ),
    st.integers(min_value=1, max_value=4),
)


def node(task_id, n_in=0, n_out=1):
    return TaskNode(id=task_id, task_type="generic.compute",
                    n_in_ports=n_in, n_out_ports=n_out)


def diamond():
    """a -> (b, c) -> d, with *two* wires a -> b (a multi-edge)."""
    afg = ApplicationFlowGraph("diamond")
    afg.add_task(node("a", n_out=2))
    afg.add_task(node("b", n_in=2))
    afg.add_task(node("c", n_in=1))
    afg.add_task(node("d", n_in=2))
    afg.connect("a", "b", src_port=0, dst_port=0)
    afg.connect("a", "c", src_port=1)
    afg.connect("a", "b", src_port=1, dst_port=1)
    afg.connect("b", "d", dst_port=0)
    afg.connect("c", "d", dst_port=1)
    return afg


def assert_is_the_reference(afg):
    structure = afg.structure()
    assert list(structure.order) == _reference.topological_order(afg)
    assert afg.topological_order() == _reference.topological_order(afg)
    for task in afg:
        assert list(structure.parents[task.id]) == _reference.parents(
            afg, task.id)
        assert list(structure.children[task.id]) == _reference.children(
            afg, task.id)
    assert _reference.reach_sets(structure) == _reference.reachability(afg)
    cost = lambda task_id: float(len(task_id))
    assert compute_levels(afg, cost) == _reference.compute_levels(afg, cost)


@given(dags)
@settings(max_examples=100, deadline=None)
def test_snapshot_is_the_reference_on_random_dags(afg):
    assert_is_the_reference(afg)


def test_multi_edges_are_one_neighbour_in_first_edge_order():
    afg = diamond()
    structure = afg.structure()
    assert structure.children["a"] == ("b", "c")
    assert structure.parents["b"] == ("a",)
    assert structure.parents["d"] == ("b", "c")
    assert _reference.reach_sets(structure)["b"] == {"a", "d"}
    assert_is_the_reference(afg)


def test_two_reads_without_a_mutation_share_one_snapshot():
    afg = diamond()
    first = afg.structure()
    assert afg.structure() is first
    assert first.reach is afg.structure().reach
    # the public accessors hand out fresh lists, never the snapshot's own
    assert afg.topological_order() is not afg.topological_order()
    order = afg.topological_order()
    order.clear()
    assert afg.topological_order() == list(first.order)


def test_every_structural_mutator_drops_the_snapshot():
    afg = diamond()
    mutations = [
        lambda: afg.add_task(node("e", n_in=1)),
        lambda: afg.connect("d", "e"),
        lambda: afg.disconnect("d", "e"),
        lambda: afg.remove_task("e"),
    ]
    for mutate in mutations:
        before, version = afg.structure(), afg.structure_version
        before.reach  # built, so a stale one would be noticed
        mutate()
        assert afg.structure_version == version + 1
        assert afg.structure() is not before
        assert_is_the_reference(afg)


def test_a_property_edit_keeps_the_snapshot():
    afg = diamond()
    before, version = afg.structure(), afg.structure_version
    afg.replace_task(afg.task("b").with_properties(workload_scale=3.0))
    assert afg.structure() is before
    assert afg.structure_version == version
    # levels are not part of the snapshot: they see the new property
    scale = lambda t: afg.task(t).properties.workload_scale
    assert compute_levels(afg, scale)["a"] == 1.0 + 3.0 + 1.0


def test_a_failed_build_is_not_kept():
    afg = ApplicationFlowGraph("cyclic")
    for task_id in ("a", "b"):
        afg.add_task(node(task_id, n_in=1))
    afg.connect("a", "b")
    afg.structure()
    afg.connect("b", "a")
    for _ in range(2):  # raises on every call, not only the first
        with pytest.raises(ValueError, match="cycle"):
            afg.topological_order()
        with pytest.raises(ValueError, match="cycle"):
            afg.structure()
        assert not afg.is_acyclic()
    # adjacency of a graph under construction does not need an order
    assert [e.src for e in afg.in_edges("a")] == ["b"]
    assert [e.dst for e in afg.out_edges("a")] == ["b"]
    afg.disconnect("b", "a")
    assert afg.topological_order() == ["a", "b"]


def test_an_editor_session_never_sees_a_stale_adjacency():
    builder = AFGBuilder("session")
    src = builder.add("generic.source", id="src")
    mid = builder.add("generic.compute", id="mid")
    snk = builder.add("generic.sink", id="snk")
    afg = builder.preview()

    def seen():
        structure = afg.structure()
        return (afg.topological_order(), _reference.parents(afg, snk),
                _reference.children(afg, src), structure.parents[snk],
                _reference.reach_sets(structure)[src])

    assert seen() == ([mid, snk, src], [], [], (), set())
    builder.connect(src, mid)
    builder.connect(mid, snk)
    assert seen() == ([src, mid, snk], [mid], [mid], (mid,), {mid, snk})
    builder.disconnect(mid, snk)
    assert seen() == ([snk, src, mid], [], [mid], (), {mid})
    builder.set_properties(mid, workload_scale=2.0)  # replace_task
    assert seen() == ([snk, src, mid], [], [mid], (), {mid})
    builder.remove(mid)
    assert seen() == ([snk, src], [], [], (), set())
    assert mid not in afg.structure().parents


def test_copies_and_serialisation_carry_no_snapshot():
    afg = diamond()
    afg.structure().reach
    for clone in (copy.deepcopy(afg), pickle.loads(pickle.dumps(afg))):
        assert "_structure" not in vars(clone)
        assert clone.structure() is not afg.structure()
    clone = copy.deepcopy(afg)
    clone.remove_task("d")
    assert "d" not in clone.structure().order
    assert "d" in afg.structure().order  # the original kept its own

    data = afg_to_dict(afg)
    assert sorted(data) == sorted(afg_to_dict(diamond()))  # nothing added
    restored = afg_from_dict(data)
    assert restored._structure is None  # built on first use, not on load
    assert list(restored.structure().order) == list(afg.structure().order)
