"""Tests for level computation, validation and serialisation."""

import json

import pytest

from repro.afg import (
    AFGValidationError,
    ApplicationFlowGraph,
    ComputationMode,
    FileSpec,
    InputBinding,
    TaskNode,
    TaskProperties,
    afg_from_dict,
    afg_from_json,
    afg_to_dict,
    compute_levels,
    priority_order,
    validate_afg,
)
from repro.tasklib import default_registry


def node(id, n_in=0, n_out=1, task_type="generic.compute", **props):
    return TaskNode(
        id=id,
        task_type=task_type,
        n_in_ports=n_in,
        n_out_ports=n_out,
        properties=TaskProperties(**props) if props else TaskProperties(),
    )


def chain(costs):
    """t0 -> t1 -> ... with given per-node costs; returns (afg, cost_fn)."""
    afg = ApplicationFlowGraph("chain")
    ids = [f"t{i}" for i in range(len(costs))]
    for i, tid in enumerate(ids):
        afg.add_task(node(tid, n_in=(1 if i else 0), n_out=1))
    for a, b in zip(ids, ids[1:]):
        afg.connect(a, b)
    table = dict(zip(ids, costs))
    return afg, lambda t: table[t]


class TestLevels:
    def test_chain_levels_are_suffix_sums(self):
        afg, cost = chain([3.0, 2.0, 5.0])
        levels = compute_levels(afg, cost)
        assert levels == {"t0": 10.0, "t1": 7.0, "t2": 5.0}

    def test_exit_level_is_own_cost(self):
        afg, cost = chain([4.0])
        assert compute_levels(afg, cost) == {"t0": 4.0}

    def test_diamond_takes_largest_path(self):
        afg = ApplicationFlowGraph("d")
        afg.add_task(node("a", 0, 2))
        afg.add_task(node("b", 1, 1))
        afg.add_task(node("c", 1, 1))
        afg.add_task(node("d", 2, 0))
        afg.connect("a", "b", src_port=0)
        afg.connect("a", "c", src_port=1)
        afg.connect("b", "d", dst_port=0)
        afg.connect("c", "d", dst_port=1)
        costs = {"a": 1.0, "b": 10.0, "c": 2.0, "d": 1.0}
        levels = compute_levels(afg, costs.__getitem__)
        # a's level goes through b (the heavier branch)
        assert levels["a"] == pytest.approx(12.0)
        assert levels["b"] == pytest.approx(11.0)
        assert levels["c"] == pytest.approx(3.0)
        assert levels["d"] == pytest.approx(1.0)

    def test_priority_order_descending_with_id_tiebreak(self):
        afg = ApplicationFlowGraph("p")
        for tid in ("x", "m", "a"):
            afg.add_task(node(tid, 0, 0))
        order = priority_order(afg, lambda t: 1.0)
        assert order == ["a", "m", "x"]  # equal levels -> id order

    def test_priority_order_respects_levels(self):
        afg, cost = chain([1.0, 1.0, 1.0])
        assert priority_order(afg, cost) == ["t0", "t1", "t2"]

    def test_negative_cost_rejected(self):
        afg, _ = chain([1.0])
        with pytest.raises(ValueError, match="negative"):
            compute_levels(afg, lambda t: -1.0)


class TestValidate:
    def test_valid_graph_passes(self):
        afg = ApplicationFlowGraph("ok")
        afg.add_task(node("src", 0, 1, task_type="generic.source"))
        afg.add_task(node("snk", 1, 0, task_type="generic.sink"))
        afg.connect("src", "snk")
        assert validate_afg(afg) == []

    def test_empty_graph_fails(self):
        with pytest.raises(AFGValidationError, match="no tasks"):
            validate_afg(ApplicationFlowGraph("empty"))

    def test_cycle_reported(self):
        afg = ApplicationFlowGraph("cyc")
        afg.add_task(node("a", 1, 1))
        afg.add_task(node("b", 1, 1))
        afg.connect("a", "b")
        afg.connect("b", "a")
        problems = validate_afg(afg, collect=True)
        assert any("cycle" in p for p in problems)

    def test_unconnected_unbound_input_port(self):
        afg = ApplicationFlowGraph("g")
        afg.add_task(node("lonely", 1, 0))
        problems = validate_afg(afg, collect=True)
        assert any("unconnected" in p for p in problems)

    def test_file_bound_port_needs_no_edge(self):
        afg = ApplicationFlowGraph("g")
        afg.add_task(
            TaskNode(
                id="t",
                task_type="generic.sink",
                n_in_ports=1,
                properties=TaskProperties(
                    inputs=(InputBinding(0, FileSpec("/in.dat", 1.0)),)
                ),
            )
        )
        assert validate_afg(afg) == []

    def test_dataflow_bound_port_without_edge_fails(self):
        afg = ApplicationFlowGraph("g")
        afg.add_task(
            TaskNode(
                id="t",
                task_type="generic.sink",
                n_in_ports=1,
                properties=TaskProperties(inputs=(InputBinding(0),)),
            )
        )
        problems = validate_afg(afg, collect=True)
        assert any("dataflow" in p for p in problems)

    def test_edge_into_file_bound_port_conflicts(self):
        afg = ApplicationFlowGraph("g")
        afg.add_task(node("src", 0, 1))
        afg.add_task(
            TaskNode(
                id="t",
                task_type="generic.sink",
                n_in_ports=1,
                properties=TaskProperties(
                    inputs=(InputBinding(0, FileSpec("/in.dat", 1.0)),)
                ),
            )
        )
        afg.connect("src", "t")
        problems = validate_afg(afg, collect=True)
        assert any("both" in p for p in problems)

    def test_registry_unknown_type(self):
        afg = ApplicationFlowGraph("g")
        afg.add_task(node("t", 0, 1, task_type="nope.missing"))
        problems = validate_afg(afg, registry=default_registry(), collect=True)
        assert any("unknown task type" in p for p in problems)

    def test_registry_port_mismatch(self):
        afg = ApplicationFlowGraph("g")
        # generic.compute is 1-in 1-out; declare 0-in
        afg.add_task(node("t", 0, 1, task_type="generic.compute"))
        problems = validate_afg(afg, registry=default_registry(), collect=True)
        assert any("takes 1 inputs" in p for p in problems)

    def test_registry_parallel_support(self):
        afg = ApplicationFlowGraph("g")
        afg.add_task(
            TaskNode(
                id="t",
                task_type="generic.source",
                n_in_ports=0,
                n_out_ports=1,
                properties=TaskProperties(
                    mode=ComputationMode.PARALLEL, n_nodes=2
                ),
            )
        )
        problems = validate_afg(afg, registry=default_registry(), collect=True)
        assert any("no parallel" in p for p in problems)


class TestSerialize:
    def build_rich_graph(self):
        afg = ApplicationFlowGraph("rich")
        afg.add_task(
            TaskNode(
                id="lu",
                task_type="matrix.lu_decomposition",
                n_in_ports=1,
                n_out_ports=1,
                properties=TaskProperties(
                    mode=ComputationMode.PARALLEL,
                    n_nodes=2,
                    preferred_machine_type="SUN solaris",
                    inputs=(InputBinding(0, FileSpec("/matrix_A.dat", 124.88)),),
                    outputs=(FileSpec("/lu.dat", 60.0),),
                    workload_scale=2.0,
                    memory_mb=64,
                ),
            )
        )
        afg.add_task(
            TaskNode(
                id="mm",
                task_type="matrix.matrix_multiply",
                n_in_ports=2,
                n_out_ports=1,
                properties=TaskProperties(
                    preferred_machine="hunding.top.cis.syr.edu",
                    inputs=(InputBinding(0), InputBinding(1, FileSpec("/b.dat", 2.0))),
                ),
            )
        )
        afg.connect("lu", "mm", src_port=0, dst_port=0, size_mb=60.0)
        return afg

    def test_roundtrip_dict(self):
        original = self.build_rich_graph()
        restored = afg_from_dict(afg_to_dict(original))
        assert afg_to_dict(restored) == afg_to_dict(original)
        assert restored.task("lu").properties.preferred_machine_type == "SUN solaris"
        assert restored.task("lu").properties.n_nodes == 2
        assert restored.edges[0].size_mb == pytest.approx(60.0)

    def test_roundtrip_json(self):
        original = self.build_rich_graph()
        restored = afg_from_json(json.dumps(afg_to_dict(original)))
        assert afg_to_dict(restored) == afg_to_dict(original)

    def test_json_is_stable(self):
        first, second = (json.dumps(afg_to_dict(self.build_rich_graph()),
                                    sort_keys=True) for _ in range(2))
        assert first == second

    def test_unknown_format_version_rejected(self):
        data = afg_to_dict(self.build_rich_graph())
        data["format"] = 99
        with pytest.raises(ValueError, match="format"):
            afg_from_dict(data)

    def test_restored_graph_validates(self):
        original = self.build_rich_graph()
        restored = afg_from_json(json.dumps(afg_to_dict(original)))
        assert validate_afg(restored, registry=default_registry()) == []
