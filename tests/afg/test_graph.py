"""Unit tests for ApplicationFlowGraph structure."""

import pytest

from repro.afg import (
    ApplicationFlowGraph,
    ComputationMode,
    Edge,
    FileSpec,
    InputBinding,
    TaskNode,
    TaskProperties,
)


def node(id, n_in=0, n_out=1, **props):
    return TaskNode(
        id=id,
        task_type="generic.compute",
        n_in_ports=n_in,
        n_out_ports=n_out,
        properties=TaskProperties(**props) if props else TaskProperties(),
    )


def diamond():
    """a -> (b, c) -> d"""
    afg = ApplicationFlowGraph("diamond")
    afg.add_task(node("a", n_in=0, n_out=2))
    afg.add_task(node("b", n_in=1, n_out=1))
    afg.add_task(node("c", n_in=1, n_out=1))
    afg.add_task(node("d", n_in=2, n_out=0))
    afg.connect("a", "b", src_port=0, dst_port=0, size_mb=1.0)
    afg.connect("a", "c", src_port=1, dst_port=0, size_mb=2.0)
    afg.connect("b", "d", src_port=0, dst_port=0, size_mb=3.0)
    afg.connect("c", "d", src_port=0, dst_port=1, size_mb=4.0)
    return afg


def test_add_and_lookup():
    afg = diamond()
    assert len(afg) == 4
    assert "a" in afg
    assert afg.task("b").id == "b"
    with pytest.raises(KeyError):
        afg.task("zz")


def test_duplicate_task_rejected():
    afg = ApplicationFlowGraph()
    afg.add_task(node("a"))
    with pytest.raises(ValueError):
        afg.add_task(node("a"))


def test_parents_children():
    afg = diamond()
    assert afg.children("a") == ["b", "c"]
    assert afg.parents("d") == ["b", "c"]
    assert afg.parents("a") == []
    assert afg.children("d") == []


def test_entry_exit_tasks():
    afg = diamond()
    assert afg.entry_tasks() == ["a"]
    assert afg.exit_tasks() == ["d"]


def test_connect_validates_endpoints_and_ports():
    afg = ApplicationFlowGraph()
    afg.add_task(node("a", n_in=0, n_out=1))
    afg.add_task(node("b", n_in=1, n_out=0))
    with pytest.raises(KeyError):
        afg.connect("zz", "b")
    with pytest.raises(KeyError):
        afg.connect("a", "zz")
    with pytest.raises(ValueError):
        afg.connect("a", "b", src_port=5)
    with pytest.raises(ValueError):
        afg.connect("a", "b", dst_port=5)


def test_input_port_cannot_be_double_connected():
    afg = ApplicationFlowGraph()
    afg.add_task(node("a", n_in=0, n_out=1))
    afg.add_task(node("b", n_in=0, n_out=1))
    afg.add_task(node("c", n_in=1, n_out=0))
    afg.connect("a", "c", dst_port=0)
    with pytest.raises(ValueError):
        afg.connect("b", "c", dst_port=0)


def test_self_loop_rejected():
    with pytest.raises(ValueError):
        Edge(src="a", dst="a")


NON_FINITE = [float("nan"), float("inf"), float("-inf")]


@pytest.mark.gate
def test_edge_validation():
    """A negative or non-finite edge size is refused where it enters the
    AFG, before any simulated time."""
    with pytest.raises(ValueError):
        Edge(src="a", dst="b", size_mb=-1.0)
    for bad in NON_FINITE:
        with pytest.raises(ValueError, match="finite"):
            Edge(src="a", dst="b", size_mb=bad)
    with pytest.raises(ValueError):
        Edge(src="a", dst="b", src_port=-1)


def test_topological_order_is_deterministic_and_valid():
    afg = diamond()
    order = afg.topological_order()
    assert order[0] == "a"
    assert order[-1] == "d"
    assert set(order) == {"a", "b", "c", "d"}
    assert order == diamond().topological_order()


def test_cycle_detection():
    afg = ApplicationFlowGraph()
    afg.add_task(node("a", n_in=1, n_out=1))
    afg.add_task(node("b", n_in=1, n_out=1))
    afg.connect("a", "b")
    afg.connect("b", "a")
    assert not afg.is_acyclic()
    with pytest.raises(ValueError, match="cycle"):
        afg.topological_order()


def test_edge_size_between_sums_port_pairs():
    afg = ApplicationFlowGraph()
    afg.add_task(node("a", n_in=0, n_out=2))
    afg.add_task(node("b", n_in=2, n_out=0))
    afg.connect("a", "b", src_port=0, dst_port=0, size_mb=1.5)
    afg.connect("a", "b", src_port=1, dst_port=1, size_mb=2.5)
    assert afg.edge_size_between("a", "b") == pytest.approx(4.0)
    assert afg.parents("b") == ["a"]  # deduplicated


def test_requires_input_transfer():
    afg = ApplicationFlowGraph()
    afg.add_task(node("pure-entry"))
    afg.add_task(
        TaskNode(
            id="file-entry",
            task_type="generic.compute",
            n_in_ports=1,
            n_out_ports=1,
            properties=TaskProperties(
                inputs=(InputBinding(port=0, file=FileSpec("/data/a.dat", 124.88)),)
            ),
        )
    )
    afg.add_task(node("child", n_in=1, n_out=0))
    afg.connect("pure-entry", "child")
    assert not afg.requires_input_transfer("pure-entry")
    assert afg.requires_input_transfer("file-entry")
    assert afg.requires_input_transfer("child")


def test_replace_task_keeps_edges():
    afg = diamond()
    updated = afg.task("b").with_properties(workload_scale=3.0)
    afg.replace_task(updated)
    assert afg.task("b").properties.workload_scale == 3.0
    assert afg.parents("d") == ["b", "c"]
    with pytest.raises(KeyError):
        afg.replace_task(node("zz"))


def test_to_networkx_merges_parallel_edges():
    afg = ApplicationFlowGraph()
    afg.add_task(node("a", n_in=0, n_out=2))
    afg.add_task(node("b", n_in=2, n_out=0))
    afg.connect("a", "b", src_port=0, dst_port=0, size_mb=1.0)
    afg.connect("a", "b", src_port=1, dst_port=1, size_mb=2.0)
    g = afg.to_networkx()
    assert g.number_of_nodes() == 2
    assert g.edges["a", "b"]["size_mb"] == pytest.approx(3.0)


def test_empty_name_rejected():
    with pytest.raises(ValueError):
        ApplicationFlowGraph("")


def test_tasknode_validation():
    with pytest.raises(ValueError):
        TaskNode(id="", task_type="t")
    with pytest.raises(ValueError):
        TaskNode(id="bad id", task_type="t")
    with pytest.raises(ValueError):
        TaskNode(id="a", task_type="")
    with pytest.raises(ValueError):
        TaskNode(id="a", task_type="t", n_in_ports=-1)
    # binding beyond declared ports
    with pytest.raises(ValueError):
        TaskNode(
            id="a",
            task_type="t",
            n_in_ports=1,
            properties=TaskProperties(inputs=(InputBinding(port=3),)),
        )


@pytest.mark.gate
def test_task_properties_validation():
    """Task properties are refused at construction; a non-finite
    ``workload_scale`` among them."""
    with pytest.raises(ValueError):
        TaskProperties(n_nodes=0)
    with pytest.raises(ValueError):
        TaskProperties(mode=ComputationMode.SEQUENTIAL, n_nodes=2)
    with pytest.raises(ValueError):
        TaskProperties(workload_scale=0.0)
    for bad in NON_FINITE:
        with pytest.raises(ValueError, match="finite"):
            TaskProperties(workload_scale=bad)
    with pytest.raises(ValueError):
        TaskProperties(memory_mb=-1)
    with pytest.raises(ValueError):
        TaskProperties(inputs=(InputBinding(port=0), InputBinding(port=0)))
    props = TaskProperties(mode=ComputationMode.PARALLEL, n_nodes=4)
    assert props.is_parallel


def test_properties_input_helpers():
    props = TaskProperties(
        inputs=(
            InputBinding(port=0, file=FileSpec("/a", 10.0)),
            InputBinding(port=1),
            InputBinding(port=2, file=FileSpec("/b", 5.0)),
        )
    )
    assert len(props.file_inputs()) == 2
    assert len(props.dataflow_inputs()) == 1
    assert props.total_input_size_mb() == pytest.approx(15.0)


@pytest.mark.gate
def test_filespec_validation():
    """An empty path or a negative or non-finite file size is refused at
    construction."""
    with pytest.raises(ValueError):
        FileSpec(path="", size_mb=1.0)
    with pytest.raises(ValueError):
        FileSpec(path="/a", size_mb=-1.0)
    for bad in NON_FINITE:
        with pytest.raises(ValueError, match="finite"):
            FileSpec(path="/a", size_mb=bad)
    with pytest.raises(ValueError):
        InputBinding(port=-1)
