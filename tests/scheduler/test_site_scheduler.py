"""Tests for the Figure 2 site-scheduler algorithm."""

import pytest

from repro.afg import ApplicationFlowGraph, TaskNode, TaskProperties
from repro.scheduler import (
    PredictionModel,
    SchedulingError,
    SiteScheduler,
)

from repro.repository.taskperf import TaskPerfRecord
from repro.scheduler.host_selection import site_bid
from tests.scheduler import _reference
from tests.scheduler.conftest import build_federation


def source(id="src", scale=1.0):
    return TaskNode(id=id, task_type="generic.source", n_out_ports=1,
                    properties=TaskProperties(workload_scale=scale))


def compute(id, scale=1.0, **props):
    return TaskNode(id=id, task_type="generic.compute", n_in_ports=1,
                    n_out_ports=1,
                    properties=TaskProperties(workload_scale=scale, **props))


def sink(id="snk"):
    return TaskNode(id=id, task_type="generic.sink", n_in_ports=1)


def chain_afg(edge_mb=1.0, scales=(1.0, 1.0)):
    afg = ApplicationFlowGraph("chain")
    afg.add_task(source(scale=scales[0]))
    afg.add_task(compute("mid", scale=scales[1]))
    afg.add_task(sink())
    afg.connect("src", "mid", size_mb=edge_mb)
    afg.connect("mid", "snk", size_mb=0.01)
    return afg


def test_entry_task_goes_to_globally_fastest_host():
    # make beta's fast host faster than alpha's
    topo, repos, view = build_federation(
        site_hosts={
            "alpha": [("a1", 1.0, 256), ("a2", 2.0, 256)],
            "beta": [("b1", 8.0, 256), ("b2", 1.0, 256)],
        }
    )
    table = SiteScheduler(k=1).schedule(chain_afg(edge_mb=0.0), view)
    assert table.get("src").site == "beta"
    assert table.get("src").hosts == ("b1",)


def test_huge_edge_keeps_child_with_parent():
    # beta is faster but the WAN is slow and the edge is enormous
    topo, repos, view = build_federation(
        site_hosts={
            "alpha": [("a1", 1.0, 256)],
            "beta": [("b1", 1.01, 256)],
        },
        wan_latency_s=0.1,
        wan_bandwidth_mbps=0.5,
    )
    afg = chain_afg(edge_mb=500.0)
    table = SiteScheduler(k=1).schedule(afg, view)
    # entry goes to beta (slightly faster); child stays at beta (transfer-free)
    assert table.get("src").site == table.get("mid").site


def test_tiny_edge_lets_child_chase_fast_host():
    topo, repos, view = build_federation(
        site_hosts={
            "alpha": [("a1", 1.0, 256)],
            "beta": [("b1", 10.0, 256)],
        },
        wan_latency_s=0.001,
        wan_bandwidth_mbps=100.0,
    )
    # pin the entry task to alpha via preference; child should jump to beta
    afg = ApplicationFlowGraph("x")
    afg.add_task(TaskNode(id="src", task_type="generic.source", n_out_ports=1,
                          properties=TaskProperties(preferred_machine="a1")))
    afg.add_task(compute("mid", scale=10.0))
    afg.add_task(sink())
    afg.connect("src", "mid", size_mb=0.001)
    afg.connect("mid", "snk", size_mb=0.001)
    table = SiteScheduler(k=1).schedule(afg, view)
    assert table.get("src").site == "alpha"
    assert table.get("mid").site == "beta"


def test_k_zero_is_local_only(federation):
    _, _, view = federation
    table = SiteScheduler(k=0).schedule(chain_afg(), view)
    assert table.sites_used() == ["alpha"]


def test_k_selects_nearest_sites_only():
    topo, repos, view = build_federation(
        site_hosts={
            "alpha": [("a1", 1.0, 256)],
            "near": [("n1", 5.0, 256)],
            "far": [("f1", 50.0, 256)],
        },
        local_site="alpha",
    )
    # make 'near' nearer than 'far'
    from repro.scheduler import FederationView
    from repro.sim import LinkSpec

    topo.network.set_wan("alpha", "near", LinkSpec(0.01, 10.0))
    topo.network.set_wan("alpha", "far", LinkSpec(0.5, 10.0))
    view = FederationView.from_topology(topo, repos, "alpha")
    table = SiteScheduler(k=1).schedule(chain_afg(edge_mb=0.0), view)
    # k=1 admits only the nearest remote site, so 'far' (the fastest host
    # in the federation) must not be used
    assert "far" not in table.sites_used()
    assert table.get("src").site == "near"


def test_no_feasible_site_raises(federation):
    _, repos, view = federation
    afg = ApplicationFlowGraph("x")
    afg.add_task(TaskNode(id="t", task_type="generic.source", n_out_ports=1,
                          properties=TaskProperties(preferred_machine="nowhere")))
    with pytest.raises(SchedulingError, match="no site can run"):
        SiteScheduler(k=1).schedule(afg, view)


def _remote_only_afg():
    """source -> ``remote.only``, a type registered at ``beta`` alone."""
    afg = ApplicationFlowGraph("remote-only")
    afg.add_task(source())
    afg.add_task(TaskNode(id="t", task_type="remote.only", n_in_ports=1,
                          n_out_ports=1))
    afg.connect("src", "t", size_mb=1.0)
    return afg


def _register_remote_only(repo):
    repo.task_perf.register(TaskPerfRecord(
        task_type="remote.only", computation_size=2.0,
        communication_size_mb=0.1, required_memory_mb=16))
    for host in repo.resources.host_names():
        repo.constraints.register("remote.only", host, f"/bin/{host}")


def test_a_type_only_a_remote_site_knows_is_placed_there(federation):
    """The submitting site lacks the type: Fig. 3 says it only declines.
    Its level cost comes from the first participating site that knows
    the type, and the task goes there — from its repository or from
    the bid it sent back."""
    _, repos, view = federation
    _register_remote_only(repos["beta"])
    afg = _remote_only_afg()
    scheduler = SiteScheduler(k=1)
    table, order = scheduler.schedule_with_trace(afg, view)
    assert table.get("t").site == "beta"
    ref_table, ref_order = _reference.schedule_with_trace(scheduler, afg, view)
    assert order == ref_order == ["src", "t"]
    assert table.to_dict() == ref_table.to_dict()
    by_reply = view.answered([site_bid(
        repos["beta"], ["generic.source", "remote.only"], scheduler.model)])
    assert scheduler.schedule(afg, by_reply).to_dict() == table.to_dict()


def test_a_type_no_participating_site_knows_is_a_scheduling_error(federation):
    _, repos, view = federation
    _register_remote_only(repos["beta"])
    # k = 0: beta does not take part, and alpha lacks the type
    with pytest.raises(SchedulingError,
                       match="no participating site knows task type "
                             "'remote.only'"):
        SiteScheduler(k=0).schedule(_remote_only_afg(), view)


def test_placement_order_follows_levels(federation):
    _, _, view = federation
    # fork: src -> (heavy, light) ; heavy has much larger level
    afg = ApplicationFlowGraph("fork")
    afg.add_task(TaskNode(id="src", task_type="generic.split", n_in_ports=1,
                          n_out_ports=2,
                          properties=TaskProperties()))
    # make src an entry by using source instead
    afg = ApplicationFlowGraph("fork")
    afg.add_task(source())
    afg.add_task(TaskNode(id="fan", task_type="generic.split", n_in_ports=1,
                          n_out_ports=2))
    afg.add_task(compute("heavy", scale=100.0))
    afg.add_task(compute("light", scale=1.0))
    afg.connect("src", "fan")
    afg.connect("fan", "heavy", src_port=0)
    afg.connect("fan", "light", src_port=1)
    _, order = SiteScheduler(k=1).schedule_with_trace(afg, view)
    assert order.index("heavy") < order.index("light")
    assert order[0] == "src"


def test_fifo_ablation_changes_order(federation):
    _, _, view = federation
    afg = ApplicationFlowGraph("fork")
    afg.add_task(source())
    afg.add_task(TaskNode(id="fan", task_type="generic.split", n_in_ports=1,
                          n_out_ports=2))
    afg.add_task(compute("z-heavy", scale=100.0))
    afg.add_task(compute("a-light", scale=1.0))
    afg.connect("src", "fan")
    afg.connect("fan", "z-heavy", src_port=0)
    afg.connect("fan", "a-light", src_port=1)
    _, fifo_order = SiteScheduler(
        k=1, use_level_priority=False
    ).schedule_with_trace(afg, view)
    # FIFO appends children in afg.children order: z-heavy then a-light
    assert fifo_order.index("z-heavy") < fifo_order.index("a-light")
    _, level_order = SiteScheduler(k=1).schedule_with_trace(afg, view)
    assert level_order.index("z-heavy") < level_order.index("a-light")


def test_table_is_complete_and_valid(federation):
    _, _, view = federation
    afg = chain_afg()
    table = SiteScheduler(k=1).schedule(afg, view)
    assert table.is_complete_for(afg)
    table.validate_against(afg)
    assert len(table) == 3
    assert table.scheduler == "vdce"


def test_negative_k_rejected():
    with pytest.raises(ValueError):
        SiteScheduler(k=-1)


def test_parallel_task_scheduled_across_group(federation):
    _, _, view = federation
    from repro.afg import ComputationMode

    afg = ApplicationFlowGraph("par")
    afg.add_task(TaskNode(
        id="gen", task_type="matrix.generate_system", n_out_ports=2))
    afg.add_task(TaskNode(
        id="lu", task_type="matrix.lu_decomposition", n_in_ports=1,
        n_out_ports=1,
        properties=TaskProperties(mode=ComputationMode.PARALLEL, n_nodes=2)))
    afg.add_task(TaskNode(
        id="solve", task_type="matrix.triangular_solve", n_in_ports=2,
        n_out_ports=1))
    afg.add_task(TaskNode(
        id="out", task_type="generic.sink", n_in_ports=1))
    afg.connect("gen", "lu", src_port=0, size_mb=4.0)
    afg.connect("gen", "solve", src_port=1, dst_port=1, size_mb=0.5)
    afg.connect("lu", "solve", dst_port=0, size_mb=4.0)
    afg.connect("solve", "out", size_mb=0.5)
    table = SiteScheduler(k=1).schedule(afg, view)
    assert len(table.get("lu").hosts) == 2
    assert len(set(table.get("lu").hosts)) == 2
