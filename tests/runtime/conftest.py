"""Shared fixtures for runtime tests."""

import pytest

from repro.afg import ApplicationFlowGraph, TaskNode, TaskProperties
from repro.runtime import RuntimeConfig, VDCERuntime
from repro.runtime import integrity
from repro.sim import TopologyBuilder
from repro.trace.tracer import NULL_TRACER


def build_runtime(
    site_hosts=None,
    config=None,
    wan_latency_s=0.02,
    wan_bandwidth_mbps=2.0,
    seed=0,
    tracer=NULL_TRACER,
    **config_kwargs,
):
    if site_hosts is None:
        site_hosts = {
            "alpha": [("a1", 1.0, 256), ("a2", 2.0, 256)],
            "beta": [("b1", 1.5, 256), ("b2", 3.0, 256)],
        }
    builder = TopologyBuilder(seed=seed).wan_defaults(wan_latency_s, wan_bandwidth_mbps)
    for site, hosts in site_hosts.items():
        builder.site(site, hosts=hosts)
    topo = builder.build()
    cfg = config or RuntimeConfig(**config_kwargs)
    return VDCERuntime(topo, config=cfg, tracer=tracer)


def chain_afg(n=3, scale=1.0, edge_mb=0.5, name="chain"):
    afg = ApplicationFlowGraph(name)
    afg.add_task(TaskNode(id="t0", task_type="generic.source", n_out_ports=1,
                          properties=TaskProperties(workload_scale=scale)))
    for i in range(1, n):
        afg.add_task(TaskNode(id=f"t{i}", task_type="generic.compute",
                              n_in_ports=1, n_out_ports=1,
                              properties=TaskProperties(workload_scale=scale)))
        afg.connect(f"t{i-1}", f"t{i}", size_mb=edge_mb)
    return afg


@pytest.fixture
def runtime():
    return build_runtime()


@pytest.fixture
def budgets(monkeypatch):
    """``budgets(MAX_REFETCHES=1, ...)`` sets the repair ladder's budgets
    (the constants of :mod:`repro.runtime.integrity`) for one test."""
    def set_budgets(**values):
        for name, value in values.items():
            assert hasattr(integrity, name), name
            monkeypatch.setattr(integrity, name, value)
    return set_budgets
