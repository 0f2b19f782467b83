"""Tests: heterogeneous arch/OS deployments and multi-group sites."""

import math

import pytest

from repro import VDCE, DeploymentSpec, HostSpec, SiteConfig
from repro.scheduler import (
    HEFTScheduler,
    MaxMinScheduler,
    MinMinScheduler,
    SiteScheduler,
)
from repro.sim import TopologyBuilder
from repro.workloads import bag_of_tasks

from tests.scheduler.conftest import build_federation


class TestArchOSInSpec:
    def test_arch_os_flow_through_to_hosts(self):
        spec = DeploymentSpec(sites=(
            SiteConfig(name="mixed", hosts=(
                HostSpec("sunbox", arch="sparc", os="solaris"),
                HostSpec("pc", speed=2.0, arch="x86", os="linux"),
            )),
        ))
        env = VDCE(spec=spec)
        assert env.topology.host("pc").spec.os == "linux"
        assert env.topology.host("sunbox").spec.arch == "sparc"

    def test_machine_type_preference_respects_spec_os(self):
        from repro.afg import ApplicationFlowGraph, TaskNode, TaskProperties

        spec = DeploymentSpec(sites=(
            SiteConfig(name="mixed", hosts=(
                HostSpec("sunbox", speed=1.0, arch="sparc", os="solaris"),
                HostSpec("pc", speed=8.0, arch="x86", os="linux"),
            )),
        ))
        env = VDCE(spec=spec)
        afg = ApplicationFlowGraph("typed")
        afg.add_task(TaskNode(
            id="t", task_type="generic.source", n_out_ports=1,
            properties=TaskProperties(preferred_machine_type="x86 linux")))
        table = SiteScheduler(k=0).schedule(afg, env.runtime.federation_view())
        assert table.get("t").hosts == ("pc",)

    def test_validation(self):
        with pytest.raises(ValueError):
            HostSpec("h", arch="")
        with pytest.raises(ValueError):
            HostSpec("h", os="")


@pytest.mark.gate
@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
class TestNonFiniteSpecs:
    """The deployment's entry points (``HostSpec``, ``SiteConfig``,
    ``DeploymentSpec``) refuse a non-finite number."""

    def test_host_config_speed(self, bad):
        with pytest.raises(ValueError):
            HostSpec("h", speed=bad)

    def test_site_config_speed(self, bad):
        with pytest.raises(ValueError):
            SiteConfig("s", n_hosts=2, speed=bad)

    @pytest.mark.parametrize("field", [
        "lan_latency_s", "lan_bandwidth_mbps",
        "wan_latency_s", "wan_bandwidth_mbps",
    ])
    def test_deployment_link_fields(self, bad, field):
        sites = (SiteConfig("s", n_hosts=2),)
        with pytest.raises(ValueError):
            DeploymentSpec(sites, **{field: bad})

    def test_deployment_wan_overrides(self, bad):
        sites = (SiteConfig("a", n_hosts=1), SiteConfig("b", n_hosts=1))
        for latency, bandwidth in ((bad, 1.0), (0.05, bad)):
            with pytest.raises(ValueError):
                DeploymentSpec(
                    sites, wan_overrides=(("a", "b", latency, bandwidth),))


@pytest.mark.parametrize("build", [
    lambda: TopologyBuilder(seed=0).site("a", hosts=[("h", 1.0, math.nan)]),
    lambda: TopologyBuilder(seed=0).site("a", hosts=[("h", 1.0, math.inf)]),
    lambda: HostSpec(name=""),
    lambda: HostSpec(name="x", arch=""),
], ids=["memory-nan", "memory-inf", "no-name", "no-arch"])
def test_a_host_spec_refuses_what_no_machine_has(build):
    """``HostSpec`` is the one host record and makes every check of a
    deployment's host, however the host is declared (it is not a
    ``*Config`` class, so the knob gate's sweep does not reach it)."""
    with pytest.raises(ValueError):
        build()


class TestMultiGroupSites:
    """A site split into groups is declared where the split is made,
    ``TopologyBuilder.site(group_size=)``."""

    def test_group_size_creates_multiple_group_managers(self):
        env = VDCE(topology=TopologyBuilder()
                   .site("big", n_hosts=6, group_size=2).build())
        groups = [g for g in env.runtime.group_managers if g.startswith("big")]
        assert len(groups) == 3

    def test_monitoring_covers_all_groups(self):
        env = VDCE(topology=TopologyBuilder()
                   .site("big", n_hosts=6, group_size=2).build())
        env.start_monitoring()
        for host in env.topology.all_hosts:
            host.set_bg_load(1.0)
        env.advance(5.0)
        db = env.repository("big").resources
        assert all(db.get(h.name).load == 1.0
                   for h in env.topology.all_hosts)

    def test_execution_spans_groups(self):
        env = VDCE(topology=TopologyBuilder()
                   .site("big", n_hosts=4, group_size=2).build())
        result = env.submit(bag_of_tasks(n=8, cost=2.0), k=0,
                            execute_payloads=False)
        assert len(result.hosts_used()) == 4  # both groups participate


class TestBaselineKParameter:
    @pytest.mark.parametrize("factory", [MinMinScheduler, MaxMinScheduler,
                                         HEFTScheduler])
    def test_k_zero_restricts_to_local_site(self, factory):
        _, _, view = build_federation()
        afg = bag_of_tasks(n=4, cost=2.0)
        table = factory(k=0).schedule(afg, view)
        assert table.sites_used() == ["alpha"]

    @pytest.mark.parametrize("factory", [MinMinScheduler, HEFTScheduler])
    def test_k_none_uses_all_sites_for_big_bags(self, factory):
        _, _, view = build_federation()
        afg = bag_of_tasks(n=12, cost=2.0)
        table = factory().schedule(afg, view)
        assert len(table.sites_used()) == 2
