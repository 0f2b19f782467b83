"""Unit tests for sites, groups and topology construction."""

import pytest

from repro.sim import HostSpec, Simulator, Topology, TopologyBuilder
from repro.sim.site import GroupSpec, Site, SiteSpec
from repro.sim.topology import star_topology


def simple_site_spec():
    hosts = (
        HostSpec(name="h0", speed=1.0),
        HostSpec(name="h1", speed=2.0),
        HostSpec(name="h2", speed=1.5),
    )
    return SiteSpec(
        name="syr",
        groups=(GroupSpec(name="g0", leader="h0", hosts=hosts),),
        server="h0",
    )


def test_site_instantiation_and_lookup():
    sim = Simulator()
    site = Site(sim, simple_site_spec())
    assert site.name == "syr"
    assert len(site) == 3
    assert site.host("h1").spec.speed == 2.0
    assert site.server_host.name == "h0"
    assert site.group_of("h2").name == "g0"


def test_site_unknown_host_raises():
    sim = Simulator()
    site = Site(sim, simple_site_spec())
    with pytest.raises(Exception):
        site.host("zz")
    with pytest.raises(Exception):
        site.group_of("zz")


def test_up_hosts_excludes_failed():
    sim = Simulator()
    site = Site(sim, simple_site_spec())
    site.host("h1").fail()
    names = {h.name for h in site if h.is_up()}
    assert names == {"h0", "h2"}


def test_group_leader_must_be_member():
    with pytest.raises(ValueError):
        GroupSpec(name="g", leader="absent", hosts=(HostSpec(name="h0"),))


def test_duplicate_host_names_rejected_in_group_and_site():
    with pytest.raises(ValueError):
        GroupSpec(name="g", leader="h0",
                  hosts=(HostSpec(name="h0"), HostSpec(name="h0")))
    g1 = GroupSpec(name="g1", leader="x", hosts=(HostSpec(name="x"),))
    g2 = GroupSpec(name="g2", leader="x2", hosts=(HostSpec(name="x2"), HostSpec(name="x")))
    with pytest.raises(ValueError):
        SiteSpec(name="s", groups=(g1, g2))


def test_server_defaults_to_first_host():
    g = GroupSpec(name="g", leader="a", hosts=(HostSpec(name="a"), HostSpec(name="b")))
    spec = SiteSpec(name="s", groups=(g,))
    assert spec.server_name == "a"


def test_server_must_be_site_host():
    g = GroupSpec(name="g", leader="a", hosts=(HostSpec(name="a"),))
    with pytest.raises(ValueError):
        SiteSpec(name="s", groups=(g,), server="elsewhere")


def test_uniform_site_groups():
    site = TopologyBuilder().site("u", n_hosts=5, group_size=2).build().site("u")
    assert len(site) == 5
    assert {name: group.spec.leader for name, group in site.groups.items()} \
        == {"u-g0": "u-h00", "u-g1": "u-h02", "u-g2": "u-h04"}  # 2 + 2 + 1


def test_topology_builder_end_to_end():
    topo = (
        TopologyBuilder(seed=7)
        .lan_defaults(latency_s=0.001, bandwidth_mbps=12.0)
        .wan_defaults(latency_s=0.04, bandwidth_mbps=1.5)
        .site("syr", hosts=[("grad1", 1.0, 128), ("grad2", 2.0, 256)])
        .site("cs", n_hosts=4, speed=1.5)
        .wan("syr", "cs", latency_s=0.02, bandwidth_mbps=2.0)
        .build()
    )
    assert set(topo.site_names) == {"syr", "cs"}
    assert topo.host("grad2").spec.speed == 2.0
    assert topo.site_of_host("cs-h01").name == "cs"
    assert topo.network.wan_link("syr", "cs").spec.latency_s == pytest.approx(0.02)


def test_topology_duplicate_site_or_host_rejected():
    with pytest.raises(Exception):
        (
            TopologyBuilder()
            .site("a", n_hosts=1)
            .site("a", n_hosts=1)
            .build()
        )
    with pytest.raises(Exception):
        (
            TopologyBuilder()
            .site("a", hosts=[("x", 1.0, 64)])
            .site("b", hosts=[("x", 1.0, 64)])
            .build()
        )


def test_builder_requires_hosts():
    with pytest.raises(ValueError):
        TopologyBuilder().site("empty")
    with pytest.raises(Exception):
        TopologyBuilder().build()


def test_star_topology_neighbor_ordering():
    topo = star_topology(n_sites=4, hosts_per_site=2)
    neighbors = topo.neighbor_sites("site-0")
    # latency grows with index distance, so ordering is 1, 2, 3
    assert neighbors == ["site-1", "site-2", "site-3"]
    assert topo.neighbor_sites("site-0", k=2) == ["site-1", "site-2"]
    assert topo.neighbor_sites("site-0", k=0) == []


def test_neighbor_sites_validates_inputs():
    topo = star_topology(n_sites=3, hosts_per_site=1)
    with pytest.raises(Exception):
        topo.neighbor_sites("nope")
    with pytest.raises(ValueError):
        topo.neighbor_sites("site-0", k=-1)


def test_neighbor_sites_k_larger_than_available():
    topo = star_topology(n_sites=3, hosts_per_site=1)
    assert topo.neighbor_sites("site-0", k=99) == ["site-1", "site-2"]
