"""Unit tests for links, transfers and the network registry."""

import gc
import weakref

import pytest

from repro.sim import Host, HostSpec, LinkSpec, Simulator, TopologyBuilder
from repro.sim.network import LOCAL_COPY_TIME, Link, Network


def test_linkspec_transfer_time_is_latency_plus_serialisation():
    spec = LinkSpec(latency_s=0.1, bandwidth_mbps=2.0)
    assert spec.transfer_time(4.0) == pytest.approx(0.1 + 2.0)


def test_linkspec_validation():
    with pytest.raises(ValueError):
        LinkSpec(latency_s=-0.1)
    with pytest.raises(ValueError):
        LinkSpec(bandwidth_mbps=0.0)
    with pytest.raises(ValueError):
        LinkSpec().transfer_time(-1.0)


@pytest.mark.gate
@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_a_link_refuses_a_non_finite_latency_or_bandwidth(bad):
    """``LinkSpec`` and the topology builder's LAN / WAN defaults refuse a
    non-finite latency or bandwidth."""
    for make in (
        lambda: LinkSpec(latency_s=bad),
        lambda: LinkSpec(bandwidth_mbps=bad),
        lambda: TopologyBuilder(seed=0).lan_defaults(bad, 10.0),
        lambda: TopologyBuilder(seed=0).lan_defaults(0.001, bad),
        lambda: TopologyBuilder(seed=0).wan_defaults(bad, 1.0),
        lambda: TopologyBuilder(seed=0).wan_defaults(0.05, bad),
    ):
        with pytest.raises(ValueError):
            make()


def test_single_transfer_matches_analytic_time():
    sim = Simulator()
    link = Link(sim, LinkSpec(latency_s=0.5, bandwidth_mbps=2.0))
    t = link.transfer(size_mb=4.0)
    sim.run()
    assert t.finished_at == pytest.approx(0.5 + 2.0)


def test_concurrent_transfers_share_bandwidth():
    sim = Simulator()
    link = Link(sim, LinkSpec(latency_s=0.0, bandwidth_mbps=1.0))
    t1 = link.transfer(size_mb=10.0)
    t2 = link.transfer(size_mb=10.0)
    sim.run()
    # both at rate 0.5 -> 20 s each
    assert t1.finished_at == pytest.approx(20.0)
    assert t2.finished_at == pytest.approx(20.0)


def test_staggered_transfers_contend_only_while_overlapping():
    sim = Simulator()
    link = Link(sim, LinkSpec(latency_s=0.0, bandwidth_mbps=1.0))
    t1 = link.transfer(size_mb=10.0)
    done = {}

    def start_second():
        t2 = link.transfer(size_mb=10.0)

        def record():
            done["t2"] = t2

        sim.call_at(sim.now, record)

    sim.call_at(5.0, start_second)
    sim.run()
    # t1: 5 MB alone (5 s), then shares -> remaining 5 MB at 0.5 -> +10 s = 15 s
    assert t1.finished_at == pytest.approx(15.0)
    # t2: 5 MB at 0.5 (10 s), then alone: 5 MB at 1.0 (+5 s) -> finishes at t=20
    assert done["t2"].finished_at == pytest.approx(20.0)


def test_zero_size_transfer_costs_latency_only():
    sim = Simulator()
    link = Link(sim, LinkSpec(latency_s=0.25, bandwidth_mbps=1.0))
    t = link.transfer(size_mb=0.0)
    sim.run()
    assert t.finished_at == pytest.approx(0.25)


def test_link_counters():
    sim = Simulator()
    link = Link(sim, LinkSpec(latency_s=0.0, bandwidth_mbps=10.0))
    link.transfer(size_mb=3.0)
    link.transfer(size_mb=7.0)
    sim.run()
    assert link.transfer_count == 2
    assert link.bytes_carried_mb == pytest.approx(10.0)
    assert link.n_active == 0


def build_network(sim):
    net = Network(
        sim,
        default_lan=LinkSpec(latency_s=0.001, bandwidth_mbps=10.0),
        default_wan=LinkSpec(latency_s=0.05, bandwidth_mbps=1.0),
    )
    net.register_host("a1", "site-a")
    net.register_host("a2", "site-a")
    net.register_host("b1", "site-b")
    return net


def test_network_site_lookup():
    sim = Simulator()
    net = build_network(sim)
    assert net.site_of("a1") == "site-a"
    assert net.site_of("b1") == "site-b"
    with pytest.raises(Exception):
        net.site_of("nope")


def test_duplicate_host_registration_rejected():
    sim = Simulator()
    net = build_network(sim)
    with pytest.raises(Exception):
        net.register_host("a1", "site-c")


def test_estimate_same_host_is_local_copy():
    sim = Simulator()
    net = build_network(sim)
    assert net.transfer_time_estimate("a1", "a1", 100.0) == LOCAL_COPY_TIME


def test_estimate_same_site_uses_lan():
    sim = Simulator()
    net = build_network(sim)
    expected = 0.001 + 5.0 / 10.0
    assert net.transfer_time_estimate("a1", "a2", 5.0) == pytest.approx(expected)


def test_estimate_cross_site_uses_wan():
    sim = Simulator()
    net = build_network(sim)
    expected = 0.05 + 5.0 / 1.0
    assert net.transfer_time_estimate("a1", "b1", 5.0) == pytest.approx(expected)


def test_site_transfer_time_estimate_symmetry():
    sim = Simulator()
    net = build_network(sim)
    ab = net.site_transfer_time_estimate("site-a", "site-b", 2.0)
    ba = net.site_transfer_time_estimate("site-b", "site-a", 2.0)
    assert ab == ba


def test_wan_link_is_lazily_created_and_cached():
    sim = Simulator()
    net = build_network(sim)
    l1 = net.wan_link("site-a", "site-b")
    l2 = net.wan_link("site-b", "site-a")
    assert l1 is l2


def test_explicit_wan_override():
    sim = Simulator()
    net = build_network(sim)
    net.set_wan("site-a", "site-b", LinkSpec(latency_s=0.2, bandwidth_mbps=0.5))
    expected = 0.2 + 1.0 / 0.5
    assert net.transfer_time_estimate("a1", "b1", 1.0) == pytest.approx(expected)


def test_real_transfer_same_host_completes_fast():
    sim = Simulator()
    net = build_network(sim)
    t = net.transfer("a1", "a1", 100.0)
    sim.run()
    assert t.finished_at == pytest.approx(LOCAL_COPY_TIME)


def test_real_transfer_cross_site_uses_wan_link():
    sim = Simulator()
    net = build_network(sim)
    t = net.transfer("a1", "b1", 2.0)
    sim.run()
    assert t.finished_at == pytest.approx(0.05 + 2.0)
    assert net.wan_link("site-a", "site-b").transfer_count == 1


@pytest.mark.gate
def test_a_finished_job_is_freed_without_the_cycle_collector():
    """``done`` succeeds with no value: a finished transfer (LAN, WAN or
    local copy) or task execution (zero work included) is no cycle
    through its own signal, so reference counting alone frees it."""
    sim = Simulator()
    net = build_network(sim)
    host = Host(sim, HostSpec(name="h0", speed=1.0, memory_mb=256))
    got = []

    def waiter(job):
        got.append((yield job.done))

    gc.disable()
    try:
        jobs = [
            net.transfer("a1", "a2", 1.0, label="lan"),
            net.transfer("a1", "b1", 1.0, label="wan"),
            net.transfer("a1", "a1", 1.0, label="local"),
            host.execute(work=2.0),
            host.execute(work=0.0),
        ]
        for job in jobs:
            sim.process(waiter(job))
        sim.run()
        assert got == [None] * len(jobs)
        refs = [weakref.ref(job) for job in jobs]
        del jobs, job
        assert [ref() for ref in refs] == [None] * len(refs)
    finally:
        gc.enable()
