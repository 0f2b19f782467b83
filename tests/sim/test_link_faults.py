"""Link outages, WAN partitions, site outages and injector guards."""

import pytest

from repro.sim import (
    FailureInjector,
    LinkDownError,
    LinkSpec,
    Simulator,
    SimulationError,
    TopologyBuilder,
)
from repro.sim.network import Link


def _three_site_topology(seed=0):
    builder = TopologyBuilder(seed=seed).wan_defaults(0.02, 2.0)
    builder.site("alpha", hosts=[("a1", 1.0, 256), ("a2", 1.0, 256)])
    builder.site("beta", hosts=[("b1", 1.0, 256)])
    builder.site("gamma", hosts=[("g1", 1.0, 256)])
    return builder.build()


# -- single-link faults ----------------------------------------------------


def test_link_failure_kills_in_flight_transfer():
    sim = Simulator()
    link = Link(sim, LinkSpec(latency_s=0.0, bandwidth_mbps=1.0))
    t = link.transfer(size_mb=10.0)
    caught = {}

    def watch():
        try:
            yield t.done
        except LinkDownError as exc:
            caught["exc"] = exc
            caught["at"] = sim.now

    sim.process(watch())
    sim.call_at(2.0, link.fail)
    sim.run()
    assert isinstance(caught["exc"], LinkDownError)
    assert caught["at"] == pytest.approx(2.0)
    assert link.failures == 1
    assert link.n_active == 0


def test_link_failure_kills_latency_phase_transfer():
    sim = Simulator()
    link = Link(sim, LinkSpec(latency_s=1.0, bandwidth_mbps=1.0))
    t = link.transfer(size_mb=5.0)
    caught = {}

    def watch():
        try:
            yield t.done
        except LinkDownError:
            caught["at"] = sim.now

    sim.process(watch())
    sim.call_at(0.5, link.fail)  # mid-latency
    sim.run()
    assert "at" in caught


def test_transfer_on_down_link_fails_immediately():
    sim = Simulator()
    link = Link(sim, LinkSpec(latency_s=0.0, bandwidth_mbps=1.0))
    link.fail()
    caught = {}

    def attempt():
        t = link.transfer(size_mb=1.0)
        try:
            yield t.done
        except LinkDownError:
            caught["at"] = sim.now

    sim.process(attempt())
    sim.run()
    assert caught["at"] == pytest.approx(0.0)


def test_link_recovery_allows_new_transfers():
    sim = Simulator()
    link = Link(sim, LinkSpec(latency_s=0.0, bandwidth_mbps=1.0))
    link.fail()
    sim.call_at(3.0, link.recover)
    finished = {}

    def attempt():
        from repro.sim.kernel import Timeout

        yield Timeout(4.0)
        t = link.transfer(size_mb=2.0)
        yield t.done
        finished["at"] = sim.now

    sim.process(attempt())
    sim.run()
    assert link.up
    # started at t=4 (after recovery), 2 MB at 1 MB/s
    assert finished["at"] == pytest.approx(6.0)


def test_fail_and_recover_are_idempotent():
    sim = Simulator()
    link = Link(sim, LinkSpec())
    link.fail()
    link.fail()
    assert link.failures == 1
    link.recover()
    link.recover()
    assert link.up


def test_message_quality_knob_validation():
    topo = _three_site_topology()
    network = topo.network
    with pytest.raises(SimulationError):
        network.set_message_loss(1.0)
    with pytest.raises(SimulationError):
        network.set_message_loss(0.1, site_a="alpha")  # missing site_b
    network.set_message_loss(0.25, site_a="alpha", site_b="beta")
    assert network.wan_link("alpha", "beta").loss_prob == 0.25
    assert network.wan_link("alpha", "gamma").loss_prob == 0.0


# -- WAN partitions --------------------------------------------------------


def test_partition_downs_exactly_the_crossing_links():
    topo = _three_site_topology()
    network = topo.network
    downed = network.partition([["alpha"], ["beta", "gamma"]])
    assert network.partitioned
    assert not network.reachable("alpha", "beta")
    assert not network.reachable("alpha", "gamma")
    assert network.reachable("beta", "gamma")
    assert network.reachable("alpha", "alpha")  # LAN untouched
    assert sorted(downed) == [("alpha", "beta"), ("alpha", "gamma")]


def test_heal_restores_only_partition_downed_links():
    topo = _three_site_topology()
    network = topo.network
    # beta-gamma goes down independently, before the partition
    network.wan_link("beta", "gamma").fail()
    network.partition([["alpha"], ["beta", "gamma"]])
    network.heal_partition()
    assert not network.partitioned
    assert network.reachable("alpha", "beta")
    assert network.reachable("alpha", "gamma")
    # the independent outage is NOT healed by the partition ending
    assert not network.reachable("beta", "gamma")


def test_partition_validation():
    topo = _three_site_topology()
    network = topo.network
    with pytest.raises(SimulationError):
        network.partition([["alpha"], ["beta"]])  # gamma unassigned
    with pytest.raises(SimulationError):
        network.partition([["alpha", "beta"], ["beta", "gamma"]])
    with pytest.raises(SimulationError):
        network.partition([["alpha"], ["beta", "gamma", "nope"]])
    network.partition([["alpha"], ["beta", "gamma"]])
    with pytest.raises(SimulationError):
        network.partition([["alpha", "beta"], ["gamma"]])  # already active


def test_site_estimate_creates_its_missing_wan_link_down_inside_a_partition():
    """``site_transfer_time_estimate`` keeps the resolved pair, so the
    first call for a pair must still go through ``wan_link``: a site that
    joined after the partition began is in no group, and its lazily
    created WAN links are born down and healed with the rest."""
    topo = _three_site_topology()
    network = topo.network
    network.partition([["alpha"], ["beta", "gamma"]])
    network.register_host("d1", "delta")
    default = network.default_wan
    for _ in range(2):  # resolved, then read back: the same float
        assert network.site_transfer_time_estimate("delta", "alpha", 4.0) == (
            default.latency_s + 4.0 / default.bandwidth_mbps)
    assert not network.wan_link("alpha", "delta").up
    assert ("alpha", "delta") in network.heal_partition()
    assert network.reachable("alpha", "delta")


def test_site_estimate_follows_a_replaced_link_and_still_checks_the_size():
    network = _three_site_topology().network
    before = network.site_transfer_time_estimate("alpha", "beta", 4.0)
    assert before == 0.02 + 4.0 / 2.0
    network.set_wan("alpha", "beta", LinkSpec(latency_s=0.5, bandwidth_mbps=8.0))
    assert network.site_transfer_time_estimate("alpha", "beta", 4.0) == 0.5 + 4.0 / 8.0
    assert network.site_transfer_time_estimate("beta", "alpha", 4.0) == 0.5 + 4.0 / 8.0
    lan = network.site_transfer_time_estimate("alpha", "alpha", 4.0)
    network.set_lan("alpha", LinkSpec(latency_s=0.25, bandwidth_mbps=16.0))
    assert lan != network.site_transfer_time_estimate("alpha", "alpha", 4.0) == (
        0.25 + 4.0 / 16.0)
    with pytest.raises(ValueError, match="negative transfer size"):
        network.site_transfer_time_estimate("alpha", "beta", -1.0)


def test_scheduled_partition_kills_inflight_wan_transfer_and_heals():
    topo = _three_site_topology()
    sim = topo.sim
    network = topo.network
    injector = FailureInjector(sim)
    injector.schedule_partition(
        network, [["alpha"], ["beta", "gamma"]], start=1.0, duration=5.0
    )
    caught = {}

    def cross():
        t = network.transfer("a1", "b1", 100.0)  # long WAN transfer
        try:
            yield t.done
        except LinkDownError:
            caught["at"] = sim.now

    sim.process(cross())
    sim.run(until=10.0)
    assert caught["at"] == pytest.approx(1.0)
    assert network.reachable("alpha", "beta")  # healed at t=6
    kinds = [(e.host, e.kind) for e in injector.log]
    assert ("partition:alpha | beta,gamma", "partition") in kinds
    assert ("partition:alpha | beta,gamma", "heal") in kinds


# -- injector guards (scripted) --------------------------------------------


def test_schedule_rejects_past_events():
    topo = _three_site_topology()
    sim = topo.sim
    injector = FailureInjector(sim)
    sim.run(until=5.0)
    with pytest.raises(ValueError):
        injector.schedule(topo.host("a1"), time=4.0)
    with pytest.raises(ValueError):
        injector.schedule_link_corruption(topo.network.lan_link("alpha"),
                                          time=4.9, corrupt_prob=0.5)
    with pytest.raises(ValueError):
        injector.schedule_partition(
            topo.network, [["alpha"], ["beta", "gamma"]], start=1.0, duration=2.0
        )
    # now or later is fine
    injector.schedule(topo.host("a1"), time=5.0)


def test_duplicate_down_events_are_tolerated():
    """Overlapping scripted + stochastic injectors must not corrupt the
    downtime intervals: a second 'down' while already down is a no-op."""
    topo = _three_site_topology()
    sim = topo.sim
    injector = FailureInjector(sim)
    host = topo.host("a1")
    injector.schedule(host, time=1.0, kind="down")
    injector.schedule(host, time=2.0, kind="down")  # duplicate
    injector.schedule(host, time=4.0, kind="up")
    injector.schedule(host, time=5.0, kind="up")  # duplicate
    sim.run(until=10.0)
    # only effective changes were logged
    assert [(e.time, e.kind) for e in injector.log] == [(1.0, "down"), (4.0, "up")]
    assert injector.downtime_intervals("a1") == [(1.0, 4.0)]


def test_downtime_intervals_tolerates_raw_duplicate_log_entries():
    """Even if duplicates somehow land in the log, pairing stays sane."""
    from repro.sim.failures import FailureEvent

    sim = Simulator()
    injector = FailureInjector(sim)
    injector.log.extend([
        FailureEvent(1.0, "h", "down"),
        FailureEvent(2.0, "h", "down"),
        FailureEvent(3.0, "h", "up"),
        FailureEvent(7.0, "h", "up"),
        FailureEvent(8.0, "h", "down"),
    ])
    assert injector.downtime_intervals("h") == [(1.0, 3.0), (8.0, None)]


def test_stochastic_link_injector_is_deterministic():
    def run_once():
        topo = _three_site_topology(seed=7)
        injector = FailureInjector(topo.sim)
        injector.start_random_link(
            topo.network.wan_link("alpha", "beta"), mtbf_s=5.0, mttr_s=2.0
        )
        topo.sim.run(until=60.0)
        return [(e.time, e.kind) for e in injector.log]

    first, second = run_once(), run_once()
    assert first == second
    assert len(first) >= 2
