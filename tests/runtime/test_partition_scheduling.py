"""Scheduling and execution under scripted WAN partitions.

The tentpole behaviours: the site scheduler proceeds with whichever of
the k remote sites answered the AFG multicast before the bid deadline
(degrading to local-only under a full partition), the allocation
distribution moves work off unreachable sites, and an execution in
flight when a partition hits survives by retrying its transfers once
the partition heals.
"""

from repro.scheduler import SiteScheduler

from tests.runtime.conftest import build_runtime, chain_afg

THREE_SITES = {
    "alpha": [("a1", 1.0, 256), ("a2", 1.0, 256)],
    "beta": [("b1", 2.0, 256), ("b2", 2.0, 256)],
    "gamma": [("g1", 3.0, 256), ("g2", 3.0, 256)],
}


def _schedule(rt, afg, k=2):
    def run():
        result = yield from rt.schedule_process(afg, SiteScheduler(k=k))
        return result

    return rt.sim.run_until_complete(rt.sim.process(run()), limit=1e5)


def test_partitioned_site_is_left_out_of_scheduling():
    rt = build_runtime(site_hosts=THREE_SITES)
    # gamma (the fastest site) is cut off from alpha before scheduling
    rt.topology.network.partition([["alpha", "beta"], ["gamma"]])
    afg = chain_afg(n=4, scale=5.0)
    table, _ = _schedule(rt, afg, k=2)
    assert table.is_complete_for(afg)
    assert "gamma" not in table.sites_used()
    # the unreachable site cost one timed-out RPC, visibly
    assert rt.stats.rpc_timeouts >= 1


def test_full_partition_degrades_to_local_only():
    rt = build_runtime(site_hosts=THREE_SITES)
    rt.topology.network.partition([["alpha"], ["beta"], ["gamma"]])
    afg = chain_afg(n=4, scale=5.0)
    table, _ = _schedule(rt, afg, k=2)
    assert table.is_complete_for(afg)
    assert table.sites_used() == ["alpha"]


def test_no_partition_uses_remote_sites():
    """Control: with the WAN healthy the fast remote hosts win work."""
    rt = build_runtime(site_hosts=THREE_SITES)
    afg = chain_afg(n=4, scale=5.0)
    table, _ = _schedule(rt, afg, k=2)
    used = set(table.sites_used())
    assert used & {"beta", "gamma"}


def _manual_cross_site_table(afg, placements):
    from repro.scheduler.allocation import AllocationTable, TaskAssignment

    table = AllocationTable(afg.name, scheduler="manual")
    for task_id, (site, host) in placements.items():
        table.assign(TaskAssignment(task_id, site, (host,), 1.0))
    return table


def test_partition_during_execution_heals_and_app_completes():
    """A partition that hits mid-execution kills cross-site transfers;
    the coordinator re-establishes channels and retries until the WAN
    heals, and the application still completes."""
    rt = build_runtime(site_hosts=THREE_SITES)
    network = rt.topology.network
    afg = chain_afg(n=4, scale=2.0, edge_mb=8.0)  # slow WAN edges
    table = _manual_cross_site_table(afg, {
        "t0": ("alpha", "a1"),
        "t1": ("beta", "b1"),
        "t2": ("beta", "b2"),
        "t3": ("gamma", "g1"),
    })

    from repro.sim import FailureInjector

    injector = FailureInjector(rt.sim)
    start = rt.sim.now + 1.0
    injector.schedule_partition(
        network, [["alpha"], ["beta", "gamma"]], start=start, duration=6.0
    )
    proc = rt.execute_process(afg, table, execute_payloads=False)
    result = rt.sim.run_until_complete(proc, limit=1e5)
    assert result.finished_at > start  # the fault window overlapped
    assert not network.partitioned
    # the alpha->beta dataflow edge had to be retried across the outage
    assert result.transfer_retries >= 1
    assert result.channel_reestablishes >= 1


def test_allocation_moves_tasks_off_unreachable_site():
    """A site that never acknowledges its allocation portion loses its
    tasks to reachable sites before execution starts."""
    rt = build_runtime(site_hosts=THREE_SITES)
    afg = chain_afg(n=4, scale=5.0)
    table, _ = _schedule(rt, afg, k=2)
    remote_sites = [s for s in table.sites_used() if s != "alpha"]
    assert remote_sites  # placement did go remote
    # cut every WAN link touching alpha *after* scheduling, before execution
    rt.topology.network.partition([["alpha"], ["beta", "gamma"]])
    proc = rt.execute_process(afg, table, execute_payloads=False)
    result = rt.sim.run_until_complete(proc, limit=1e5)
    # every task ended up on the only reachable site
    assert {r.site for r in result.records.values()} == {"alpha"}
    assert result.reschedules >= 1
    moved = [r for r in result.records.values() if r.reschedule_reasons]
    assert any("unreachable" in reason
               for r in moved for reason in r.reschedule_reasons)


def test_mid_execution_transfer_retry_telemetry():
    """A link outage during a dataflow transfer surfaces in the
    per-task retry telemetry and the application result dict."""
    rt = build_runtime(site_hosts=THREE_SITES)
    network = rt.topology.network
    afg = chain_afg(n=3, scale=1.0, edge_mb=20.0)  # ~10s WAN transfers
    table = _manual_cross_site_table(afg, {
        "t0": ("alpha", "a1"),
        "t1": ("beta", "b1"),
        "t2": ("gamma", "g1"),
    })

    from repro.sim import FailureInjector

    injector = FailureInjector(rt.sim)
    # break every WAN link briefly, a moment into execution
    t0 = rt.sim.now
    for pair in (("alpha", "beta"), ("alpha", "gamma"), ("beta", "gamma")):
        injector.schedule_link_outage(network.wan_link(*pair),
                                      start=t0 + 3.0, duration=2.0)
    proc = rt.execute_process(afg, table, execute_payloads=False)
    result = rt.sim.run_until_complete(proc, limit=1e5)
    assert result.transfer_retries >= 1
    assert rt.stats.transfer_retries >= 1
    payload = result.to_dict()
    assert payload["transfer_retries"] == result.transfer_retries
    assert payload["channel_reestablishes"] == result.channel_reestablishes
    per_task = sum(t["transfer_retries"] for t in payload["tasks"].values())
    assert per_task == result.transfer_retries


def _lossy_partitioned_run(pre_touch=()):
    """The partition scenario above on a lossy federation — lossy WAN
    control messages, lossy LAN echoes — so the ``retry:``, ``rpc:`` and
    ``echo:`` streams all draw.  ``pre_touch`` names are materialised,
    undrawn, before anything runs."""
    from repro.sim import FailureInjector
    from repro.trace import Tracer, trace_hash

    rt = build_runtime(site_hosts=THREE_SITES, tracer=Tracer(),
                       echo_loss_prob=0.2)
    for name in pre_touch:
        rt.sim.rng(name)
    network = rt.topology.network
    network.set_message_loss(0.15)
    rt.start_monitoring()
    afg = chain_afg(n=4, scale=2.0, edge_mb=8.0)
    table = _manual_cross_site_table(afg, {
        "t0": ("alpha", "a1"),
        "t1": ("beta", "b1"),
        "t2": ("beta", "b2"),
        "t3": ("gamma", "g1"),
    })
    start = rt.sim.now + 1.0
    FailureInjector(rt.sim).schedule_partition(
        network, [["alpha"], ["beta", "gamma"]], start=start, duration=6.0
    )
    proc = rt.execute_process(afg, table, execute_payloads=False)
    result = rt.sim.run_until_complete(proc, limit=1e5)
    assert result.finished_at > start
    assert result.transfer_retries >= 1
    assert rt.stats.rpc_retries >= 1
    facts = {
        task: (r.hosts, r.started_at, r.finished_at, r.transfer_retries)
        for task, r in sorted(result.records.items())
    }
    return rt, facts, trace_hash(rt.tracer)


def test_fault_path_draws_the_same_numbers_whenever_streams_materialise():
    """Streams are taken where they draw, so (a) every stream a faulty
    run materialised was drawn from, and (b) materialising them — and
    decoys that never draw — up front, in any order, changes nothing."""
    from repro.sim import Simulator

    rt, facts, digest = _lossy_partitioned_run()
    names = list(rt.sim._rngs)
    assert {n.split(":")[0] for n in names} == {"retry", "rpc", "echo"}
    untouched = Simulator(seed=rt.sim.seed)
    assert [
        n for n in names
        if rt.sim.rng(n).bit_generator.state
        == untouched.rng(n).bit_generator.state
    ] == []

    decoys = ["retry:chain:t2->t3", "retry:chain:decoy", "rpc:gamma->alpha",
              "rpc:nowhere->alpha"]
    eager, eager_facts, eager_digest = _lossy_partitioned_run(
        pre_touch=list(reversed(names)) + decoys
    )
    assert eager.sim.rng_streams > len(names)
    assert eager_facts == facts
    assert eager_digest == digest
    assert eager.stats.as_dict() == rt.stats.as_dict()
