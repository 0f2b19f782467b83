"""Tests: Group/Site Manager crashes, deputy failover, bid exclusion."""

import pytest

from repro import VDCE
from repro.afg import ApplicationFlowGraph, TaskNode, TaskProperties
from repro.net.rpc import ManagerUnavailable
from repro.runtime.monitor import Measurement
from repro.scheduler import SiteScheduler
from repro.sim import FailureInjector
from repro.trace.events import EventKind
from repro.trace.tracer import Tracer

from tests.runtime.conftest import build_runtime, chain_afg


class TestGroupManagerFailover:
    def build(self, seed=9):
        env = VDCE.standard(
            n_sites=1, hosts_per_site=3, seed=seed, tracer=Tracer()
        )
        env.start_monitoring()
        name = sorted(env.runtime.group_managers)[0]
        return env, env.runtime.group_managers[name]

    def test_monitors_promote_a_deputy_after_a_crash(self):
        env, gm = self.build()
        injector = FailureInjector(env.sim)
        injector.schedule_group_manager_crash(gm, time=2.0)
        env.sim.run(until=10.0)
        # a surviving Monitor daemon noticed and requested failover
        assert gm.alive
        assert gm.failovers == 1
        assert env.runtime.stats.failovers == 1
        assert gm.deputy_host in gm.host_names
        kinds = [e.kind for e in env.tracer.events()]
        assert EventKind.MANAGER_CRASH in kinds
        assert EventKind.FAILOVER in kinds

    def test_failover_happens_once_not_per_monitor(self):
        """Every Monitor in the group notices; only one deputy is promoted."""
        env, gm = self.build()
        injector = FailureInjector(env.sim)
        injector.schedule_group_manager_crash(gm, time=2.0)
        env.sim.run(until=30.0)
        assert gm.failovers == 1
        assert env.runtime.stats.failovers == 1

    def test_deputy_election_is_deterministic(self):
        deputies = set()
        for _ in range(2):
            env, gm = self.build(seed=9)
            injector = FailureInjector(env.sim)
            injector.schedule_group_manager_crash(gm, time=2.0)
            env.sim.run(until=10.0)
            deputies.add(gm.deputy_host)
        assert len(deputies) == 1

    def test_echo_detection_still_works_after_failover(self):
        env, gm = self.build()
        injector = FailureInjector(env.sim)
        injector.schedule_group_manager_crash(gm, time=2.0)
        env.sim.run(until=10.0)
        assert gm.alive
        victim = sorted(gm.host_names - {gm.deputy_host})[0]
        env.topology.host(victim).fail()
        env.sim.run(until=40.0)
        assert not gm.believes_up(victim)
        assert any(h == victim for _t, h, _k in env.runtime.stats.detection_log)

    def test_no_orphaned_group_after_failover(self):
        """Chaos invariant I6 in miniature: after a GM crash + failover,
        every host still belongs to exactly one live Group Manager."""
        env, gm = self.build()
        injector = FailureInjector(env.sim)
        injector.schedule_group_manager_crash(gm, time=2.0)
        env.sim.run(until=10.0)
        owners = {}
        for name, manager in env.runtime.group_managers.items():
            assert manager.alive
            for host in manager.host_names:
                owners.setdefault(host, []).append(name)
        for host in env.topology.all_hosts:
            assert len(owners.get(host.name, [])) == 1

    def test_timed_crash_recovers_without_failover(self):
        """With a duration the original GM comes back before any monitor
        can promote a deputy only if recovery precedes the next tick —
        either way the group ends owned by exactly one live manager."""
        env, gm = self.build()
        injector = FailureInjector(env.sim)
        injector.schedule_group_manager_crash(gm, time=2.0, duration=0.5)
        env.sim.run(until=10.0)
        assert gm.alive
        kinds = [e.kind for e in env.tracer.events()]
        assert EventKind.MANAGER_RECOVER in kinds or EventKind.FAILOVER in kinds

    def test_crashed_gm_ignores_measurements(self):
        # no monitors running: nobody can promote a deputy, so the
        # manager stays crashed and must drop incoming reports
        env = VDCE.standard(n_sites=1, hosts_per_site=3, seed=9)
        gm = env.runtime.group_managers[
            sorted(env.runtime.group_managers)[0]
        ]
        gm.crash()
        host = sorted(gm.host_names)[0]
        before = env.runtime.stats.workload_forwards
        gm.receive_measurement(
            Measurement(host=host, load=9.9, available_memory_mb=1)
        )
        assert env.runtime.stats.workload_forwards == before


class TestSiteManagerCrash:
    def build_two_sites(self):
        # beta's hosts are much faster: a k=1 schedule from alpha
        # normally places the chain there
        return build_runtime(
            site_hosts={
                "alpha": [("a1", 1.0, 256), ("a2", 1.0, 256)],
                "beta": [("b1", 8.0, 256), ("b2", 8.0, 256)],
            }
        )

    def test_crashed_site_is_excluded_from_bidding(self):
        rt = self.build_two_sites()
        afg = chain_afg(n=3)
        baseline = SiteScheduler(k=1).schedule(afg, rt.federation_view())
        assert "beta" in baseline.sites_used()

        rt.site_managers["beta"].crash()
        table = SiteScheduler(k=1).schedule(afg, rt.federation_view())
        assert table.sites_used() == ["alpha"]

    def test_recovered_site_bids_again(self):
        rt = self.build_two_sites()
        afg = chain_afg(n=3)
        rt.site_managers["beta"].crash()
        rt.site_managers["beta"].recover()
        table = SiteScheduler(k=1).schedule(afg, rt.federation_view())
        assert "beta" in table.sites_used()

    def test_crashed_sm_buffers_reports_and_replays_on_recover(self):
        rt = build_runtime()
        sm = rt.site_managers["alpha"]
        sm.crash()
        sm.receive_failure("a1")
        # while crashed nothing reaches the resource DB
        assert sm.repository.resources.get("a1").up
        sm.recover()
        assert not sm.repository.resources.get("a1").up
        sm.receive_recovery("a1")
        assert sm.repository.resources.get("a1").up

    def test_crashed_sm_raises_typed_error_on_allocation(self):
        rt = build_runtime()
        sm = rt.site_managers["alpha"]
        sm.crash()
        afg = ApplicationFlowGraph("x")
        afg.add_task(TaskNode(id="t", task_type="generic.source",
                              n_out_ports=1,
                              properties=TaskProperties(workload_scale=1.0)))
        with pytest.raises(ManagerUnavailable, match="site manager"):
            sm.handle_bid_request(["generic.source"], rt.model)

    def test_crashed_sm_never_bids_on_reselect(self):
        rt = build_runtime()
        sm = rt.site_managers["alpha"]
        afg = chain_afg(n=2)
        sm.crash()
        assert sm.reselect_host(afg, "t0", frozenset(), rt.model) is None

    def test_reselect_masks_excluded_and_quarantined_hosts(self):
        """Exclusion and quarantine are one mask over one bid: the
        replacement is the best host that is neither."""
        from repro.runtime.straggler import HealthPolicy

        rt = build_runtime(
            site_hosts={"alpha": [("a1", 1.0, 256), ("a2", 2.0, 256),
                                  ("a3", 4.0, 256)]},
            health=HealthPolicy(),
        )
        sm = rt.site_managers["alpha"]
        afg = chain_afg(n=2)

        def pick(*excluded):
            bid = sm.reselect_host(afg, "t0", frozenset(excluded), rt.model)
            return bid and bid.hosts

        assert pick() == ("a3",)
        assert pick("a3") == ("a2",)
        rt.health.penalize("a2", rt.health.policy.quarantine_threshold)
        assert pick("a3") == ("a1",)  # a2 quarantined, a3 excluded
        assert pick("a1", "a3") is None
        # a penalty short of quarantine multiplies the prediction
        rt.health.penalize("a3", 1.0)
        bid = sm.reselect_host(afg, "t0", frozenset(), rt.model)
        clean = rt.model.predict(
            "generic.source", 1.0, 1, sm.repository.resources.get("a3"),
            sm.repository.task_perf)
        assert bid.hosts == ("a3",)
        assert bid.predicted_time == clean * rt.health.factor_of("a3")
