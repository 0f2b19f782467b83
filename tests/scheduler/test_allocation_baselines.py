"""Tests for allocation tables, schedule estimates and baseline schedulers."""

import pytest

from repro.afg import ApplicationFlowGraph, TaskNode, TaskProperties
from repro.metrics.schedule import slr
from repro.scheduler import (
    AllocationTable,
    HEFTScheduler,
    LoadBlindScheduler,
    LocalOnlyScheduler,
    MaxMinScheduler,
    MinMinScheduler,
    RandomScheduler,
    RoundRobinScheduler,
    SiteScheduler,
    TaskAssignment,
    estimate_schedule,
)

from tests.scheduler.conftest import build_federation


def make_afg(n_stages=4, scale=2.0):
    afg = ApplicationFlowGraph("pipeline")
    afg.add_task(TaskNode(id="t0", task_type="generic.source", n_out_ports=1,
                          properties=TaskProperties(workload_scale=scale)))
    for i in range(1, n_stages):
        afg.add_task(TaskNode(id=f"t{i}", task_type="generic.compute",
                              n_in_ports=1, n_out_ports=1,
                              properties=TaskProperties(workload_scale=scale)))
        afg.connect(f"t{i-1}", f"t{i}", size_mb=1.0)
    return afg


class TestAllocationTable:
    def test_assign_get_contains(self):
        t = AllocationTable("app")
        a = TaskAssignment("x", "s", ("h",), 1.0)
        t.assign(a)
        assert "x" in t
        assert t.get("x") is a
        assert t.get("x").site == "s"
        assert t.hosts_of("x") == ("h",)
        with pytest.raises(ValueError):
            t.assign(a)
        with pytest.raises(KeyError):
            t.get("zz")

    def test_assignment_validation(self):
        with pytest.raises(ValueError):
            TaskAssignment("x", "s", (), 1.0)
        with pytest.raises(ValueError):
            TaskAssignment("x", "s", ("h", "h"), 1.0)
        with pytest.raises(ValueError):
            TaskAssignment("x", "s", ("h",), -1.0)

    def test_sites_hosts_used_and_per_site(self):
        t = AllocationTable("app")
        t.assign(TaskAssignment("x", "s1", ("h1",), 1.0))
        t.assign(TaskAssignment("y", "s2", ("h2", "h3"), 1.0))
        t.assign(TaskAssignment("z", "s1", ("h1",), 1.0))
        assert t.sites_used() == ["s1", "s2"]
        assert {h for a in t.assignments.values() for h in a.hosts} == {"h1", "h2", "h3"}
        assert t.tasks_on_site("s1") == ["x", "z"]

    def test_validate_against(self):
        afg = make_afg(n_stages=2)
        t = AllocationTable("pipeline")
        t.assign(TaskAssignment("t0", "s", ("h",), 1.0))
        with pytest.raises(ValueError, match="missing"):
            t.validate_against(afg)
        t.assign(TaskAssignment("t1", "s", ("h",), 1.0))
        t.validate_against(afg)
        t.assign(TaskAssignment("ghost", "s", ("h",), 1.0))
        with pytest.raises(ValueError, match="unknown"):
            t.validate_against(afg)

    def test_dict_roundtrip(self):
        t = AllocationTable("app", scheduler="heft")
        t.assign(TaskAssignment("x", "s1", ("h1", "h2"), 2.5))
        restored = AllocationTable.from_dict(t.to_dict())
        assert restored.application == "app"
        assert restored.scheduler == "heft"
        assert restored.get("x").hosts == ("h1", "h2")
        assert restored.get("x").predicted_time == 2.5


class TestEstimateSchedule:
    def flat_transfer(self, cost=0.0):
        return lambda src, dst, mb: cost

    def test_chain_on_one_host_serialises(self):
        afg = make_afg(n_stages=3)
        t = AllocationTable("pipeline")
        for tid in ("t0", "t1", "t2"):
            t.assign(TaskAssignment(tid, "s", ("h",), 5.0))
        est = estimate_schedule(afg, t, self.flat_transfer())
        assert est.makespan == pytest.approx(15.0)
        assert est.start["t2"] == pytest.approx(10.0)

    def test_transfer_time_counted(self):
        afg = make_afg(n_stages=2)
        t = AllocationTable("pipeline")
        t.assign(TaskAssignment("t0", "s1", ("h1",), 5.0))
        t.assign(TaskAssignment("t1", "s2", ("h2",), 5.0))
        est = estimate_schedule(afg, t, self.flat_transfer(cost=3.0))
        assert est.makespan == pytest.approx(13.0)
        assert est.comm_time == pytest.approx(3.0)

    def test_host_contention_between_branches(self):
        afg = ApplicationFlowGraph("fork")
        afg.add_task(TaskNode(id="s", task_type="generic.split", n_in_ports=0,
                              n_out_ports=2))
        afg.add_task(TaskNode(id="a", task_type="generic.compute",
                              n_in_ports=1, n_out_ports=1))
        afg.add_task(TaskNode(id="b", task_type="generic.compute",
                              n_in_ports=1, n_out_ports=1))
        afg.connect("s", "a", src_port=0)
        afg.connect("s", "b", src_port=1)
        t = AllocationTable("fork")
        t.assign(TaskAssignment("s", "x", ("h",), 1.0))
        t.assign(TaskAssignment("a", "x", ("h",), 4.0))
        t.assign(TaskAssignment("b", "x", ("h",), 4.0))
        est = estimate_schedule(afg, t, self.flat_transfer())
        # a and b share host h back-to-back: 1 + 4 + 4
        assert est.makespan == pytest.approx(9.0)

    def test_slr(self):
        afg = make_afg(n_stages=2)
        t = AllocationTable("pipeline")
        t.assign(TaskAssignment("t0", "s", ("h",), 4.0))
        t.assign(TaskAssignment("t1", "s", ("h",), 4.0))
        est = estimate_schedule(afg, t, self.flat_transfer())
        assert slr(est.makespan, 4.0) == pytest.approx(2.0)
        with pytest.raises(ValueError):
            slr(est.makespan, 0.0)


def site_transfer(view):
    return lambda src, dst, mb: (
        0.0 if src.hosts[0] == dst.hosts[0]
        else view.site_transfer_time(src.site, dst.site, mb)
    )


ALL_SCHEDULERS = [
    ("vdce", lambda: SiteScheduler(k=1)),
    ("local", LocalOnlyScheduler),
    ("load-blind", lambda: LoadBlindScheduler(k=1)),
    ("random", lambda: RandomScheduler(seed=3)),
    ("round-robin", RoundRobinScheduler),
    ("min-min", MinMinScheduler),
    ("max-min", MaxMinScheduler),
    ("heft", HEFTScheduler),
]


class TestBaselines:
    @pytest.mark.parametrize("name,factory", ALL_SCHEDULERS)
    def test_every_scheduler_produces_complete_table(self, name, factory):
        _, _, view = build_federation()
        afg = make_afg(n_stages=5)
        table = factory().schedule(afg, view)
        assert table.is_complete_for(afg)
        table.validate_against(afg)

    def test_random_is_seed_deterministic(self):
        _, _, view = build_federation()
        afg = make_afg()
        t1 = RandomScheduler(seed=5).schedule(afg, view)
        t2 = RandomScheduler(seed=5).schedule(afg, view)
        assert t1.to_dict() == t2.to_dict()

    @pytest.mark.parametrize("seed,error", [
        (-1, ValueError), (1.5, TypeError), ("7", TypeError)])
    def test_random_refuses_a_bad_seed_at_construction(self, seed, error):
        with pytest.raises(error):
            RandomScheduler(seed=seed)

    def test_random_seed_changes_placement(self):
        _, _, view = build_federation()
        afg = make_afg(n_stages=8)
        tables = [RandomScheduler(seed=s).schedule(afg, view).to_dict()
                  for s in range(5)]
        assert any(t != tables[0] for t in tables[1:])

    def test_round_robin_spreads_tasks(self):
        _, _, view = build_federation()
        afg = make_afg(n_stages=6)
        table = RoundRobinScheduler().schedule(afg, view)
        assert len({h for a in table.assignments.values() for h in a.hosts}) > 1

    def test_local_only_stays_local(self):
        _, _, view = build_federation()
        table = LocalOnlyScheduler().schedule(make_afg(), view)
        assert table.sites_used() == ["alpha"]

    def test_load_blind_ignores_load(self):
        topo, repos, view = build_federation()
        # overload the fast hosts; load-blind should still pick them
        for repo in repos.values():
            for name in repo.resources.host_names():
                if "fast" in name:
                    repo.resources.update_workload(name, load=20.0,
                                                   available_memory_mb=256,
                                                   time=0.0)
        afg = make_afg(n_stages=1)
        blind = LoadBlindScheduler(k=1).schedule(afg, view)
        aware = SiteScheduler(k=1).schedule(afg, view)
        assert "fast" in blind.get("t0").hosts[0]
        assert "fast" not in aware.get("t0").hosts[0]

    def test_heft_beats_random_on_heterogeneous_pipeline(self):
        _, _, view = build_federation()
        afg = make_afg(n_stages=8, scale=4.0)
        heft = HEFTScheduler().schedule(afg, view)
        rnd = RandomScheduler(seed=1).schedule(afg, view)
        xfer = site_transfer(view)
        assert (
            estimate_schedule(afg, heft, xfer).makespan
            <= estimate_schedule(afg, rnd, xfer).makespan
        )

    def test_vdce_close_to_heft_on_pipeline(self):
        _, _, view = build_federation()
        afg = make_afg(n_stages=8, scale=4.0)
        xfer = site_transfer(view)
        vdce = estimate_schedule(afg, SiteScheduler(k=1).schedule(afg, view), xfer)
        heft = estimate_schedule(afg, HEFTScheduler().schedule(afg, view), xfer)
        assert vdce.makespan <= 2.0 * heft.makespan

    def test_minmin_maxmin_differ_on_mixed_widths(self):
        _, _, view = build_federation()
        afg = ApplicationFlowGraph("mixed")
        for i, scale in enumerate([1.0, 1.0, 20.0, 20.0]):
            afg.add_task(TaskNode(id=f"j{i}", task_type="generic.source",
                                  n_out_ports=1,
                                  properties=TaskProperties(workload_scale=scale)))
        mm = MinMinScheduler().schedule(afg, view)
        xm = MaxMinScheduler().schedule(afg, view)
        assert mm.is_complete_for(afg) and xm.is_complete_for(afg)
        # max-min places the big jobs first (they get the fastest hosts)
        big_hosts_xm = {xm.get("j2").hosts[0], xm.get("j3").hosts[0]}
        assert any("fast" in h for h in big_hosts_xm)
