"""Runtime elastic membership: join, drain, retire, rejoin, resume.

The full-stack counterpart of ``tests/repository/test_membership.py``:
the :class:`~repro.runtime.membership.MembershipCoordinator` must drive
every layer (topology, repositories, group manager beliefs, monitors,
application controllers) in one step, a graceful drain must lose zero
work, and a checkpointed application must survive resuming on a
federation whose membership changed while it was down (satellite 2).
"""

import json

import pytest

from repro.core.vdce import VDCE
from repro.repository.resources import MembershipError, MembershipState
from repro.runtime.checkpoint import (
    ApplicationCheckpoint,
    CheckpointJournal,
    create_checkpoint_dir,
    expected_output_hashes,
    final_output_hashes,
    journal_path,
    resume_run,
)
from repro.scheduler import SiteScheduler
from repro.sim.host import HostSpec
from repro.trace.events import EventKind
from repro.trace.tracer import Tracer
from repro.workloads import linear_pipeline

from tests.runtime.conftest import build_runtime, chain_afg


def start_run(runtime, afg, k=1):
    table = SiteScheduler(k=k).schedule(afg, runtime.federation_view())
    return runtime.execute_process(afg, table), table


class TestAdmit:
    def test_admitted_host_is_fully_wired(self):
        runtime = build_runtime()
        group = runtime.topology.site("alpha").groups["alpha-g0"]
        runtime.membership.admit_host(
            "alpha", group.name, HostSpec(name="a9", speed=8.0)
        )
        repo = runtime.repositories["alpha"]
        assert repo.resources.membership_state("a9") == MembershipState.ACTIVE
        assert repo.constraints.references_host("a9")
        assert "a9" in runtime.monitors
        assert "a9" in runtime.app_controllers
        assert runtime.topology.host("a9").site_name == "alpha"
        assert [t["transition"] for t in runtime.membership.transitions] \
            == ["join"]

    def test_admitted_host_attracts_work(self):
        runtime = build_runtime()
        group = runtime.topology.site("alpha").groups["alpha-g0"]
        runtime.membership.admit_host(
            "alpha", group.name, HostSpec(name="a9", speed=16.0)
        )
        result = runtime.submit(chain_afg(n=3), SiteScheduler(k=1))
        used = {h for r in result.records.values() for h in r.hosts}
        assert "a9" in used

    def test_admitting_a_departed_name_demands_rejoin(self):
        runtime = build_runtime()
        runtime.membership.retire_host("a2")
        with pytest.raises(MembershipError, match="use rejoin_host"):
            runtime.membership.admit_host(
                "alpha", "alpha-g0", HostSpec(name="a2")
            )


class TestDrain:
    def test_drain_is_invisible_when_nothing_is_resident(self):
        """Draining an idle host evicts nothing and retires cleanly."""
        runtime = build_runtime()
        runtime.membership.drain_host("a2", deadline_s=1.0)
        repo = runtime.repositories["alpha"]
        assert repo.resources.membership_state("a2") \
            == MembershipState.DRAINING
        assert runtime.membership.is_draining("a2")
        runtime.sim.run(until=2.0)
        assert repo.resources.membership_state("a2") \
            == MembershipState.DEPARTED
        depart = runtime.membership.transitions[-1]
        assert depart["transition"] == "depart"
        assert depart["preempted"] == 0

    def test_mid_application_drain_loses_no_work(self):
        """The headline oracle: drain the busiest host mid-run, finish
        with byte-identical outputs to the pure evaluation."""
        runtime = build_runtime()
        afg = chain_afg(n=4, scale=6.0)
        expected = expected_output_hashes(afg, runtime.registry)
        proc, _table = start_run(runtime, afg)
        runtime.sim.run(until=2.0)
        # the fastest host (b2, a non-leader) is mid-task; evict it
        # almost at once
        assert runtime.topology.host("b2").n_running > 0
        runtime.membership.drain_host("b2", deadline_s=0.25)
        result = runtime.sim.run_until_complete(proc)

        assert final_output_hashes(result) == expected
        assert all(r.measured_time > 0 for r in result.records.values())
        reasons = [
            reason
            for r in result.records.values()
            for reason in r.reschedule_reasons
        ]
        assert any("membership change" in reason or "decommissioned" in reason
                   for reason in reasons)
        # nothing placed on b2 after the drain became visible
        for record in result.records.values():
            if "b2" in record.hosts:
                started = record.finished_at - record.measured_time
                assert started < 2.0
        assert runtime.repositories["beta"].resources \
            .membership_state("b2") == MembershipState.DEPARTED

    @pytest.mark.parametrize("site,host", [
        ("beta", "b2"), ("downtown", "sundown"),
    ])
    def test_a_drain_is_no_failure_restart_whatever_the_host_is_called(
            self, site, host):
        """Causes are typed, reasons are prose: the same mid-application
        drain re-places the same three attempts and counts no failure
        restart — also when the names embedded in the reasons happen to
        spell "down"."""
        runtime = build_runtime(site_hosts={
            "alpha": [("a1", 1.0, 256), ("a2", 2.0, 256)],
            site: [("b1", 1.5, 256), (host, 3.0, 256)],
        })
        proc, _table = start_run(runtime, chain_afg(n=4, scale=6.0))
        runtime.sim.run(until=2.0)
        assert runtime.topology.host(host).n_running > 0
        runtime.membership.drain_host(host, deadline_s=0.25)
        result = runtime.sim.run_until_complete(proc)
        reasons = [
            reason
            for r in result.records.values()
            for reason in r.reschedule_reasons
        ]
        assert len(reasons) == 3
        assert all(host in reason for reason in reasons)
        assert runtime.stats.reschedule_requests == 3
        assert runtime.stats.failure_restarts == 0

    def test_generous_deadline_preempts_nothing(self):
        """Residents that finish inside the grace window are not evicted.

        Downstream tasks still reroute off the DRAINING host (I14 —
        placements stop the instant the transition is visible), but the
        attempt that was resident when the drain began runs to
        completion, and the deferred retire finds nothing to preempt.
        """
        runtime = build_runtime()
        afg = chain_afg(n=3, scale=1.0)
        expected = expected_output_hashes(afg, runtime.registry)
        proc, _table = start_run(runtime, afg)
        runtime.sim.run(until=0.5)
        runtime.membership.drain_host("b2", deadline_s=60.0)
        result = runtime.sim.run_until_complete(proc)
        assert final_output_hashes(result) == expected
        assert all(r.measured_time > 0 for r in result.records.values())
        # the application outran the grace window; the deferred retire
        # then finds nothing resident to preempt
        runtime.sim.run(until=65.0)
        depart = runtime.membership.transitions[-1]
        assert depart["transition"] == "depart"
        assert depart["preempted"] == 0

    def test_drain_rejects_nonpositive_deadline(self):
        runtime = build_runtime()
        with pytest.raises(ValueError, match="deadline must be positive"):
            runtime.membership.drain_host("a2", deadline_s=0.0)


class TestDrainPrices:
    """E17 (EXPERIMENTS.md): what a graceful drain buys over a hard
    decommission.  Three sites of a 1.5-speed leader and a 2.0-speed
    host; a 6-stage pipeline lands whole on a2, and at t = 3 s — one
    stage resident, four queued behind it — a2 leaves one of four ways."""

    SITES = {
        site: [(f"{p}1", 1.5, 256), (f"{p}2", 2.0, 256)]
        for site, p in (("alpha", "a"), ("beta", "b"), ("gamma", "c"))
    }

    @pytest.mark.parametrize("leave,makespan,evicted", [
        (None, 12.000, 0), (4.0, 15.069, 4), (1.0, 17.834, 5),
        ("hard", 16.834, 5),
    ], ids=["baseline", "drain-4s", "drain-1s", "hard"])
    def test_makespan_and_evictions(self, leave, makespan, evicted):
        runtime = build_runtime(site_hosts=self.SITES)
        afg = linear_pipeline(n_stages=6, cost=4.0, edge_mb=1.0)
        expected = expected_output_hashes(afg, runtime.registry)
        proc, table = start_run(runtime, afg, k=2)
        assert {a.hosts for a in table.assignments.values()} == {("a2",)}
        runtime.sim.run(until=3.0)
        if leave == "hard":
            runtime.membership.retire_host("a2")
        elif leave is not None:
            runtime.membership.drain_host("a2", deadline_s=leave)
        result = runtime.sim.run_until_complete(proc)
        assert final_output_hashes(result) == expected
        assert round(result.makespan, 3) == makespan
        assert sum(bool(r.reschedule_reasons)
                   for r in result.records.values()) == evicted


class TestRetireAndRejoin:
    def test_retire_unwires_every_layer(self):
        runtime = build_runtime()
        runtime.membership.retire_host("a2")
        repo = runtime.repositories["alpha"]
        assert not repo.resources.has_host("a2")
        assert repo.resources.departed_hosts() == {"a2": 0}
        assert not repo.constraints.references_host("a2")
        assert "a2" not in runtime.monitors
        assert "a2" not in runtime.app_controllers
        with pytest.raises(Exception):
            runtime.topology.host("a2")

    def test_rejoin_bumps_epoch_and_keeps_calibration(self):
        runtime = build_runtime()
        repo = runtime.repositories["alpha"]
        # calibrate: run an application so the task-perf DB learns
        runtime.submit(chain_afg(n=3), SiteScheduler(k=1))
        perf_rows = len(repo.task_perf)

        runtime.membership.retire_host("a2")
        runtime.membership.rejoin_host("a2", spec=HostSpec(name="a2", speed=4.0))

        record = repo.resources.get("a2")
        assert record.state == MembershipState.ACTIVE
        assert record.epoch == 1
        assert record.spec.speed == 4.0  # hardware changed under the name
        # stale-record reconciliation: calibration kept, dynamic state fresh
        assert len(repo.task_perf) == perf_rows
        assert record.load == 0.0
        assert "a2" in runtime.monitors
        # the rejoined host is schedulable and completes work again
        result = runtime.submit(chain_afg(n=3, name="again"),
                                SiteScheduler(k=1))
        used = {h for r in result.records.values() for h in r.hosts}
        assert "a2" in used

    def test_rejoin_of_never_departed_host_is_typed(self):
        runtime = build_runtime()
        with pytest.raises(MembershipError, match="never departed"):
            runtime.membership.rejoin_host("a2")

    def test_transitions_are_traced(self):
        tracer = Tracer()
        runtime = build_runtime(config=None)
        runtime.tracer = tracer  # not wired post-hoc into components...
        # ...so drive the coordinator's own tracer directly
        runtime.membership.tracer = tracer
        runtime.membership.drain_host("a2", deadline_s=0.5)
        runtime.sim.run(until=1.0)
        runtime.membership.rejoin_host("a2")
        kinds = [e.kind for e in tracer.events()]
        assert EventKind.HOST_DRAIN in kinds
        assert EventKind.HOST_DEPART in kinds
        assert EventKind.HOST_REJOIN in kinds


class TestLoadWatchLifecycle:
    """A host that crashes or leaves takes its load watch with it."""

    @staticmethod
    def _cancelled(tracer):
        return [e.data["task"] for e in tracer.events()
                if e.kind == EventKind.LOAD_CANCEL]

    def test_crashed_host_leaves_no_armed_check(self):
        """The per-slice watchdogs used to wake once more, up to a check
        period after their slices had died with the host."""
        tracer = Tracer()
        runtime = build_runtime(tracer=tracer)
        host = runtime.topology.host("a2")
        controller = runtime.app_controllers["a2"]
        host.set_bg_load(9.0)
        for i in range(3):
            controller.start_slice(50.0, 0, label=f"s{i}", task_id=f"s{i}")
        assert len(runtime.load_checks) == controller.n_guarded == 3
        runtime.sim.run(until=1.0)

        host.fail()
        assert len(runtime.load_checks) == controller.n_guarded == 0
        events = runtime.sim.events_processed
        runtime.sim.run(until=10.0)
        assert runtime.sim.events_processed == events
        assert self._cancelled(tracer) == []

    def test_drain_retire_rejoin_overload_cancels_each_resident_once(self):
        tracer = Tracer()
        runtime = build_runtime(tracer=tracer)
        old_host = runtime.topology.host("a2")
        old_controller = runtime.app_controllers["a2"]
        for i in range(2):
            old_controller.start_slice(
                50.0, 0, label=f"old{i}", task_id=f"old{i}")
        runtime.membership.drain_host("a2", deadline_s=0.5)
        runtime.sim.run(until=1.0)
        # retired: residents preempted, nothing armed, nobody listening
        assert old_controller.n_guarded == 0
        assert len(runtime.load_checks) == 0
        assert old_host.load_listener is None

        new_host = runtime.membership.rejoin_host("a2")
        controller = runtime.app_controllers["a2"]
        assert controller is not old_controller
        for i in range(3):
            controller.start_slice(50.0, 0, label=f"new{i}", task_id=f"new{i}")
        old_host.set_bg_load(9.0)   # the departed machine: reaches no one
        assert len(runtime.load_checks) == 0
        new_host.set_bg_load(9.0)
        runtime.sim.run(until=10.0)
        assert self._cancelled(tracer) == ["new0", "new1", "new2"]
        assert controller.n_guarded == 0
        assert len(runtime.load_checks) == 0


class TestResumeAcrossMembershipChange:
    """Satellite 2: the journal outlives the federation that wrote it."""

    def _crash_and_depart(self, tmp_path, seed=11):
        env = VDCE.standard(n_sites=2, hosts_per_site=2, seed=seed)
        afg = linear_pipeline(n_stages=5, cost=4.0, edge_mb=1.0)
        expected = expected_output_hashes(afg, env.runtime.registry)
        directory = str(tmp_path)
        journal = create_checkpoint_dir(env, directory)
        table = SiteScheduler(k=1).schedule(afg, env.runtime.federation_view())
        env.runtime.execute_process(afg, table, journal=journal)
        env.sim.run(until=2.0)  # crash mid-run: a frontier remains

        checkpoint = ApplicationCheckpoint.load(journal_path(directory))
        incomplete = checkpoint.incomplete()
        assert incomplete
        # a host the frontier is bound to departs while the app is down
        task = sorted(incomplete)[0]
        assignment = checkpoint.table.assignments[task]
        victim = assignment.hosts[0]
        env.runtime.repositories[assignment.site].deregister_host(victim)
        env.save_repositories(directory + "/repos")
        return directory, expected, victim, task

    def test_frontier_on_departed_host_is_rescheduled(self, tmp_path):
        directory, expected, victim, task = self._crash_and_depart(tmp_path)
        tracer = Tracer()
        env2, result = resume_run(directory, tracer=tracer)

        assert final_output_hashes(result) == expected
        assert victim not in result.records[task].hosts
        assert any("membership change" in reason
                   for reason in result.records[task].reschedule_reasons)
        warnings = [e for e in tracer.events()
                    if e.kind == EventKind.RESUME_MEMBERSHIP_WARNING]
        assert warnings
        assert any(victim in entry for entry in warnings[0].data["stale"])

    def test_warning_is_a_typed_journal_record(self, tmp_path):
        directory, _expected, victim, task = self._crash_and_depart(tmp_path)
        resume_run(directory)
        with open(journal_path(directory), encoding="utf-8") as fh:
            records = [json.loads(line) for line in fh if line.strip()]
        warnings = [r for r in records if r["kind"] == "membership_warning"]
        assert warnings
        assert warnings[0]["task"] == task
        assert victim in warnings[0]["hosts"]
        assert any(victim in entry for entry in warnings[0]["stale"])
        # old readers skip the unknown kind: the checkpoint still loads
        checkpoint = ApplicationCheckpoint.load(journal_path(directory))
        assert checkpoint.afg.name
