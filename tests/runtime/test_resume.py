"""Tests: crash + resume reproduces the uninterrupted run's outputs.

The resume-equivalence oracle: tasklib implementations are
deterministic pure functions of ``(inputs, scale)``, so
``expected_output_hashes`` (pure evaluation, no runtime) is the ground
truth any run must reproduce — uninterrupted, crashed-and-resumed,
failed-over or restarted on another site.
"""

import json
from dataclasses import fields

import pytest

from repro import VDCE, DeploymentSpec, HostSpec
from repro.runtime.checkpoint import (
    ApplicationCheckpoint,
    CheckpointJournal,
    create_checkpoint_dir,
    expected_output_hashes,
    final_output_hashes,
    journal_path,
    resume_run,
)
from repro.runtime.execution import ExecutionCoordinator
from repro.net.rpc import ManagerUnavailable
from repro.scheduler import SiteScheduler
from repro.sim import FailureInjector, SimulationError
from repro.workloads import linear_pipeline

CRASH_POINTS_S = (2.0, 5.0, 9.0)


def start_checkpointed_run(tmp_path, seed, n_stages=5, env=None):
    env = env or VDCE.standard(n_sites=2, hosts_per_site=2, seed=seed)
    afg = linear_pipeline(n_stages=n_stages, cost=4.0, edge_mb=1.0)
    expected = expected_output_hashes(afg, env.runtime.registry)
    journal = create_checkpoint_dir(env, str(tmp_path))
    table = SiteScheduler(k=1).schedule(afg, env.runtime.federation_view())
    proc = env.runtime.execute_process(afg, table, journal=journal)
    return env, afg, proc, expected


class TestResumeEquivalence:
    @pytest.mark.parametrize("seed", [11, 12, 13])
    def test_crash_resume_matches_pure_evaluation(self, seed, tmp_path):
        """3 crash points x this seed: byte-identical terminal hashes."""
        completed_counts = []
        for crash_at in CRASH_POINTS_S:
            directory = tmp_path / f"crash-at-{crash_at}"
            env, afg, _proc, expected = start_checkpointed_run(
                directory, seed
            )
            env.sim.run(until=crash_at)  # the "crash": the process dies here
            env.save_repositories(str(directory / "repos"))

            checkpoint = ApplicationCheckpoint.load(
                journal_path(str(directory))
            )
            completed_counts.append(len(checkpoint.completed))
            assert set(checkpoint.incomplete()) | set(checkpoint.completed) \
                == set(afg.topological_order())

            env2, result = resume_run(str(directory))
            assert final_output_hashes(result) == expected
            assert env2.runtime.stats.resumes == 1
            # restored tasks were not re-executed
            restored = set(checkpoint.completed)
            for task_id in restored:
                assert result.records[task_id].finished_at \
                    == checkpoint.completed[task_id]["finished_at"]
        # the crash points genuinely differ: early ones leave a frontier,
        # late ones have completed work to restore
        assert max(completed_counts) > 0
        assert min(completed_counts) < 5

    def test_uninterrupted_run_matches_the_same_oracle(self, tmp_path):
        env, _afg, proc, expected = start_checkpointed_run(tmp_path, seed=11)
        result = env.sim.run_until_complete(proc)
        assert final_output_hashes(result) == expected

    def test_double_crash_resumes_from_even_later(self, tmp_path):
        """The journal keeps growing across resumes."""
        env, _afg, _proc, expected = start_checkpointed_run(tmp_path, seed=12)
        env.sim.run(until=5.0)
        env.save_repositories(str(tmp_path / "repos"))
        first = len(ApplicationCheckpoint.load(
            journal_path(str(tmp_path))).completed)

        # first resume also dies mid-run (journal appends are durable
        # even though the resuming process never returned)
        with pytest.raises(SimulationError):
            resume_run(str(tmp_path), limit=6.0)
        checkpoint = ApplicationCheckpoint.load(journal_path(str(tmp_path)))
        assert checkpoint.resumes == 1
        assert len(checkpoint.completed) >= first

        _env3, result3 = resume_run(str(tmp_path))
        assert final_output_hashes(result3) == expected

    def test_resume_of_a_completed_run_restores_everything(self, tmp_path):
        env, _afg, proc, expected = start_checkpointed_run(tmp_path, seed=13)
        env.sim.run_until_complete(proc)
        env.save_repositories(str(tmp_path / "repos"))
        _env2, result = resume_run(str(tmp_path))
        assert final_output_hashes(result) == expected
        assert all(r.attempts >= 1 for r in result.records.values())


class TestResumeAfterManagerCrash:
    def test_group_manager_crash_then_process_crash_then_resume(self, tmp_path):
        """GM crashes mid-app, deputy takes over, then the run is killed;
        resume still reproduces the oracle hashes."""
        env, _afg, _proc, expected = start_checkpointed_run(tmp_path, seed=11)
        env.start_monitoring()
        injector = FailureInjector(env.sim)
        victim = sorted(env.runtime.group_managers)[0]
        injector.schedule_group_manager_crash(
            env.runtime.group_managers[victim], time=1.5
        )
        env.sim.run(until=6.0)  # past the failover, then the process dies
        assert env.runtime.stats.failovers >= 1
        env.save_repositories(str(tmp_path / "repos"))
        _env2, result = resume_run(str(tmp_path))
        assert final_output_hashes(result) == expected

    def test_site_manager_crash_restarts_on_a_surviving_site(self, tmp_path):
        """The submitting site's VDCE Server dies mid-application: the
        app checkpoint-restarts on a surviving site and the terminal
        hashes still match pure evaluation."""
        env = VDCE.standard(n_sites=2, hosts_per_site=2, seed=12)
        afg = linear_pipeline(n_stages=5, cost=4.0, edge_mb=1.0)
        expected = expected_output_hashes(afg, env.runtime.registry)
        journal = CheckpointJournal(None)  # chaos-style in-memory journal
        table = SiteScheduler(k=1).schedule(afg, env.runtime.federation_view())
        proc = env.runtime.execute_process(
            afg, table, submit_site="site-0", journal=journal
        )
        injector = FailureInjector(env.sim)
        injector.schedule_site_manager_crash(
            env.runtime.site_managers["site-0"], time=4.0
        )
        with pytest.raises(ManagerUnavailable):
            env.sim.run_until_complete(proc)

        checkpoint = ApplicationCheckpoint.from_records(journal.records())
        coordinator = ExecutionCoordinator(
            env.runtime, checkpoint.afg, checkpoint.table,
            submit_site="site-1", journal=journal, checkpoint=checkpoint,
        )
        result = env.sim.run_until_complete(coordinator.start())
        assert final_output_hashes(result) == expected
        assert env.runtime.stats.resumes == 1

    def test_site_manager_crash_with_no_survivor_propagates(self, tmp_path):
        env = VDCE.standard(n_sites=1, hosts_per_site=2, seed=13)
        afg = linear_pipeline(n_stages=3, cost=4.0, edge_mb=1.0)
        journal = CheckpointJournal(None)
        table = SiteScheduler(k=0).schedule(afg, env.runtime.federation_view())
        proc = env.runtime.execute_process(afg, table, journal=journal)
        env.sim.call_after(
            2.0, lambda: env.runtime.site_managers["site-0"].crash()
        )
        with pytest.raises(ManagerUnavailable, match="site manager"):
            env.sim.run_until_complete(proc)


class TestResumeChecksApplication:
    def test_checkpoint_for_a_different_application_is_rejected(self, tmp_path):
        env, _afg, _proc, _expected = start_checkpointed_run(
            tmp_path, seed=11
        )
        env.sim.run(until=3.0)
        checkpoint = ApplicationCheckpoint.load(journal_path(str(tmp_path)))
        other = linear_pipeline(n_stages=2, cost=1.0)
        other.name = "some-other-app"
        table = SiteScheduler(k=0).schedule(
            other, env.runtime.federation_view()
        )
        with pytest.raises(ValueError, match="checkpoint is for"):
            ExecutionCoordinator(
                env.runtime, other, table, checkpoint=checkpoint
            )


class TestResumeRebuildsTheDeployment:
    @pytest.mark.parametrize("hosts_as", ["HostSpec", "five keys"])
    def test_explicit_hosts_resume_to_the_same_topology(self, tmp_path,
                                                         hosts_as):
        """``meta.json`` keeps every explicit host as its ``HostSpec``
        record; one written before ``ip`` and ``thrash_factor`` were
        kept (five keys a host) resumes to the same hosts and outputs."""
        spec = DeploymentSpec.grid(2, 2, seed=11)
        env, _afg, _proc, expected = start_checkpointed_run(
            tmp_path, seed=11, env=VDCE(spec=spec))
        env.sim.run(until=5.0)
        env.save_repositories(str(tmp_path / "repos"))
        meta_file = tmp_path / "meta.json"
        meta = json.loads(meta_file.read_text())
        hosts = [h for site in meta["deployment"]["sites"]
                 for h in site["hosts"]]
        assert len(hosts) == 4
        assert all(set(h) == {f.name for f in fields(HostSpec)}
                   for h in hosts)
        if hosts_as == "five keys":
            for host in hosts:
                del host["ip"], host["thrash_factor"]
            meta_file.write_text(json.dumps(meta))

        env2, result = resume_run(str(tmp_path))
        assert env2.spec == spec
        assert [h.spec for h in env2.topology.all_hosts] \
            == [h.spec for h in env.topology.all_hosts]
        assert final_output_hashes(result) == expected

    @staticmethod
    def uniform_checkpoint(tmp_path):
        """A run on uniform-block sites, checkpointed mid-way: the run,
        its oracle and its ``meta.json``."""
        env, _afg, _proc, expected = start_checkpointed_run(tmp_path, seed=12)
        env.sim.run(until=5.0)
        env.save_repositories(str(tmp_path / "repos"))
        return env, expected, tmp_path / "meta.json"

    def test_a_meta_json_holding_the_retired_site_keys_resumes(self, tmp_path):
        """A ``meta.json`` written while ``SiteConfig`` had ``memory_mb``
        and ``group_size`` holds both on every site; at the values every
        deployment now uses it resumes to the same hosts and outputs."""
        env, expected, meta_file = self.uniform_checkpoint(tmp_path)
        meta = json.loads(meta_file.read_text())
        for site in meta["deployment"]["sites"]:
            site.update(memory_mb=256, group_size=0)
        meta_file.write_text(json.dumps(meta))

        env2, result = resume_run(str(tmp_path))
        assert env2.spec == env.spec
        assert [h.spec for h in env2.topology.all_hosts] \
            == [h.spec for h in env.topology.all_hosts]
        assert final_output_hashes(result) == expected

    @pytest.mark.parametrize("key, value", [("memory_mb", 512),
                                            ("group_size", 1)])
    def test_a_retired_site_key_at_another_value_is_refused(
            self, tmp_path, key, value):
        """A deployment no spec can declare any more is refused by name,
        not rebuilt as a different federation."""
        _env, _expected, meta_file = self.uniform_checkpoint(tmp_path)
        meta = json.loads(meta_file.read_text())
        meta["deployment"]["sites"][0][key] = value
        meta_file.write_text(json.dumps(meta))
        with pytest.raises(ValueError, match=f"{key}={value}"):
            resume_run(str(tmp_path))
