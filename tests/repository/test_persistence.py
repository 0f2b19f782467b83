"""Tests: repository snapshot/restore round trips."""

import json

import pytest

from repro.repository import (
    AccessDomain,
    SiteRepository,
    load_repository,
    restore_repository,
    save_repository,
    snapshot_repository,
)
from repro.sim import TopologyBuilder
from repro.tasklib import default_registry


def populated_repo():
    site = (TopologyBuilder().site("syr", n_hosts=3, group_size=2)
            .build().site("syr"))
    repo = SiteRepository.bootstrap(site, default_registry())
    repo.users.add_user("haluk", "topsecret", priority=7,
                        access_domain=AccessDomain.CAMPUS)
    repo.resources.update_workload("syr-h01", load=2.5,
                                   available_memory_mb=128, time=42.0)
    repo.resources.mark_down("syr-h02", time=50.0)
    repo.task_perf.record_execution("generic.compute", "syr-h00",
                                    expected_s=1.0, measured_s=1.8)
    return repo


class TestSnapshotRestore:
    def test_roundtrip_is_exact(self):
        repo = populated_repo()
        restored = restore_repository(snapshot_repository(repo))
        assert snapshot_repository(restored) == snapshot_repository(repo)

    def test_snapshot_is_json_safe(self):
        data = snapshot_repository(populated_repo())
        json.dumps(data)  # must not raise
        assert data["site_name"] == "syr"

    def test_restored_passwords_still_authenticate(self):
        restored = restore_repository(snapshot_repository(populated_repo()))
        account = restored.users.authenticate("haluk", "topsecret")
        assert account.priority == 7
        assert account.access_domain is AccessDomain.CAMPUS
        from repro.repository import AuthenticationError

        with pytest.raises(AuthenticationError):
            restored.users.authenticate("haluk", "wrong")

    def test_no_plaintext_in_snapshot(self):
        text = json.dumps(snapshot_repository(populated_repo()))
        assert "topsecret" not in text
        assert "vdce-admin" not in text

    def test_dynamic_state_survives(self):
        restored = restore_repository(snapshot_repository(populated_repo()))
        rec = restored.resources.get("syr-h01")
        assert rec.load == 2.5
        assert rec.updated_at == 42.0
        assert not restored.resources.get("syr-h02").up
        assert restored.task_perf.host_calibration(
            "generic.compute", "syr-h00"
        ) == pytest.approx(1.8)

    def test_new_users_get_fresh_ids_after_restore(self):
        repo = populated_repo()
        restored = restore_repository(snapshot_repository(repo))
        new = restored.users.add_user("fresh", "x")
        existing_ids = {a.user_id
                        for a in restored.users._accounts.values()
                        if a.user_name != "fresh"}
        assert new.user_id not in existing_ids

    def test_file_roundtrip(self, tmp_path):
        repo = populated_repo()
        path = str(tmp_path / "syr.json")
        save_repository(repo, path)
        loaded = load_repository(path)
        assert snapshot_repository(loaded) == snapshot_repository(repo)

    def test_bad_format_rejected(self):
        data = snapshot_repository(populated_repo())
        data["format"] = 99
        with pytest.raises(ValueError, match="format"):
            restore_repository(data)

    def test_restored_repo_schedules_identically(self):
        """A scheduler fed a restored repository makes the same decisions."""
        from repro.scheduler import FederationView, SiteScheduler
        from repro.workloads import bag_of_tasks

        repo = populated_repo()
        restored = restore_repository(snapshot_repository(repo))
        afg = bag_of_tasks(n=5, cost=2.0, seed=1)

        def schedule_with(r):
            view = FederationView(
                local_site="syr",
                repositories={"syr": r},
                neighbor_order=[],
                site_transfer_time=lambda a, b, mb: 0.001 + mb / 10.0,
            )
            return SiteScheduler(k=0).schedule(afg, view).to_dict()

        assert schedule_with(repo) == schedule_with(restored)
