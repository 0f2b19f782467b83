"""Tests for the four site-repository databases."""

import pytest

from repro.core import DeploymentSpec
from repro.repository import (
    AccessDomain,
    AuthenticationError,
    ResourcePerformanceDB,
    SiteRepository,
    TaskConstraintsDB,
    TaskPerformanceDB,
    TaskPerfRecord,
    UserAccountsDB,
)
from repro.repository import users
from repro.runtime import VDCERuntime
from repro.sim import HostSpec, TopologyBuilder
from repro.tasklib import default_registry


class TestUserAccounts:
    def test_add_and_authenticate(self):
        db = UserAccountsDB()
        account = db.add_user("haluk", "secret", priority=5,
                              access_domain=AccessDomain.GLOBAL)
        assert account.user_name == "haluk"
        assert account.priority == 5
        got = db.authenticate("haluk", "secret")
        assert got.user_id == account.user_id

    def test_wrong_password_rejected(self):
        db = UserAccountsDB()
        db.add_user("u", "right")
        with pytest.raises(AuthenticationError):
            db.authenticate("u", "wrong")

    def test_unknown_user_rejected_with_same_error(self):
        db = UserAccountsDB()
        with pytest.raises(AuthenticationError):
            db.authenticate("ghost", "x")

    def test_no_plaintext_password_stored(self):
        db = UserAccountsDB()
        account = db.add_user("u", "hunter2")
        assert b"hunter2" not in account.password_hash
        assert "hunter2" not in repr(account)

    def test_distinct_accounts_never_share_a_salt(self):
        db = UserAccountsDB()
        alice = db.add_user("alice", "hunter2")
        bob = db.add_user("bob", "hunter2")
        assert alice.salt != bob.salt
        assert alice.password_hash != bob.password_hash
        assert db.authenticate("bob", "hunter2") == bob

    def test_the_bring_up_memo_holds_no_password(self):
        UserAccountsDB().add_user("carol", "memo-canary")
        assert "memo-canary" not in repr(users._BRINGUP_HASHES)
        assert all(b"memo-canary" not in digest
                   for _name, digest in users._BRINGUP_HASHES)

    def test_a_bring_up_derives_the_replicated_admin_once(self, monkeypatch):
        monkeypatch.setattr(users, "_BRINGUP_HASHES", {})
        derived = []
        real = users._hash_password
        monkeypatch.setattr(users, "_hash_password", lambda password, salt: (
            derived.append(salt) or real(password, salt)))
        runtime = VDCERuntime(DeploymentSpec.grid(4, 2).build_topology())
        assert len(derived) == 1
        admins = {repo.users.get("admin")
                  for repo in runtime.repositories.values()}
        assert len(admins) == 1 and admins.pop().verify("vdce-admin")

    def test_duplicate_user_rejected(self):
        db = UserAccountsDB()
        db.add_user("u", "x")
        with pytest.raises(ValueError):
            db.add_user("u", "y")

    def test_user_ids_unique_and_monotonic(self):
        db = UserAccountsDB()
        a = db.add_user("a", "x")
        b = db.add_user("b", "x")
        assert b.user_id == a.user_id + 1

    def test_explicit_user_id(self):
        db = UserAccountsDB()
        assert db.add_user("a", "x", user_id=7).user_id == 7

    def test_validation(self):
        db = UserAccountsDB()
        with pytest.raises(ValueError):
            db.add_user("", "x")
        with pytest.raises(ValueError):
            db.add_user("u", "")
        with pytest.raises(ValueError):
            db.add_user("u", "x", priority=-1)

    def test_remove_and_set_priority(self):
        db = UserAccountsDB()
        db.add_user("u", "x", priority=9)
        assert db.authenticate("u", "x").priority == 9
        db.remove("u")
        assert "u" not in db
        with pytest.raises(KeyError):
            db.remove("u")


class TestResourceDB:
    def make_db(self):
        db = ResourcePerformanceDB("syr")
        db.register_host(HostSpec(name="h0", speed=1.0, memory_mb=128), group="g0")
        db.register_host(HostSpec(name="h1", speed=2.0, memory_mb=256), group="g0")
        return db

    def test_register_and_get(self):
        db = self.make_db()
        rec = db.get("h0")
        assert rec.site == "syr"
        assert rec.group == "g0"
        assert rec.up
        assert rec.available_memory_mb == 128
        assert len(db) == 2

    def test_duplicate_registration_rejected(self):
        db = self.make_db()
        with pytest.raises(ValueError):
            db.register_host(HostSpec(name="h0"))

    def test_update_workload(self):
        db = self.make_db()
        rec = db.update_workload("h0", load=1.5, available_memory_mb=64, time=10.0)
        assert rec.load == 1.5
        assert rec.updated_at == 10.0
        assert db.workload_updates == 1
        assert 25.0 - db.get("h0").updated_at == pytest.approx(15.0)

    def test_mark_down_up(self):
        db = self.make_db()
        db.mark_down("h1", time=5.0)
        assert not db.get("h1").up
        assert [r.name for r in db.up_hosts()] == ["h0"]
        db.mark_up("h1", time=9.0)
        assert db.get("h1").up
        assert db.status_updates == 2

    def test_validation(self):
        db = self.make_db()
        with pytest.raises(ValueError):
            db.update_workload("h0", load=-1.0, available_memory_mb=0, time=0.0)
        with pytest.raises(ValueError):
            db.update_workload("h0", load=0.0, available_memory_mb=-1, time=0.0)
        with pytest.raises(KeyError):
            db.get("ghost")


class TestTaskPerfDB:
    def test_load_from_registry(self):
        db = TaskPerformanceDB("syr")
        n = db.load_from_registry(default_registry())
        assert n == len(default_registry())
        assert db.has("matrix.lu_decomposition")
        rec = db.get("matrix.lu_decomposition")
        assert rec.computation_size == 12.0
        assert rec.parallelizable

    def test_load_is_idempotent(self):
        db = TaskPerformanceDB("syr")
        db.load_from_registry(default_registry())
        assert db.load_from_registry(default_registry()) == 0

    def test_base_cost_scales(self):
        db = TaskPerformanceDB("syr")
        db.load_from_registry(default_registry())
        assert db.base_cost("matrix.lu_decomposition", 2.0) == pytest.approx(24.0)
        with pytest.raises(ValueError):
            db.base_cost("matrix.lu_decomposition", 0.0)

    def test_unknown_task_raises(self):
        db = TaskPerformanceDB("syr")
        with pytest.raises(KeyError):
            db.get("nope")

    def test_calibration_ewma(self):
        db = TaskPerformanceDB("syr")
        db.register(TaskPerfRecord("t", computation_size=10.0,
                                   communication_size_mb=1.0, required_memory_mb=8))
        assert db.host_calibration("t", "h0") == 1.0
        r1 = db.record_execution("t", "h0", expected_s=10.0, measured_s=20.0)
        assert r1 == pytest.approx(2.0)  # first measurement adopted directly
        # a later *accurate* calibrated prediction must leave the
        # calibration untouched (raw ratio = 1.0 x 2.0 = current)
        r2 = db.record_execution("t", "h0", expected_s=20.0, measured_s=20.0)
        assert r2 == pytest.approx(2.0)
        # a calibrated prediction that is still 50% low shifts the EWMA up
        r3 = db.record_execution("t", "h0", expected_s=20.0, measured_s=30.0)
        assert r3 == pytest.approx(0.7 * 2.0 + 0.3 * 3.0)
        assert db.measurements_recorded == 3

    def test_record_execution_validation(self):
        db = TaskPerformanceDB("syr")
        db.register(TaskPerfRecord("t", 1.0, 1.0, 1))
        with pytest.raises(ValueError):
            db.record_execution("t", "h", expected_s=0.0, measured_s=1.0)
        with pytest.raises(KeyError):
            db.record_execution("ghost", "h", expected_s=1.0, measured_s=1.0)

    def test_duplicate_register_rejected(self):
        db = TaskPerformanceDB("syr")
        db.register(TaskPerfRecord("t", 1.0, 1.0, 1))
        with pytest.raises(ValueError):
            db.register(TaskPerfRecord("t", 2.0, 1.0, 1))


class TestConstraintsDB:
    def test_register_and_lookup(self):
        db = TaskConstraintsDB("syr")
        db.register("matrix.lu_decomposition", "h0", "/opt/tasks/lu")
        assert db.executable_path("matrix.lu_decomposition", "h0") == "/opt/tasks/lu"
        assert db.is_runnable("matrix.lu_decomposition", "h0")
        assert not db.is_runnable("matrix.lu_decomposition", "h1")
        assert len(db) == 1

    def test_relative_path_rejected(self):
        db = TaskConstraintsDB("syr")
        with pytest.raises(ValueError):
            db.register("t", "h", "relative/path")

    def test_duplicate_rejected(self):
        db = TaskConstraintsDB("syr")
        db.register("t", "h", "/a")
        with pytest.raises(ValueError):
            db.register("t", "h", "/b")

    def test_install_everywhere_skips_existing(self):
        db = TaskConstraintsDB("syr")
        db.register("t1", "h0", "/custom/t1")
        added = db.install_everywhere(["t1", "t2"], ["h0", "h1"])
        assert added == 3
        assert db.executable_path("t1", "h0") == "/custom/t1"  # preserved
        assert len(db) == 4

    def test_remove_host(self):
        db = TaskConstraintsDB("syr")
        db.install_everywhere(["t1", "t2"], ["h0", "h1"])
        removed = db.remove_host("h0")
        assert removed == 2
        assert not db.is_runnable("t1", "h0") and db.is_runnable("t1", "h1")
        assert not db.references_host("h0")

    def test_missing_lookup_raises(self):
        db = TaskConstraintsDB("syr")
        with pytest.raises(KeyError):
            db.executable_path("t", "h")


class TestSiteRepository:
    def test_bootstrap_wires_everything(self):
        site = (TopologyBuilder().site("syr", n_hosts=4, group_size=2)
                .build().site("syr"))
        repo = SiteRepository.bootstrap(site, default_registry())
        assert len(repo.resources) == 4
        assert repo.resources.get("syr-h00").group == "syr-g0"
        assert repo.resources.get("syr-h03").group == "syr-g1"
        assert len(repo.task_perf) == len(default_registry())
        assert repo.constraints.is_runnable("matrix.lu_decomposition", "syr-h02")
        admin = repo.users.authenticate("admin", "vdce-admin")
        assert admin.access_domain is AccessDomain.GLOBAL

    def test_runnable_up_hosts_intersection(self):
        site = TopologyBuilder().site("syr", n_hosts=3).build().site("syr")
        repo = SiteRepository.bootstrap(site, default_registry())
        repo.resources.mark_down("syr-h01", time=1.0)
        repo.resources.begin_draining("syr-h02", time=1.0)
        repo.constraints.remove_host("syr-h02")
        names = [r.name for r in repo.runnable_up_hosts("matrix.lu_decomposition")]
        assert names == ["syr-h00"]
