"""Tests: the epoch-stamped membership state machine (issue 10).

The resource-performance DB's roster is elastic: hosts join (JOINING ->
ACTIVE), drain (ACTIVE -> DRAINING), depart (tombstoned with their
epoch) and rejoin (REJOINING at epoch + 1, dynamic state discarded).
These tests pin the legal-transition matrix, the typed errors on every
illegal move, the registration-symmetry guards (satellite 1), and the
persistence round-trip of a partially-deregistered site.
"""

import pytest

from repro.repository.persistence import restore_repository, snapshot_repository
from repro.repository.resources import (
    MembershipError,
    MembershipState,
    RegistrationSyncError,
    ResourcePerformanceDB,
)
from repro.repository.store import SiteRepository
from repro.sim.host import HostSpec
from repro.sim.topology import TopologyBuilder
from repro.tasklib.registry import default_registry


def spec(name, speed=1.0, memory_mb=256):
    return HostSpec(name=name, speed=speed, memory_mb=memory_mb)


class TestStateMachine:
    def test_join_then_activate(self):
        db = ResourcePerformanceDB("syr")
        record = db.register_host(spec("h0"), group="g0",
                                  state=MembershipState.JOINING)
        assert record.state == MembershipState.JOINING
        assert record.epoch == 0
        record = db.activate_host("h0", time=1.0)
        assert record.state == MembershipState.ACTIVE
        assert db.membership_state("h0") == MembershipState.ACTIVE

    def test_default_registration_is_active(self):
        db = ResourcePerformanceDB("syr")
        assert db.register_host(spec("h0")).state == MembershipState.ACTIVE

    def test_cannot_register_departed(self):
        db = ResourcePerformanceDB("syr")
        with pytest.raises(MembershipError, match="cannot register"):
            db.register_host(spec("h0"), state=MembershipState.DEPARTED)

    def test_drain_requires_active(self):
        db = ResourcePerformanceDB("syr")
        db.register_host(spec("h0"), state=MembershipState.JOINING)
        with pytest.raises(MembershipError, match="illegal transition"):
            db.begin_draining("h0", time=1.0)
        db.activate_host("h0", time=1.0)
        assert db.begin_draining("h0", time=2.0).state \
            == MembershipState.DRAINING
        # draining twice is illegal too
        with pytest.raises(MembershipError, match="illegal transition"):
            db.begin_draining("h0", time=3.0)

    def test_activate_requires_joining_or_rejoining(self):
        db = ResourcePerformanceDB("syr")
        db.register_host(spec("h0"))
        with pytest.raises(MembershipError, match="illegal transition"):
            db.activate_host("h0", time=1.0)

    def test_unknown_host_is_typed_error(self):
        db = ResourcePerformanceDB("syr")
        with pytest.raises(MembershipError, match="never a member"):
            db.membership_state("ghost")
        with pytest.raises(MembershipError, match="never a member"):
            db.membership_epoch("ghost")


class TestDepartAndRejoin:
    def test_deregister_leaves_tombstone(self):
        db = ResourcePerformanceDB("syr")
        db.register_host(spec("h0"))
        removed = db.deregister_host("h0")
        assert removed.name == "h0"
        assert not db.has_host("h0")
        assert db.membership_state("h0") == MembershipState.DEPARTED
        assert db.membership_epoch("h0") == 0
        assert db.departed_hosts() == {"h0": 0}

    def test_register_after_depart_demands_rejoin(self):
        db = ResourcePerformanceDB("syr")
        db.register_host(spec("h0"))
        db.deregister_host("h0")
        with pytest.raises(MembershipError, match="use rejoin_host"):
            db.register_host(spec("h0"))

    def test_rejoin_bumps_epoch_and_discards_dynamic_state(self):
        db = ResourcePerformanceDB("syr")
        db.register_host(spec("h0"))
        db.update_workload("h0", load=7.0, available_memory_mb=12, time=5.0)
        db.mark_down("h0", time=6.0)
        db.deregister_host("h0")

        record = db.rejoin_host(spec("h0", speed=2.0), group="g0", time=9.0)
        assert record.state == MembershipState.REJOINING
        assert record.epoch == 1
        # stale-record reconciliation: load/up/memory reset, new spec taken
        assert record.load == 0.0
        assert record.up
        assert record.available_memory_mb == 256
        assert record.spec.speed == 2.0
        assert db.departed_hosts() == {}

        # a second churn cycle keeps counting up
        db.activate_host("h0", time=10.0)
        db.deregister_host("h0")
        assert db.rejoin_host(spec("h0"), time=12.0).epoch == 2

    def test_rejoin_without_departure_is_error(self):
        db = ResourcePerformanceDB("syr")
        with pytest.raises(MembershipError, match="never departed"):
            db.rejoin_host(spec("h0"))
        db.register_host(spec("h1"))
        with pytest.raises(MembershipError, match="already registered"):
            db.rejoin_host(spec("h1"))

    def test_restore_departed_rejects_registered_names(self):
        db = ResourcePerformanceDB("syr")
        db.register_host(spec("h0"))
        with pytest.raises(MembershipError, match="cannot tombstone"):
            db.restore_departed("h0", epoch=3)


class TestRegistrationSymmetry:
    """Satellite 1: constraints and resources can't silently diverge."""

    def make_repo(self):
        site = TopologyBuilder().site("syr", n_hosts=3).build().site("syr")
        return SiteRepository.bootstrap(site, default_registry())

    def test_deregister_with_live_constraints_is_typed(self):
        repo = self.make_repo()
        with pytest.raises(RegistrationSyncError, match="constraints still"):
            repo.resources.deregister_host("syr-h00")
        # the host row is untouched by the failed attempt
        assert repo.resources.has_host("syr-h00")

    def test_remove_constraints_of_active_host_is_typed(self):
        repo = self.make_repo()
        with pytest.raises(RegistrationSyncError):
            repo.constraints.remove_host("syr-h00")

    def test_site_repository_deregisters_both_sides(self):
        repo = self.make_repo()
        repo.deregister_host("syr-h00")
        assert not repo.resources.has_host("syr-h00")
        assert not repo.constraints.references_host("syr-h00")
        assert repo.resources.membership_state("syr-h00") \
            == MembershipState.DEPARTED

    def test_deregister_unknown_host_is_typed(self):
        repo = self.make_repo()
        with pytest.raises(MembershipError, match="not registered"):
            repo.deregister_host("ghost")

    def test_drain_then_retire_is_the_sanctioned_sequence(self):
        repo = self.make_repo()
        repo.resources.begin_draining("syr-h01", time=1.0)
        # constraints may be removed while the row is DRAINING
        repo.constraints.remove_host("syr-h01", deregistering=True)
        repo.resources.deregister_host("syr-h01")
        assert repo.resources.departed_hosts() == {"syr-h01": 0}


class TestMembershipInvalidation:
    def test_every_transition_clears_predict_cache(self):
        """Prediction rows hold no listener: each transition moves their
        version key, so the next bid rebuilds them."""
        site = TopologyBuilder().site("syr", n_hosts=3).build().site("syr")
        repo = SiteRepository.bootstrap(site, default_registry())
        keys = [repo.host_index.version_key()]
        repo.resources.begin_draining("syr-h01", time=1.0)
        keys.append(repo.host_index.version_key())
        repo.deregister_host("syr-h01")
        keys.append(repo.host_index.version_key())
        repo.resources.rejoin_host(site.host("syr-h01").spec,
                                   group="syr-g0", time=2.0)
        keys.append(repo.host_index.version_key())
        repo.resources.activate_host("syr-h01", time=3.0)
        keys.append(repo.host_index.version_key())
        assert len(set(keys)) == len(keys)

    def test_runnable_up_hosts_excludes_non_active(self):
        site = TopologyBuilder().site("syr", n_hosts=4).build().site("syr")
        repo = SiteRepository.bootstrap(site, default_registry())
        registry = default_registry()
        task = registry.names()[0]
        repo.resources.begin_draining("syr-h01", time=1.0)
        repo.deregister_host("syr-h02")
        repo.resources.rejoin_host(site.host("syr-h02").spec,
                                   group="syr-g0", time=2.0)
        # a rejoined host gets its executables re-installed before it
        # activates — the coordinator's admission sequence
        repo.constraints.install_everywhere(registry.names(), ("syr-h02",))
        names = [r.name for r in repo.runnable_up_hosts(task)]
        assert names == ["syr-h00", "syr-h03"]
        repo.resources.activate_host("syr-h02", time=3.0)
        names = sorted(r.name for r in repo.runnable_up_hosts(task))
        assert names == ["syr-h00", "syr-h02", "syr-h03"]


class TestPartialDeregistrationPersistence:
    """Satellite 1: a mid-churn site snapshot round-trips exactly."""

    def test_snapshot_restores_states_epochs_and_tombstones(self):
        site = TopologyBuilder().site("syr", n_hosts=4).build().site("syr")
        repo = SiteRepository.bootstrap(site, default_registry())
        # h01 draining; h02 departed (tombstone); h03 rejoined at epoch 1
        repo.resources.begin_draining("syr-h01", time=1.0)
        repo.deregister_host("syr-h02")
        repo.deregister_host("syr-h03")
        repo.resources.rejoin_host(site.host("syr-h03").spec,
                                   group="syr-g1", time=2.0)

        restored = restore_repository(snapshot_repository(repo))

        assert restored.resources.membership_state("syr-h00") \
            == MembershipState.ACTIVE
        assert restored.resources.membership_state("syr-h01") \
            == MembershipState.DRAINING
        assert restored.resources.membership_state("syr-h02") \
            == MembershipState.DEPARTED
        assert restored.resources.membership_epoch("syr-h02") == 0
        assert restored.resources.membership_state("syr-h03") \
            == MembershipState.REJOINING
        assert restored.resources.membership_epoch("syr-h03") == 1
        assert restored.resources.departed_hosts() \
            == repo.resources.departed_hosts()
        # the departed host's constraints stayed gone
        assert not restored.constraints.references_host("syr-h02")
        # and the restored DB still enforces the rejoin protocol
        with pytest.raises(MembershipError, match="use rejoin_host"):
            restored.resources.register_host(spec("syr-h02"))

    def test_snapshot_is_stable_across_a_round_trip(self):
        site = TopologyBuilder().site("syr", n_hosts=3).build().site("syr")
        repo = SiteRepository.bootstrap(site, default_registry())
        repo.deregister_host("syr-h02")
        first = snapshot_repository(repo)
        second = snapshot_repository(restore_repository(first))
        assert first == second
