"""Phi-accrual failure detection: slow is not dead.

Scripted echo-delay/outage sequences drive the Group Manager's phi
detector through its full transition table (TRUST -> SUSPECT ->
declared down -> recovered; SUSPECT -> TRUST on resumed arrivals), and
a slowed or flapping host is never declared down — slow is not dead.
"""

import math

import pytest

from repro.runtime import straggler
from repro.runtime.straggler import PhiAccrualDetector

from tests.runtime.conftest import build_runtime

_LN10 = math.log(10.0)


def _gm_of(rt, host_name):
    for gm in rt.group_managers.values():
        if host_name in gm._believed_up:
            return gm
    raise AssertionError(f"no group manager covers {host_name}")


def _host(rt, name):
    for host in rt.topology.all_hosts:
        if host.name == name:
            return host
    raise AssertionError(f"no host {name!r}")


class TestPhiAccrualDetector:
    def test_phi_zero_before_first_arrival(self):
        det = PhiAccrualDetector(expected_interval_s=1.0)
        assert det.phi(100.0) == 0.0

    def test_phi_grows_linearly_with_silence(self):
        det = PhiAccrualDetector(expected_interval_s=1.0)
        for t in (0.0, 1.0, 2.0, 3.0):
            det.heartbeat(t)
        # exponential model closed form: phi = elapsed / (mean * ln 10)
        assert det.phi(3.0 + _LN10) == pytest.approx(1.0)
        assert det.phi(3.0 + 2 * _LN10) == pytest.approx(2.0)

    def test_mean_uses_expected_interval_until_samples_exist(self):
        det = PhiAccrualDetector(expected_interval_s=2.0)
        det.heartbeat(0.0)
        assert det.mean_interval() == 2.0
        assert det.phi(2.0 * _LN10) == pytest.approx(1.0)

    def test_late_arrivals_stretch_the_mean(self):
        det = PhiAccrualDetector(expected_interval_s=1.0)
        for t in (0.0, 1.0, 2.0, 6.0):  # one 4s gap enters the history
            det.heartbeat(t)
        assert det.mean_interval() == pytest.approx(2.0)
        # the same silence now accrues suspicion half as fast
        assert det.phi(6.0 + 2 * _LN10) == pytest.approx(1.0)


class TestPhiTransitionTable:
    """period=1s, PHI_SUSPECT 1.0, PHI_DOWN 2.0: suspicion crosses 1.0
    after ~ln10 ≈ 2.3 silent periods and 2.0 after ~4.6."""

    def _runtime(self):
        rt = build_runtime(detector="phi", echo_period_s=1.0)
        rt.start_monitoring()
        return rt, _gm_of(rt, "a1"), _host(rt, "a1")

    def test_healthy_host_never_suspected(self):
        rt, gm, _ = self._runtime()
        rt.sim.run(until=30.0)
        assert gm.believes_up("a1")
        assert not gm.is_suspected("a1")
        assert rt.stats.failure_notifications == 0

    def test_long_outage_walks_suspect_then_down_then_recovers(self):
        rt, gm, host = self._runtime()
        rt.sim.call_at(3.5, host.fail)
        # rounds 4..5: elapsed < ln10, still trusted
        rt.sim.run(until=5.5)
        assert gm.believes_up("a1") and not gm.is_suspected("a1")
        # round 6: ~3 silent periods -> phi ≈ 1.3, SUSPECT
        rt.sim.run(until=6.5)
        assert gm.is_suspected("a1")
        assert gm.believes_up("a1")  # suspicion alone is not death
        assert rt.stats.failure_notifications == 0
        # round 8: ~5 silent periods -> phi ≥ 2.0, declared down
        rt.sim.run(until=8.5)
        assert not gm.believes_up("a1")
        assert rt.stats.failure_notifications == 1
        assert gm.false_positives == 0  # it really was down
        # recovery: first answered echo flips it back
        rt.sim.call_at(9.5, host.recover)
        rt.sim.run(until=10.5)
        assert gm.believes_up("a1")
        assert not gm.is_suspected("a1")
        assert rt.stats.recovery_notifications == 1

    def test_short_outage_suspects_then_retrusts_without_notification(self):
        rt, gm, host = self._runtime()
        rt.sim.call_at(3.5, host.fail)
        rt.sim.call_at(6.5, host.recover)
        rt.sim.run(until=6.4)
        assert gm.is_suspected("a1")  # 3 silent periods
        # round 7 answers (phi still ≥ 1, stays formally suspected),
        # round 8's fresh interval history drops phi below PHI_SUSPECT
        rt.sim.run(until=8.5)
        assert gm.believes_up("a1")
        assert not gm.is_suspected("a1")
        assert rt.stats.failure_notifications == 0
        assert rt.stats.recovery_notifications == 0  # never declared down

    def test_detection_is_recorded_in_detection_log(self):
        rt, gm, host = self._runtime()
        rt.sim.call_at(3.5, host.fail)
        rt.sim.run(until=9.0)
        kinds = [(h, k) for _, h, k in rt.stats.detection_log if h == "a1"]
        assert kinds == [("a1", "down")]


class TestSlowIsNotDead:
    """The case the phi detector exists for: a 10x-slowed host answers
    echoes late, and phi keeps trusting it."""

    def test_phi_detector_keeps_trusting_the_slowed_host(self):
        rt = build_runtime(detector="phi", echo_period_s=1.0)
        rt.start_monitoring()
        gm = _gm_of(rt, "a1")
        _host(rt, "a1").set_slowdown(10.0)
        rt.sim.run(until=30.0)
        assert gm.believes_up("a1")
        assert not gm.is_suspected("a1")
        assert gm.false_positives == 0
        assert rt.stats.failure_notifications == 0

    def test_flapping_host_never_triggers_spurious_failover(self):
        # a host flapping between nominal and 6x-slow answers every
        # echo; the phi detector must never report it down, so no
        # failure notification and no repository down-mark ever happens
        from repro.sim.failures import FailureInjector

        rt = build_runtime(detector="phi", echo_period_s=1.0)
        rt.start_monitoring()
        gm = _gm_of(rt, "a1")
        injector = FailureInjector(rt.sim)
        injector.start_flapping(_host(rt, "a1"), mean_normal_s=5.0,
                                mean_slow_s=3.0, factor=6.0)
        rt.sim.run(until=120.0)
        assert injector.slowdown_intervals("a1"), "host never flapped"
        assert gm.believes_up("a1")
        assert gm.false_positives == 0
        assert rt.stats.failure_notifications == 0
        assert rt.repositories["alpha"].resources.get("a1").up


class TestConfigValidation:
    def test_unknown_detector_rejected(self):
        with pytest.raises(ValueError):
            build_runtime(detector="oracle")

    def test_phi_thresholds_must_be_ordered(self):
        assert 0.0 < straggler.PHI_SUSPECT < straggler.PHI_DOWN
