"""Speculative re-execution and host-health quarantine.

The headline scenario: the fastest host in the federation is slowed
10x mid-schedule.  Without speculation every task placed there crawls;
with speculation a backup launches on the next-best host, wins the
race, and the application finishes at least twice as fast — with
terminal outputs byte-identical to the pure-evaluation oracle no
matter which copy won.
"""

import pytest

from repro.runtime.checkpoint import expected_output_hashes, final_output_hashes
from repro.runtime.execution import ExecutionCoordinator
from repro.runtime.straggler import (
    HealthPolicy,
    HostHealth,
    RatioTracker,
    SpeculationPolicy,
    _RATIO_WINDOW,
)

from tests.runtime.conftest import build_runtime, chain_afg

_POLICY = SpeculationPolicy(trigger_multiple=1.5, check_period_s=0.5)


def _host(rt, name):
    for host in rt.topology.all_hosts:
        if host.name == name:
            return host
    raise AssertionError(f"no host {name!r}")


def _run_with_slowdown(seed, speculation):
    """Slow the fastest host (b2, speed 3.0 — the one prediction loves)
    by 10x before submitting a chain; return (runtime, result)."""
    rt = build_runtime(seed=seed, speculation=speculation)
    _host(rt, "b2").set_slowdown(10.0)
    afg = chain_afg(n=3, scale=2.0, name=f"straggled-{seed}")
    result = rt.submit(afg)
    return rt, afg, result


class TestSpeculationRace:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_speculation_halves_makespan_and_preserves_outputs(self, seed):
        _, _, baseline = _run_with_slowdown(seed, speculation=None)
        rt, afg, raced = _run_with_slowdown(seed, speculation=_POLICY)
        assert baseline.makespan / raced.makespan >= 2.0
        assert rt.stats.speculative_launches >= 1
        assert rt.stats.speculative_wins >= 1
        # speculation safety: outputs identical to the pure evaluation
        assert final_output_hashes(raced) == expected_output_hashes(
            afg, rt.registry
        )

    def test_backup_win_repoints_the_record_off_the_straggler(self):
        rt, _, result = _run_with_slowdown(0, speculation=_POLICY)
        raced_hosts = {
            host for record in result.records.values() for host in record.hosts
        }
        assert rt.stats.speculative_wins >= 1
        # at least one winning backup ran somewhere other than b2
        assert raced_hosts - {"b2"}

    def test_disabled_speculation_never_launches(self):
        rt, _, _ = _run_with_slowdown(0, speculation=None)
        assert rt.stats.speculative_launches == 0
        assert rt.stats.speculative_wins == 0
        assert rt.stats.speculative_wasted_s == 0.0

    def test_no_speculation_without_a_straggler(self):
        rt = build_runtime(speculation=_POLICY)
        result = rt.submit(chain_afg(n=3, scale=2.0, name="healthy"))
        assert rt.stats.speculative_launches == 0
        assert result.makespan > 0

    def test_bounded_waste_one_backup_per_task_all_resolved(self):
        # drive the coordinator explicitly to read its speculation log
        rt = build_runtime(speculation=_POLICY)
        _host(rt, "b2").set_slowdown(10.0)
        afg = chain_afg(n=3, scale=2.0, name="audited")

        def pipeline():
            table, _ = yield from rt.schedule_process(afg)
            coordinator = ExecutionCoordinator(rt, afg, table)
            result = yield coordinator.start()
            return coordinator, result

        coordinator, result = rt.sim.run_until_complete(
            rt.sim.process(pipeline())
        )
        log = coordinator.speculation_log
        assert len(log) == rt.stats.speculative_launches >= 1
        keys = [(e["application"], e["task"], e["attempt"]) for e in log]
        assert len(keys) == len(set(keys))  # ≤ 1 backup per task attempt
        for entry in log:
            assert entry["outcome"] in ("primary_win", "backup_win", "failed")
            assert entry["resolved_at"] is not None
            assert entry["resolved_at"] >= entry["launched_at"]
        wins = sum(1 for e in log if e["outcome"] == "backup_win")
        assert wins == rt.stats.speculative_wins
        # the race loser's burned compute is accounted as waste
        if wins:
            assert rt.stats.speculative_wasted_s > 0.0


class TestRatioTracker:
    def test_quantile_none_until_recorded(self):
        tracker = RatioTracker()
        assert tracker.quantile("h", 0.75) is None

    def test_quantile_orders_and_windows(self):
        tracker = RatioTracker()
        # the oldest ratio, 100.0, falls out of the window
        for ratio in (100.0, *range(_RATIO_WINDOW, 0, -1)):
            tracker.record("h", float(ratio))
        assert tracker.quantile("h", 0.0) == 1.0
        assert tracker.quantile("h", 0.75) == 0.75 * _RATIO_WINDOW + 1
        assert tracker.quantile("h", 1.0) == _RATIO_WINDOW

    def test_nonpositive_ratios_ignored(self):
        tracker = RatioTracker()
        tracker.record("h", 0.0)
        tracker.record("h", -1.0)
        assert tracker.quantile("h", 0.5) is None


class TestHostHealth:
    def _health(self, **kwargs):
        from repro.sim import Simulator

        sim = Simulator()
        policy = HealthPolicy(**kwargs)
        return sim, HostHealth(sim, policy)

    def test_penalties_accumulate_into_the_predict_factor(self):
        _, health = self._health()
        assert health.factor_of("h") == 1.0
        health.penalize("h", 0.5, "suspect")
        assert health.factor_of("h") == pytest.approx(1.5)

    def test_score_decays_with_half_life(self):
        sim, health = self._health(half_life_s=10.0)
        health.penalize("h", 2.0, "suspect")
        sim.call_at(10.0, lambda: None)
        sim.run()
        assert health.score_of("h") == pytest.approx(1.0)

    def test_quarantine_at_threshold_then_probation_release(self):
        sim, health = self._health(quarantine_threshold=3.0, probation_s=50.0)
        health.penalize("h", 3.0, "failure")
        assert health.is_quarantined("h")
        assert health.factor_of("h") is None  # excluded from selection
        assert health.quarantined_hosts() == ["h"]
        sim.call_at(60.0, lambda: None)
        sim.run()
        factor = health.factor_of("h")  # lazy probation release
        assert factor is not None
        assert not health.is_quarantined("h")
        # released on probation: score restarts at half the threshold
        assert factor == pytest.approx(1.0 + 1.5)


class TestQuarantineScheduling:
    def test_quarantined_host_excluded_from_placement(self):
        rt = build_runtime(health=HealthPolicy(quarantine_threshold=3.0,
                                               probation_s=1000.0))
        rt.health.penalize("b2", 5.0, "test")
        result = rt.submit(chain_afg(n=3, scale=1.0, name="avoids-b2"))
        used = {h for r in result.records.values() for h in r.hosts}
        assert "b2" not in used

    def test_health_penalty_steers_prediction_away(self):
        # b2 (speed 3.0) normally wins every bid; a 1.0 score doubles
        # its predictions, so slower-but-clean hosts win instead
        rt = build_runtime(health=HealthPolicy(half_life_s=1e9))
        rt.health.penalize("b2", 1.0, "test")
        result = rt.submit(chain_afg(n=3, scale=1.0, name="steered"))
        primaries = {r.hosts[0] for r in result.records.values()}
        assert "b2" not in primaries

    def test_clean_slate_uses_the_fast_host(self):
        rt = build_runtime(health=HealthPolicy())
        result = rt.submit(chain_afg(n=3, scale=1.0, name="clean"))
        used = {h for r in result.records.values() for h in r.hosts}
        assert "b2" in used
