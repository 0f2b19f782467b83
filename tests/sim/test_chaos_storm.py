"""The overload-storm campaign: I10/I11 invariants and determinism.

The storm preset floods a small federation with bursty submissions
through a bounded, rate-limited admission queue while a partition has
the WAN breakers tripping.  These tests pin the two new invariants —
I10 (queue stays within its bound and every storm app reaches a
terminal state) and I11 (no message crosses an open circuit) — and
byte-determinism of the whole campaign.
"""

from repro.sim.chaos import STORM_MAX_QUEUED, preset, run_campaign

SEEDS = (0, 1, 2)
TERMINAL = {"completed", "failed", "rejected", "expired"}


def test_storm_holds_invariants_across_seeds():
    for seed in SEEDS:
        report = run_campaign(preset("storm", seed=seed))
        assert report.ok, (seed, report.violations)
        config = preset("storm", seed=seed)
        storm = {
            name: outcome
            for name, outcome in report.outcomes.items()
            if name.startswith("storm")
        }
        assert len(storm) == config.storm_apps
        assert {o["status"] for o in storm.values()} <= TERMINAL, seed
        assert report.peak_queued <= STORM_MAX_QUEUED, seed


def test_storm_actually_sheds_and_trips_breakers():
    # seed 0 is the CI-pinned storm: it must exercise every defense
    # layer, not just survive
    report = run_campaign(preset("storm", seed=0))
    statuses = [o["status"] for n, o in report.outcomes.items()
                if n.startswith("storm")]
    assert "completed" in statuses
    assert "rejected" in statuses
    assert "expired" in statuses
    assert report.sheds > 0
    reasons = {e["reason"] for e in report.shed_log}
    assert "rate" in reasons or "queue_full" in reasons
    assert report.breaker_transitions > 0


def test_storm_is_byte_deterministic():
    first = run_campaign(preset("storm", seed=0))
    second = run_campaign(preset("storm", seed=0))
    assert first.trace_hash == second.trace_hash
    assert first.metrics_hash == second.metrics_hash
    assert first.campaign_hash() == second.campaign_hash()


def test_storm_report_serialises_overload_fields():
    payload = run_campaign(preset("storm", seed=0)).to_dict()
    assert payload["ok"] is True
    for key in ("sheds", "shed_log", "peak_queued", "brownout_shifts",
                "breaker_transitions", "breaker_fast_fails"):
        assert key in payload, key
    assert payload["sheds"] == len(payload["shed_log"])
