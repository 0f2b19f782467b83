"""The corruption chaos campaign: invariants I12/I13, determinism.

I12 — no dirty consumption: every value handed to a task matched its
producer's recorded hash.  I13 — repair or typed death: every incident
in a *completed* application resolved ``refetched`` or ``regenerated``;
``poisoned`` incidents only ever belong to applications that failed
typed.
"""

import pytest

from repro.sim.chaos import ChaosConfig, preset, run_campaign


@pytest.fixture(scope="module")
def corruption_report():
    return run_campaign(preset("corruption", seed=0))


def test_corruption_campaign_passes_all_invariants(corruption_report):
    assert corruption_report.ok, corruption_report.violations


def test_the_ladder_actually_exercised(corruption_report):
    """Seed 0 is chosen to cross sites: detections happen AND every
    application still completes — the repairs worked end to end."""
    integrity = corruption_report.integrity
    assert integrity is not None
    assert integrity["corruptions_detected"] >= 1
    assert integrity["refetches"] + integrity["regenerations"] >= 1
    assert integrity["dirty_consumptions"] == 0  # I12, directly
    assert all(
        o["status"] == "completed"
        for o in corruption_report.outcomes.values()
    )
    for incident in integrity["incidents"]:
        assert incident["resolution"] in ("refetched", "regenerated")


def test_corruption_campaign_is_byte_deterministic():
    first = run_campaign(preset("corruption", seed=0))
    second = run_campaign(preset("corruption", seed=0))
    assert first.trace_hash == second.trace_hash
    assert first.metrics_hash == second.metrics_hash
    assert first.campaign_hash() == second.campaign_hash()


@pytest.mark.parametrize("seed", [1, 2])
def test_other_seeds_hold_the_invariants(seed):
    report = run_campaign(preset("corruption", seed=seed))
    assert report.ok, report.violations


def test_report_serialises_the_integrity_section(corruption_report):
    payload = corruption_report.to_dict()
    assert "integrity" in payload
    assert payload["config"]["data_integrity"] is True
    assert {
        "corruptions_detected", "refetches", "regenerations",
        "poisoned", "artifacts_lost", "incidents", "dirty_consumptions",
    } <= set(payload["integrity"])


def test_corruption_config_validation():
    with pytest.raises(ValueError):
        ChaosConfig(n_corrupt_links=-1)
    with pytest.raises(ValueError):
        ChaosConfig(link_corrupt_prob=0.6, link_truncate_prob=0.5)
    with pytest.raises(ValueError):
        ChaosConfig(n_corrupt_links=1, link_corrupt_prob=0.1)  # needs integrity on
