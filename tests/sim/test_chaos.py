"""The chaos-campaign harness: invariants, determinism, typed failures."""

import dataclasses
import hashlib

import pytest

from repro.hashing import canonical_json
from repro.sim import chaos
from repro.sim.chaos import ChaosConfig, run_campaign, smoke_config


def test_smoke_campaign_passes_all_invariants():
    report = run_campaign(smoke_config(seed=0))
    assert report.ok, report.violations
    assert len(report.outcomes) == 3
    assert all(
        outcome["status"] in ("completed", "failed")
        for outcome in report.outcomes.values()
    )
    assert report.injection_events > 0
    assert report.detections > 0


def test_same_seed_is_byte_deterministic():
    first = run_campaign(smoke_config(seed=0))
    second = run_campaign(smoke_config(seed=0))
    assert first.trace_hash == second.trace_hash
    assert first.metrics_hash == second.metrics_hash
    assert first.campaign_hash() == second.campaign_hash()


def test_different_seeds_diverge():
    assert (run_campaign(smoke_config(seed=0)).campaign_hash()
            != run_campaign(smoke_config(seed=1)).campaign_hash())


def test_faults_produce_typed_failures_not_crashes():
    """A harsher campaign: applications may fail, but only with typed
    errors — and the invariant audit still passes."""
    config = ChaosConfig(
        seed=5,
        n_sites=3,
        hosts_per_site=3,
        n_apps=3,
        duration_s=240.0,
        app_spacing_s=35.0,
        n_flaky_hosts=3,
        host_mtbf_s=60.0,
        host_mttr_s=30.0,
        n_flaky_links=2,
        link_mtbf_s=80.0,
        link_mttr_s=25.0,
        partition_at_s=40.0,
        partition_duration_s=30.0,
        message_loss_prob=0.1,
        echo_loss_prob=0.05,
    )
    report = run_campaign(config)
    assert report.ok, report.violations
    statuses = {o["status"] for o in report.outcomes.values()}
    assert statuses <= {"completed", "failed"}
    for outcome in report.outcomes.values():
        if outcome["status"] == "failed":
            assert outcome["error"] in (
                "ExecutionError", "SchedulingError", "RpcTimeout", "HostDownError",
            )


def test_injection_log_is_serialised_in_report():
    report = run_campaign(smoke_config(seed=0))
    payload = report.to_dict()
    assert payload["ok"] is True
    assert payload["injection_log"]
    assert {"time", "target", "kind"} <= set(payload["injection_log"][0])
    # partition markers are part of the ground truth
    assert any(e["kind"] == "partition" for e in payload["injection_log"])


def test_config_validation():
    with pytest.raises(ValueError):
        ChaosConfig(n_apps=0)
    with pytest.raises(ValueError):
        ChaosConfig(message_loss_prob=1.0)
    with pytest.raises(ValueError):
        ChaosConfig(duration_s=0.0)
    with pytest.raises(ValueError):
        ChaosConfig(n_flaky_hosts=-1)


# -- the preset table -----------------------------------------------------------

#: the presets, in the CLI's flag order.  ``preset:<name>`` in
#: ``tests/pins.json`` is sha256 (16 hex digits) of
#: ``canonical_json(asdict(config))`` at seed 5, taken from the
#: hand-spelled builders the table replaced and re-taken when the fields
#: no caller set became module constants: each is the old preset's
#: ``asdict`` with those keys dropped
PRESET_NAMES = ("smoke", "slowdown-smoke", "storm", "corruption", "churn",
                "calm")


@pytest.mark.gate
@pytest.mark.parametrize("name", sorted(PRESET_NAMES))
def test_a_preset_is_the_configuration_its_builder_spelled_out(name, pin):
    """Each preset at seed 5 is its pinned digest (``preset:<name>``): a
    moved field moves every campaign that preset runs."""
    config = chaos.preset(name, seed=5)
    encoded = canonical_json(dataclasses.asdict(config)).encode("utf-8")
    pin(f"preset:{name}", digest=hashlib.sha256(encoded).hexdigest()[:16])


def test_the_preset_table_holds_only_what_differs_from_the_defaults():
    assert list(chaos.PRESETS) == list(PRESET_NAMES)
    defaults = ChaosConfig()
    for name, fields in chaos.PRESETS.items():
        assert fields["doc"]
        restated = [
            field for field, value in fields.items()
            if field != "doc" and value == getattr(defaults, field)
        ]
        assert not restated, f"{name} restates defaults: {restated}"
