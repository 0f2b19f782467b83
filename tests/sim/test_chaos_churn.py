"""The churn chaos campaign: invariants I14/I15/I16, determinism, neutrality.

I14 — no placement on a non-ACTIVE host after its transition is
visible.  I15 — a graceful drain loses no work: every task evicted by a
membership change completes elsewhere (or its application dies typed).
I16 — rejoin convergence: a churned host whose last transition is a
rejoin ends the campaign ACTIVE and schedulable again.  And an
armed-but-idle configuration must not draw any extra RNG.
"""

from dataclasses import replace

import pytest

from repro.sim.chaos import (
    ChaosConfig,
    preset,
    run_campaign,
    smoke_config,
)


@pytest.fixture(scope="module")
def churn_report():
    return run_campaign(preset("churn", seed=0))


def test_churn_campaign_passes_all_invariants(churn_report):
    assert churn_report.ok, churn_report.violations


def test_churn_is_actually_exercised(churn_report):
    """The preset is tuned so drains genuinely evict running work —
    otherwise I15 would pass vacuously."""
    membership = churn_report.membership
    assert membership is not None
    assert len(membership["targets"]) == 9
    assert membership["drain_affected_tasks"] >= 1
    transitions = [t["transition"] for t in membership["transitions"]]
    assert transitions.count("drain") == 9
    assert transitions.count("depart") == 9
    assert transitions.count("rejoin") == 9
    assert all(
        o["status"] == "completed" for o in churn_report.outcomes.values()
    ), "a drain lost work (I15)"


def test_transitions_are_ordered_and_epoch_stamped(churn_report):
    times = [t["time"] for t in churn_report.membership["transitions"]]
    assert times == sorted(times)
    for target in churn_report.membership["targets"]:
        epochs = [
            t["epoch"]
            for t in churn_report.membership["transitions"]
            if t["host"] == target
        ]
        assert epochs == sorted(epochs)  # epochs never regress
        assert epochs[-1] >= 1  # the rejoin happened under a new epoch


def test_churn_campaign_is_byte_deterministic():
    first = run_campaign(preset("churn", seed=0))
    second = run_campaign(preset("churn", seed=0))
    assert first.trace_hash == second.trace_hash
    assert first.metrics_hash == second.metrics_hash
    assert first.campaign_hash() == second.campaign_hash()


@pytest.mark.parametrize("seed", [1, 2])
def test_other_seeds_hold_the_invariants(seed):
    report = run_campaign(preset("churn", seed=seed))
    assert report.ok, report.violations
    assert report.membership["drain_affected_tasks"] >= 1
    assert all(
        o["status"] == "completed" for o in report.outcomes.values()
    )


def test_report_serialises_the_membership_section(churn_report):
    payload = churn_report.to_dict()
    assert payload["config"]["n_churn_hosts"] == 9
    assert {"targets", "drain_affected_tasks", "transitions"} \
        <= set(payload["membership"])
    entry = payload["membership"]["transitions"][0]
    assert {"time", "host", "site", "transition", "epoch"} <= set(entry)


def test_armed_but_idle_config_draws_zero_extra_rng():
    """Satellite 5's neutrality pin: churn *knobs* set but zero churn
    hosts must replay the default campaign byte for byte — proof that
    an unarmed deployment never touches the churn RNG streams."""
    baseline = run_campaign(smoke_config(seed=0))
    idle = run_campaign(
        replace(
            smoke_config(seed=0),
            churn_start_s=10.0,
            churn_window_s=5.0,
            churn_drain_deadline_s=3.0,
            churn_rejoin_after_s=20.0,
        )
    )
    assert idle.trace_hash == baseline.trace_hash
    assert idle.metrics_hash == baseline.metrics_hash
    assert idle.membership is None


def test_churn_config_validation():
    with pytest.raises(ValueError):
        ChaosConfig(n_churn_hosts=-1)
    with pytest.raises(ValueError):
        ChaosConfig(n_churn_hosts=2, churn_window_s=0.0)
    with pytest.raises(ValueError):
        ChaosConfig(n_churn_hosts=2, churn_drain_deadline_s=0.0)
    with pytest.raises(ValueError):
        ChaosConfig(n_churn_hosts=2, churn_rejoin_after_s=-1.0)
