"""The campaign gate: pinned hashes hold, and the monolith stays gone.

Every trace, metrics and campaign hash of the campaigns below is an
entry of ``tests/pins.json`` (``campaign:<family>:<seed>``) and must
reproduce byte for byte — the six presets at seeds 0–2, the
``causal_spans`` variants CI runs with ``--spans``, and the
configuration ``bench``'s ``chaos_2x64`` warms up on.  Any change that
moves one of them changed campaign behaviour (fault plan, event order or
report shape), not just its code.  The traces and metrics snapshots were
last regenerated when the Monitor daemons began to elide a report the
Group Manager would suppress anyway (DESIGN §13.9), the ``campaign``
column when the report began to serialise ``asdict(config)`` whole.

The size half keeps the audit reviewable: ``run_campaign`` is a
driver, every invariant is one short checker in :data:`INVARIANTS`.
"""

import ast
from dataclasses import replace
from pathlib import Path

import pytest

from repro.sim import chaos, invariants
from repro.sim.chaos import (
    preset,
    run_campaign,
    smoke_config,
)
from repro.sim.invariants import INVARIANTS

pytestmark = pytest.mark.gate

#: campaign family -> the chaos preset it runs
PRESETS = {
    "smoke": "smoke",
    "slowdown": "slowdown-smoke",
    "storm": "storm",
    "corruption": "corruption",
    "churn": "churn",
    "calm": "calm",
}


def pinned_config(family: str, seed: int):
    if family == "bench":
        return replace(
            smoke_config(seed), n_sites=8, hosts_per_site=8, n_apps=11,
            app_spacing_s=2.0, n_flaky_hosts=12, n_flaky_links=4, k=3,
        )
    name, _, spans = family.partition("+")
    return replace(preset(PRESETS[name], seed), causal_spans=bool(spans))


#: (family, seed) of every pinned campaign
CAMPAIGNS = [
    *((family, seed) for family in (*PRESETS, "slowdown+spans")
      for seed in range(3)),
    ("smoke+spans", 0), ("corruption+spans", 0), ("churn+spans", 0),
    ("bench", 0),
]


@pytest.mark.parametrize("family,seed", CAMPAIGNS)
def test_campaign_hashes_match_the_pinned_file(family, seed, pin):
    report = run_campaign(pinned_config(family, seed))
    assert report.ok, report.violations
    pin(f"campaign:{family}:{seed}", trace=report.trace_hash,
        metrics=report.metrics_hash, campaign=report.campaign_hash())


def test_the_pinned_file_covers_what_ci_runs():
    families = {family for family, _seed in CAMPAIGNS}
    assert families == set(PRESETS) | {
        "smoke+spans", "corruption+spans", "churn+spans", "slowdown+spans",
        "bench",
    }
    # slowdown is the only preset that opens speculate_backup spans
    for family in (*PRESETS, "slowdown+spans"):
        assert sorted(s for f, s in CAMPAIGNS if f == family) == [0, 1, 2]


# -- size gate ---------------------------------------------------------------

def function_lengths(module):
    tree = ast.parse(Path(module.__file__).read_text())
    return {
        node.name: node.end_lineno - node.lineno + 1
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    }


def test_run_campaign_is_a_driver_not_a_monolith():
    assert function_lengths(chaos)["run_campaign"] <= 120


@pytest.mark.parametrize("module", (chaos, invariants),
                         ids=("chaos", "invariants"))
def test_no_function_outgrows_a_screenful(module):
    too_long = {
        name: n for name, n in function_lengths(module).items() if n > 80
    }
    assert not too_long


def test_the_invariant_table_is_complete_and_self_describing():
    ids = ["I1", "I2"] + [f"I{n}" for n in range(4, 18)]  # I3 is the CLI's
    assert len(INVARIANTS) == 16
    for invariant_id, check in zip(ids, INVARIANTS):
        assert check.__doc__.startswith(f"{invariant_id} — "), check.__name__
