"""The campaign gate: committed hashes hold, and the monolith stays gone.

``campaign_hashes.json``'s traces and metrics snapshots were last
regenerated at the commit that made the Monitor daemons elide a report
the Group Manager would suppress anyway (DESIGN §13.9): every trace is
its predecessor under ``repro.metrics.analysis.elide_repeated_reports``
with ``seq`` renumbered, every metrics snapshot its predecessor with
those reports' repeated points gone from the two monitor series.  Its
``campaign`` column was last regenerated when the ``ChaosConfig``
fields no caller set became module constants and the report began to
serialise ``asdict(config)`` whole (no per-family omission rule): each
entry is the previous report with only its ``config`` replaced, and
the trace and metrics columns did not move.  Every trace, metrics and
campaign hash in it must reproduce byte for byte — the six presets at
seeds 0–2, the ``causal_spans`` variants CI runs with ``--spans``, and
the configuration ``bench``'s ``chaos_2x64`` warms up on.  Any change
that moves one of them changed campaign behaviour (fault plan, event
order or report shape), not just its code.

The size half keeps the audit reviewable: ``run_campaign`` is a
driver, every invariant is one short checker in :data:`INVARIANTS`.
"""

import ast
import json
from dataclasses import replace
from pathlib import Path

import pytest

from repro.sim import chaos, invariants
from repro.sim.chaos import (
    calm_config,
    churn_smoke_config,
    corruption_smoke_config,
    run_campaign,
    slowdown_smoke_config,
    smoke_config,
    storm_config,
)
from repro.sim.invariants import INVARIANTS

PINNED = json.loads(
    (Path(__file__).parent / "campaign_hashes.json").read_text()
)

PRESETS = {
    "smoke": smoke_config,
    "slowdown": slowdown_smoke_config,
    "storm": storm_config,
    "corruption": corruption_smoke_config,
    "churn": churn_smoke_config,
    "calm": calm_config,
}


def pinned_config(family: str, seed: int):
    if family == "bench":
        return replace(
            smoke_config(seed), n_sites=8, hosts_per_site=8, n_apps=11,
            app_spacing_s=2.0, n_flaky_hosts=12, n_flaky_links=4, k=3,
        )
    preset, _, spans = family.partition("+")
    return replace(PRESETS[preset](seed), causal_spans=bool(spans))


@pytest.mark.parametrize("family,seed", [
    (family, seed) for family in sorted(PINNED) for seed in sorted(PINNED[family])
])
def test_campaign_hashes_match_the_pinned_file(family, seed):
    report = run_campaign(pinned_config(family, int(seed)))
    assert report.ok, report.violations
    assert {
        "trace": report.trace_hash,
        "metrics": report.metrics_hash,
        "campaign": report.campaign_hash(),
    } == PINNED[family][seed]


def test_the_pinned_file_covers_what_ci_runs():
    assert set(PINNED) == set(PRESETS) | {
        "smoke+spans", "corruption+spans", "churn+spans", "slowdown+spans",
        "bench",
    }
    # slowdown is the only preset that opens speculate_backup spans
    for family in (*PRESETS, "slowdown+spans"):
        assert sorted(PINNED[family]) == ["0", "1", "2"]


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
