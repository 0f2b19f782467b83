"""E15 — straggler defense: speculative re-execution under slowdown.

The paper's failure model (§4.2) only distinguishes up from down; a
host that is merely *slow* — owner returned, thermal throttling, a
noisy neighbour — passes every echo check while stretching the
application's critical path arbitrarily.  This bench scripts that
scenario: the fastest hosts in the federation (the ones ``Predict``
loves) are slowed 10x before the schedule lands, and we compare
makespans with speculation disabled vs enabled.

With speculation on, the Application Controller notices the overdue
task, launches one backup on the next-best host, and takes whichever
copy finishes first.  Expected shape: at least a 2x makespan win on
every seed, terminal output hashes byte-identical to the
pure-evaluation oracle regardless of which copy won, and exactly zero
overhead (no launches, identical makespan) when nothing straggles.
"""

import pytest

from repro import DeploymentSpec
from repro.metrics import format_table
from repro.runtime import RuntimeConfig, VDCERuntime
from repro.runtime.checkpoint import expected_output_hashes, final_output_hashes
from repro.runtime.straggler import SpeculationPolicy
from repro.scheduler import SiteScheduler
from repro.workloads import linear_pipeline

from benchmarks._common import execute, mean

ENABLED = lambda: RuntimeConfig(  # noqa: E731 - fresh policy per run
    speculation=SpeculationPolicy(trigger_multiple=1.5, check_period_s=0.5)
)
DISABLED = lambda: RuntimeConfig()  # noqa: E731


def run_case(config: RuntimeConfig, straggle: bool, seed: int):
    rt = VDCERuntime(DeploymentSpec.grid(2, 4, seed=seed).build_topology(),
                     config=config)
    if straggle:
        # degrade every speed-2.5 host: wherever Predict lands, it crawls
        for host in rt.topology.all_hosts:
            if host.spec.speed >= 2.5:
                host.set_slowdown(10.0)
    afg = linear_pipeline(n_stages=4, cost=6.0, edge_mb=0.5)
    table = SiteScheduler(k=1).schedule(afg, rt.federation_view())
    result = execute(rt, afg, table, execute_payloads=True)
    return rt, afg, result


def test_speculation_under_scripted_slowdown(benchmark):
    seeds = (0, 1, 2)
    rows = []
    ratios = []
    for seed in seeds:
        _, _, slow = run_case(DISABLED(), True, seed)
        rt, afg, raced = run_case(ENABLED(), True, seed)
        ratios.append(slow.makespan / raced.makespan)
        rows.append({
            "seed": seed,
            "no_spec_s": round(slow.makespan, 2),
            "spec_s": round(raced.makespan, 2),
            "speedup": round(slow.makespan / raced.makespan, 2),
            "backups": rt.stats.speculative_launches,
            "wins": rt.stats.speculative_wins,
            "wasted_s": round(rt.stats.speculative_wasted_s, 2),
        })
        # speculation safety: outputs match the pure-evaluation oracle
        # no matter which copy of each task won its race
        assert final_output_hashes(raced) == expected_output_hashes(
            afg, rt.registry
        ), f"seed {seed}: backup win corrupted terminal outputs"
        assert rt.stats.speculative_launches >= 1
        assert rt.stats.speculative_wins >= 1

    # zero-overhead guard: without a straggler, speculation must change
    # nothing — no backups, and the same makespan as the disabled config
    rt_idle, _, clean_spec = run_case(ENABLED(), False, 0)
    _, _, clean_base = run_case(DISABLED(), False, 0)
    rows.append({
        "seed": "0 (healthy)",
        "no_spec_s": round(clean_base.makespan, 2),
        "spec_s": round(clean_spec.makespan, 2),
        "speedup": 1.0,
        "backups": rt_idle.stats.speculative_launches,
        "wins": 0,
        "wasted_s": 0.0,
    })

    print()
    print(format_table(rows, title="E15 — speculative re-execution under "
                                   "a scripted 10x slowdown"))

    assert min(ratios) >= 2.0, (
        f"speculation must at least halve the straggled makespan "
        f"(worst seed ratio {min(ratios):.2f})"
    )
    assert rt_idle.stats.speculative_launches == 0, (
        "a healthy run must never launch backups"
    )
    assert clean_spec.makespan == pytest.approx(clean_base.makespan), (
        "enabled-but-idle speculation must cost nothing"
    )
    assert mean(ratios) >= 2.0

    benchmark(lambda: run_case(ENABLED(), True, 0))
