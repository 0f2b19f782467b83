"""E2 — Figure 2: the site scheduler algorithm vs baseline schedulers.

The paper's claim: the site scheduler assigns "the most suitable
available resources ... in order to minimize the schedule length".  We
run random DAGs of growing size through VDCE's scheduler and the full
baseline set (random, round-robin, local-only, load-blind, min-min,
max-min, HEFT), executing each allocation on the *same* simulated
runtime, and report realised makespans.

Expected shape: VDCE beats the naive baselines (random/round-robin) at
every size and stays within the list-scheduling family's envelope
(close to min-min/HEFT).
"""

import pytest

from repro import DeploymentSpec
from repro.metrics import format_table
from repro.runtime import VDCERuntime
from repro.scheduler import (
    HEFTScheduler,
    LoadBlindScheduler,
    LocalOnlyScheduler,
    MaxMinScheduler,
    MinMinScheduler,
    RandomScheduler,
    RoundRobinScheduler,
    SiteScheduler,
)
from repro.workloads import RandomDAGConfig, random_dag

from benchmarks._common import execute, mean

SCHEDULERS = [
    ("vdce", lambda: SiteScheduler(k=1, name="vdce")),
    ("local-only", LocalOnlyScheduler),
    ("load-blind", lambda: LoadBlindScheduler(k=1)),
    ("min-min", MinMinScheduler),
    ("max-min", MaxMinScheduler),
    ("heft", HEFTScheduler),
    ("round-robin", RoundRobinScheduler),
    ("random", lambda: RandomScheduler(seed=1)),
]

SIZES = [10, 30, 60]
SEEDS = [0, 1, 2]


def run_one(n_tasks: int, seed: int, factory) -> float:
    runtime = VDCERuntime(
        DeploymentSpec.grid(2, 4, seed=seed).build_topology())
    afg = random_dag(RandomDAGConfig(n_tasks=n_tasks, width=5, mean_cost=3.0,
                                     cost_heterogeneity=0.6, ccr=0.4,
                                     seed=seed))
    table = factory().schedule(afg, runtime.federation_view())
    result = execute(runtime, afg, table, execute_payloads=False)
    return result.makespan


def test_scheduler_comparison_across_sizes(benchmark):
    rows = []
    makespans = {}
    for n_tasks in SIZES:
        row = {"n_tasks": n_tasks}
        for name, factory in SCHEDULERS:
            value = mean(run_one(n_tasks, s, factory) for s in SEEDS)
            row[name] = round(value, 2)
            makespans[(n_tasks, name)] = value
        rows.append(row)
    print()
    print(format_table(rows, title="E2 / Figure 2 — realised makespan (s), "
                                   "mean over 3 random DAGs"))

    for n_tasks in SIZES:
        vdce = makespans[(n_tasks, "vdce")]
        assert vdce <= makespans[(n_tasks, "random")] * 1.05, (
            f"VDCE lost to random at n={n_tasks}"
        )
        assert vdce <= makespans[(n_tasks, "round-robin")] * 1.05, (
            f"VDCE lost to round-robin at n={n_tasks}"
        )
        # same list-scheduling family: within 2x of HEFT
        assert vdce <= makespans[(n_tasks, "heft")] * 2.0

    benchmark(lambda: run_one(30, 0, SCHEDULERS[0][1]))
