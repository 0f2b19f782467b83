"""E9 — ablation of the level-based priority (paper §3, refs [2, 4]).

"The VDCE scheduling heuristic uses the level of each node to determine
its priority."  We run the same site scheduler with level priorities vs
plain FIFO ready-order on DAGs where ordering matters (deep, unbalanced
forks) and report realised makespans.

Expected shape: level priority <= FIFO on average, with the gap
concentrated on unbalanced graphs (on chains and uniform bags the two
orders coincide, so ties are expected there).
"""

import pytest

from repro import DeploymentSpec
from repro.metrics import format_table
from repro.runtime import VDCERuntime
from repro.scheduler import SiteScheduler
from repro.workloads import RandomDAGConfig, fork_join, random_dag

from benchmarks._common import execute, mean


def run(afg, use_levels: bool, seed: int) -> float:
    rt = VDCERuntime(DeploymentSpec.grid(2, 3, seed=seed).build_topology())
    scheduler = SiteScheduler(k=1, use_level_priority=use_levels)
    table = scheduler.schedule(afg, rt.federation_view())
    result = execute(rt, afg, table, execute_payloads=False)
    return result.makespan


def unbalanced_fork(seed: int):
    """A fork whose branches differ 20x in cost — ordering matters."""
    afg = fork_join(width=6, branch_cost=1.0, head_cost=0.5)
    # make two branches heavy
    for branch in ("b000", "b003"):
        node = afg.task(branch)
        afg.replace_task(node.with_properties(workload_scale=20.0))
    return afg


def test_level_priority_vs_fifo(benchmark):
    workloads = [
        ("unbalanced-fork", unbalanced_fork),
        ("random-wide", lambda seed: random_dag(
            RandomDAGConfig(n_tasks=40, width=8, mean_cost=2.0,
                            cost_heterogeneity=0.8, ccr=0.2, seed=seed))),
        ("random-deep", lambda seed: random_dag(
            RandomDAGConfig(n_tasks=40, width=2, mean_cost=2.0,
                            cost_heterogeneity=0.8, ccr=0.2, seed=seed))),
    ]
    seeds = (0, 1, 2, 3)
    rows = []
    summary = {}
    for name, factory in workloads:
        level = mean(run(factory(s), True, s) for s in seeds)
        fifo = mean(run(factory(s), False, s) for s in seeds)
        summary[name] = (level, fifo)
        rows.append(
            {
                "workload": name,
                "level_makespan_s": round(level, 2),
                "fifo_makespan_s": round(fifo, 2),
                "gain_pct": round(100 * (fifo - level) / fifo, 1),
            }
        )
    print()
    print(format_table(rows, title="E9 — level priority vs FIFO ready order"))

    # per workload the heuristic may trade a few percent either way...
    for name, (level, fifo) in summary.items():
        assert level <= fifo * 1.15, f"level priority badly lost on {name}"
    # ...but in aggregate level priority must win
    overall_level = mean(v[0] for v in summary.values())
    overall_fifo = mean(v[1] for v in summary.values())
    assert overall_level <= overall_fifo

    benchmark(lambda: run(unbalanced_fork(0), True, 0))
