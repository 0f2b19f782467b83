"""E12 — the whole pipeline: design -> schedule -> setup -> run (paper §§2-4).

For each of the three flagship applications (the Figure 1 linear
solver, the C3I surveillance pipeline, and a random scientific DAG) we
report the latency breakdown across the paper's three phases:

* *schedule*: the Fig. 2 message exchange + placement (virtual time);
* *setup*: allocation distribution + channel setup + startup signal;
* *execute*: startup signal to last task completion,

plus the control-message bill each run leaves behind.

Expected shape: execution dominates end-to-end time for these
compute-heavy applications; setup cost scales with edge count, schedule
cost with federation width.
"""

import pytest

from repro import DeploymentSpec
from repro.metrics import format_table
from repro.runtime import VDCERuntime
from repro.scheduler import SiteScheduler
from repro.workloads import (
    RandomDAGConfig,
    linear_solver_afg,
    random_dag,
    surveillance_afg,
)


APPLICATIONS = [
    ("linear-solver", lambda: linear_solver_afg(scale=0.3,
                                                parallel_lu_nodes=2), True),
    ("c3i-surveillance", lambda: surveillance_afg(n_sensors=4,
                                                  scale=0.5), True),
    ("random-dag-40", lambda: random_dag(
        RandomDAGConfig(n_tasks=40, width=6, mean_cost=3.0, ccr=0.3,
                        seed=7)), False),
]


def run_pipeline(afg, payloads):
    """Schedule and run ``afg`` from ``site-0``; scheduling ends at the
    submission, which the federation's clock starts at 0."""
    rt = VDCERuntime(DeploymentSpec.grid(2, 4, seed=5).build_topology())
    result = rt.submit(afg, SiteScheduler(k=1), execute_payloads=payloads)
    return rt, result.submitted_at, result


def test_end_to_end_breakdown(benchmark):
    rows = []
    for name, factory, payloads in APPLICATIONS:
        afg = factory()
        rt, sched_time, result = run_pipeline(afg, payloads)
        rows.append(
            {
                "application": name,
                "tasks": len(afg),
                "edges": len(afg.edges),
                "schedule_s": round(sched_time, 4),
                "setup_s": round(result.setup_time, 4),
                "execute_s": round(result.makespan, 3),
                "ctrl_msgs": rt.stats.total_control_messages(),
                "moved_mb": round(result.data_transferred_mb, 1),
            }
        )
        # execution dominates for these compute-heavy apps
        assert result.makespan > result.setup_time
        assert result.makespan > sched_time
    print()
    print(format_table(rows, title="E12 — end-to-end phase breakdown"))

    benchmark(lambda: run_pipeline(linear_solver_afg(scale=0.3), True))


def test_quality_of_outputs_end_to_end(benchmark):
    """The full pipeline must produce *correct* answers, not just finish."""
    rt, _, solver_result = run_pipeline(
        linear_solver_afg(scale=0.2, parallel_lu_nodes=2), True
    )
    (residual,) = solver_result.outputs["verify"]
    rt2, _, c3i_result = run_pipeline(surveillance_afg(n_sensors=3,
                                                       scale=0.4), True)
    (summary,) = c3i_result.outputs["archive"]
    print(f"\nE12b — solver residual {residual:.2e}; "
          f"c3i tracks {summary['tracks']}")
    assert residual < 1e-8
    assert summary["tracks"] > 0

    benchmark(lambda: run_pipeline(surveillance_afg(n_sensors=3, scale=0.4),
                                   True))
