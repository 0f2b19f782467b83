"""E7 — dynamic task rescheduling under load spikes (paper §4.1).

"If the current load on any of these machines is more than a predefined
threshold value, the Application Controller terminates the task
execution on the machine and sends a task rescheduling request."

We run a long pipeline while workstation owners return at random
(sustained load spikes) and compare makespans with the Application
Controller's rescheduling enabled (threshold 3.0) vs disabled
(threshold effectively infinite), over several spike seeds.

Expected shape: rescheduling recovers most of the spike-induced
slowdown whenever spikes actually hit the critical path; it never makes
the no-spike case worse.
"""

import pytest

from repro import DeploymentSpec
from repro.metrics import format_table
from repro.runtime import RuntimeConfig, VDCERuntime
from repro.scheduler import SiteScheduler
from repro.sim.workload import SpikeLoad, attach_generators
from repro.workloads import linear_pipeline

from benchmarks._common import execute, mean

ENABLED = RuntimeConfig(load_threshold=3.0, check_period_s=1.0)
DISABLED = RuntimeConfig(load_threshold=1e9, check_period_s=1.0)


def run_case(config: RuntimeConfig, spikes: bool, seed: int):
    rt = VDCERuntime(DeploymentSpec.grid(1, 5, seed=seed).build_topology(),
                     config=config)
    if spikes:
        attach_generators(
            rt.sim,
            rt.topology.all_hosts,
            lambda: SpikeLoad(base=0.1, spike_level=8.0, spike_prob=0.05,
                              spike_duration_periods=20, period_s=1.0),
        )
    afg = linear_pipeline(n_stages=8, cost=8.0, edge_mb=0.5)
    table = SiteScheduler(k=0).schedule(afg, rt.federation_view())
    result = execute(rt, afg, table, execute_payloads=False)
    return result


def test_rescheduling_under_spikes(benchmark):
    seeds = (0, 1, 2, 3)
    quiet = mean(run_case(ENABLED, False, s).makespan for s in seeds)
    with_resched = [run_case(ENABLED, True, s) for s in seeds]
    without_resched = [run_case(DISABLED, True, s) for s in seeds]

    rows = [
        {
            "case": "no spikes (baseline)",
            "makespan_s": round(quiet, 2),
            "reschedules": 0,
        },
        {
            "case": "spikes + rescheduling",
            "makespan_s": round(mean(r.makespan for r in with_resched), 2),
            "reschedules": sum(r.reschedules for r in with_resched),
        },
        {
            "case": "spikes, no rescheduling",
            "makespan_s": round(mean(r.makespan for r in without_resched), 2),
            "reschedules": sum(r.reschedules for r in without_resched),
        },
    ]
    print()
    print(format_table(rows, title="E7 — load-threshold rescheduling "
                                   "(mean over 4 spike seeds)"))

    resched_mean = mean(r.makespan for r in with_resched)
    no_resched_mean = mean(r.makespan for r in without_resched)
    assert resched_mean <= no_resched_mean * 1.02, (
        "rescheduling should not be slower than riding out the spikes"
    )
    assert sum(r.reschedules for r in with_resched) > 0, (
        "spikes this strong must trigger at least one reschedule"
    )
    assert quiet <= resched_mean * 1.02, "spikes cannot speed things up"

    benchmark(lambda: run_case(ENABLED, True, 0))
