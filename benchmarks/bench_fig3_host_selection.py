"""E3 — Figure 3: prediction-driven host selection within one site.

The host-selection algorithm picks, per task, the host minimising
``Predict(task, R)`` using the repository's speed and *recent workload*
attributes.  We load a heterogeneous site unevenly and compare three
within-site policies on a bag of independent tasks:

* ``predictive`` — the paper's algorithm (speed + load aware);
* ``load-blind`` — same, but prediction ignores load (speed only);
* ``random`` — uniform placement.

Expected shape: predictive <= load-blind <= random in realised
makespan; the gap vs load-blind grows with load skew because blind
placement keeps picking the nominally fastest (but busy) hosts.
"""

import pytest

from repro import DeploymentSpec
from repro.metrics import format_table
from repro.runtime import VDCERuntime
from repro.scheduler import (
    LoadBlindScheduler,
    RandomScheduler,
    SiteScheduler,
)
from repro.workloads import bag_of_tasks

from benchmarks._common import execute, mean

POLICIES = [
    ("predictive", lambda: SiteScheduler(k=0, name="predictive")),
    ("load-blind", lambda: LoadBlindScheduler(k=0)),
    ("random", lambda: RandomScheduler(seed=3)),
]


def run_policy(factory, load_skew: float, seed: int) -> float:
    runtime = VDCERuntime(DeploymentSpec.grid(
        1, 6, seed=seed, speeds=(1.0, 1.5, 2.0, 2.5, 3.0, 3.5),
    ).build_topology())
    # ground truth + repository view: fast hosts are the busy ones
    hosts = sorted(runtime.topology.all_hosts, key=lambda h: h.spec.speed)
    for rank, host in enumerate(hosts):
        load = load_skew * rank / (len(hosts) - 1)
        host.set_bg_load(load)
        runtime.repositories["site-0"].resources.update_workload(
            host.name, load=load, available_memory_mb=256, time=0.0
        )
    afg = bag_of_tasks(n=18, cost=4.0, heterogeneity=0.4, seed=seed)
    table = factory().schedule(afg, runtime.federation_view())
    result = execute(runtime, afg, table, execute_payloads=False)
    return result.makespan


def test_host_selection_policies(benchmark):
    rows = []
    results = {}
    for skew in (0.0, 2.0, 6.0):
        row = {"load_skew": skew}
        for name, factory in POLICIES:
            value = mean(run_policy(factory, skew, seed) for seed in (0, 1, 2))
            row[name] = round(value, 2)
            results[(skew, name)] = value
        rows.append(row)
    print()
    print(format_table(
        rows,
        title="E3 / Figure 3 — bag-of-tasks makespan (s) within one site",
    ))

    for skew in (2.0, 6.0):
        assert results[(skew, "predictive")] <= results[(skew, "load-blind")] * 1.02
        assert results[(skew, "predictive")] <= results[(skew, "random")] * 1.02
    # under skew, awareness must actually help, not just tie
    assert results[(6.0, "predictive")] < results[(6.0, "load-blind")]

    benchmark(lambda: run_policy(POLICIES[0][1], 6.0, 0))


def test_host_selection_pure_algorithm_speed(benchmark):
    """Wall-time of Figure 3 itself (pure host selection over a site)."""
    from repro.scheduler import select_hosts
    from repro.workloads import RandomDAGConfig, random_dag

    runtime = VDCERuntime(DeploymentSpec.grid(1, 16, seed=0).build_topology())
    afg = random_dag(RandomDAGConfig(n_tasks=100, seed=0))
    repo = runtime.repositories["site-0"]
    bids = benchmark(lambda: select_hosts(afg, repo))
    assert len(bids) == 100
