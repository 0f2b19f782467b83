"""E5 — Figure 4: the monitoring pathway and its significant-change filter.

Paper §4.1: "The Group Manager sends to the Site Manager only the
workloads of the resources that have changed considerably from the
previous measurement."  We sweep the change threshold against load
volatility and report:

* message volume: measurements forwarded to the Site Manager vs
  suppressed at the Group Manager;
* staleness error: mean absolute difference between the repository's
  belief and ground-truth host load, sampled every second.

Expected shape: higher thresholds suppress more messages at the cost
of higher belief error; at zero threshold everything is forwarded and
the error floor is set by the monitor period alone.
"""

import pytest

from repro import DeploymentSpec
from repro.metrics import format_table
from repro.runtime import RuntimeConfig, VDCERuntime
from repro.sim.workload import OrnsteinUhlenbeckLoad, attach_generators

from benchmarks._common import mean

HORIZON_S = 120.0


def run_monitoring(threshold: float, sigma: float, seed: int = 0):
    rt = VDCERuntime(DeploymentSpec.grid(1, 8, seed=seed).build_topology(),
                     config=RuntimeConfig(monitor_period_s=2.0,
                                           change_threshold=threshold))
    attach_generators(
        rt.sim,
        rt.topology.all_hosts,
        lambda: OrnsteinUhlenbeckLoad(mean=1.0, theta=0.2, sigma=sigma,
                                      period_s=1.0),
    )
    rt.start_monitoring()

    errors = []

    def sample():
        repo = rt.repositories["site-0"]
        for host in rt.topology.all_hosts:
            believed = repo.resources.get(host.name).load
            errors.append(abs(believed - host.load_average()))

    t = 1.0
    while t < HORIZON_S:
        rt.sim.call_at(t, sample)
        t += 1.0
    rt.sim.run(until=HORIZON_S)
    return rt.stats, mean(errors)


def test_threshold_vs_volatility(benchmark):
    rows = []
    cells = {}
    for sigma in (0.05, 0.3):
        for threshold in (0.0, 0.25, 1.0):
            stats, error = run_monitoring(threshold, sigma)
            total = stats.workload_forwards + stats.workload_suppressed
            rows.append(
                {
                    "sigma": sigma,
                    "threshold": threshold,
                    "measured": total,
                    "forwarded": stats.workload_forwards,
                    "suppressed_pct": round(
                        100.0 * stats.workload_suppressed / total, 1
                    ),
                    "belief_err": round(error, 3),
                }
            )
            cells[(sigma, threshold)] = (stats.workload_forwards, error)
    print()
    print(format_table(rows, title="E5 / Figure 4 — significant-change filter"))

    for sigma in (0.05, 0.3):
        f0, e0 = cells[(sigma, 0.0)]
        f1, e1 = cells[(sigma, 1.0)]
        assert f1 < f0, "higher threshold must forward fewer messages"
        assert e1 >= e0 * 0.9, "suppression cannot reduce belief error"
    # calm hosts suppress more than volatile hosts at the same threshold
    assert cells[(0.05, 0.25)][0] <= cells[(0.3, 0.25)][0]

    benchmark(lambda: run_monitoring(0.25, 0.3))
