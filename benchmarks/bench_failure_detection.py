"""E6 — echo-packet failure detection (paper §4.1).

"Another function of the Group Manager is to periodically check all
hosts in the group by sending echo packets ... When a failure of a host
is detected ... the host is then marked as 'down' at the site's
resource-performance database."

We crash hosts at random times and measure, per echo period: mean and
worst detection latency, echo traffic, and whether the scheduler stops
using the dead host afterwards.

Expected shape: mean detection latency ≈ period/2 (uniform crash time
within an echo interval), worst ≈ period; traffic ∝ 1/period — the
classic liveness/overhead trade-off.
"""

import pytest

from repro import DeploymentSpec
from repro.metrics import format_table
from repro.runtime import RuntimeConfig, VDCERuntime
from repro.scheduler import SiteScheduler
from repro.workloads import bag_of_tasks

from benchmarks._common import mean

HORIZON_S = 400.0


def run_detection(echo_period: float, seed: int = 0):
    rt = VDCERuntime(DeploymentSpec.grid(1, 8, seed=seed).build_topology(),
                     config=RuntimeConfig(echo_period_s=echo_period))
    rt.start_monitoring()
    rng = rt.sim.rng("bench:crashes")
    crash_times = {}
    for i, host in enumerate(rt.topology.all_hosts[:6]):
        t = float(rng.uniform(10.0, HORIZON_S - 50.0))
        crash_times[host.name] = t
        rt.sim.call_at(t, host.fail)
    rt.sim.run(until=HORIZON_S)

    latencies = []
    for host_name, crashed_at in crash_times.items():
        detections = [
            e for e in rt.stats.detection_log
            if e[1] == host_name and e[2] == "down"
        ]
        assert detections, f"{host_name} crash never detected"
        latencies.append(detections[0][0] - crashed_at)
    return latencies, rt.stats.echo_packets, rt


def test_detection_latency_vs_echo_period(benchmark):
    rows = []
    by_period = {}
    for period in (1.0, 5.0, 20.0):
        latencies, packets, _rt = run_detection(period)
        by_period[period] = (mean(latencies), max(latencies), packets)
        rows.append(
            {
                "echo_period_s": period,
                "mean_latency_s": round(mean(latencies), 2),
                "worst_latency_s": round(max(latencies), 2),
                "echo_packets": packets,
            }
        )
    print()
    print(format_table(rows, title="E6 — failure-detection latency vs echo period"))

    for period, (mean_lat, worst_lat, _packets) in by_period.items():
        assert mean_lat <= period * 1.05
        assert worst_lat <= period * 1.05
    # latency grows, traffic shrinks with the period
    assert by_period[20.0][0] > by_period[1.0][0]
    assert by_period[20.0][2] < by_period[1.0][2]

    benchmark(lambda: run_detection(5.0))


def test_scheduler_avoids_detected_down_hosts(benchmark):
    """After detection, host selection must exclude the dead host."""
    rt = VDCERuntime(DeploymentSpec.grid(1, 4, seed=1).build_topology(),
                     config=RuntimeConfig(echo_period_s=2.0))
    rt.start_monitoring()
    # the fastest host dies; detection happens by t=4
    fastest = max(rt.topology.all_hosts, key=lambda h: h.spec.speed)
    rt.sim.call_at(1.0, fastest.fail)
    rt.sim.run(until=10.0)
    assert not rt.repositories["site-0"].resources.get(fastest.name).up

    afg = bag_of_tasks(n=8, cost=2.0, seed=1)
    table = SiteScheduler(k=0).schedule(afg, rt.federation_view())
    used = set(table.hosts_used())
    print(f"\nE6b — dead host {fastest.name} excluded from placement: "
          f"{fastest.name not in used} (used: {sorted(used)})")
    assert fastest.name not in used

    def cycle():
        return SiteScheduler(k=0).schedule(afg, rt.federation_view())

    benchmark(cycle)
