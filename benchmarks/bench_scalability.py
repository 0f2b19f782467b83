"""E11 — scaling to "several geographically distributed sites" (paper §5).

The paper's prototype ran campus-wide; its stated next step was
multi-site scale.  We sweep federation size and measure:

* distributed-scheduling cost: virtual time spent on the Fig. 2
  message exchange (AFG multicast + bid replies) and the number of
  scheduler messages — expected linear in k;
* pure placement cost: wall-clock time of the scheduler itself as the
  host pool grows;
* realised makespan of a fixed bag of tasks — expected to improve with
  more sites, saturating once the bag is spread thin.
"""

import time

import pytest

from repro.metrics import format_table
from repro.runtime import VDCERuntime
from repro.scheduler import SiteScheduler
from repro.sim.topology import star_topology
from repro.workloads import bag_of_tasks

from benchmarks._common import execute


def schedule_distributed(runtime, afg, k):
    def run():
        result = yield from runtime.schedule_process(
            afg, SiteScheduler(k=k), local_site="site-0"
        )
        return result

    return runtime.sim.run_until_complete(runtime.sim.process(run()))


def test_scaling_with_sites(benchmark):
    afg = bag_of_tasks(n=48, cost=4.0, heterogeneity=0.3, seed=0)
    rows = []
    overheads = {}
    messages = {}
    makespans = {}
    for n_sites in (1, 2, 4, 8):
        rt = VDCERuntime(star_topology(n_sites=n_sites, hosts_per_site=4,
                                       seed=0))
        k = n_sites - 1
        wall_start = time.perf_counter()
        table, sched_virtual = schedule_distributed(rt, afg, k)
        wall = time.perf_counter() - wall_start
        result = execute(rt, afg, table, submit_site="site-0",
                         execute_payloads=False)
        overheads[n_sites] = sched_virtual
        messages[n_sites] = rt.stats.scheduler_messages
        makespans[n_sites] = result.makespan
        rows.append(
            {
                "sites": n_sites,
                "hosts": 4 * n_sites,
                "sched_msgs": rt.stats.scheduler_messages,
                "sched_virtual_s": round(sched_virtual, 4),
                "sched_wall_ms": round(wall * 1000, 2),
                "makespan_s": round(result.makespan, 2),
            }
        )
    print()
    print(format_table(rows, title="E11 — federation size sweep "
                                   "(48-task bag)"))

    # messages are exactly 2k (multicast out + bids back)
    for n_sites in (1, 2, 4, 8):
        assert messages[n_sites] == 2 * (n_sites - 1)
    # more sites -> more capacity -> no worse makespan
    assert makespans[8] <= makespans[1] * 1.02
    # scheduling overhead grows with the federation but stays bounded
    assert overheads[1] == 0.0
    assert overheads[8] >= overheads[2]

    rt = VDCERuntime(star_topology(n_sites=4, hosts_per_site=4, seed=0))
    benchmark(lambda: SiteScheduler(k=3).schedule(
        afg, rt.federation_view("site-0")))


def test_placement_wall_time_vs_dag_size(benchmark):
    """Pure scheduler wall time on growing DAGs (fixed 4-site pool)."""
    from repro.workloads import RandomDAGConfig, random_dag

    rt = VDCERuntime(star_topology(n_sites=4, hosts_per_site=4, seed=1))
    view = rt.federation_view("site-0")
    rows = []
    for n_tasks in (25, 100, 400):
        afg = random_dag(RandomDAGConfig(n_tasks=n_tasks, width=8, seed=1))
        start = time.perf_counter()
        SiteScheduler(k=3).schedule(afg, view)
        elapsed = time.perf_counter() - start
        rows.append({"n_tasks": n_tasks,
                     "placement_wall_ms": round(elapsed * 1000, 2)})
    print()
    print(format_table(rows, title="E11b — placement wall time vs DAG size"))

    afg = random_dag(RandomDAGConfig(n_tasks=100, width=8, seed=1))
    benchmark(lambda: SiteScheduler(k=3).schedule(afg, view))
