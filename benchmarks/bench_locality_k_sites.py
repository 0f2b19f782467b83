"""E4 — locality: "tasks are scheduled within a site (or within the
nearest-neighbor sites) to decrease inter-task communication time".

We sweep k (how many nearest remote sites join the schedule) on a
4-site star whose WAN latency grows with distance, for two workloads:

* a *chatty* application (big edges) — locality should dominate: small
  k (or at least co-located placement) wins, and growing k must not
  blow up the makespan because the transfer-time term of Fig. 2 keeps
  chatty neighbours together;
* a *compute-bound* bag (no edges) — more sites = more hosts, so
  makespan should fall (or at worst flatten) as k grows.

Also sweeps WAN bandwidth for the chatty case: the slower the WAN, the
larger the share of tasks the scheduler keeps on the submitting site.
"""

import pytest

from repro.metrics import format_table
from repro.runtime import VDCERuntime
from repro.scheduler import SiteScheduler
from repro.sim.topology import star_topology
from repro.workloads import bag_of_tasks, linear_pipeline

from benchmarks._common import execute


def run(runtime, afg, k):
    table = SiteScheduler(k=k).schedule(afg, runtime.federation_view("site-0"))
    result = execute(runtime, afg, table, submit_site="site-0",
                     execute_payloads=False)
    local_share = sum(
        1 for r in result.records.values() if r.site == "site-0"
    ) / len(result.records)
    return result, local_share


def test_k_sweep_two_workloads(benchmark):
    rows = []
    chatty = {}
    compute = {}
    for k in (0, 1, 2, 3):
        rt = VDCERuntime(star_topology(n_sites=4, hosts_per_site=3, seed=k))
        chatty_result, chatty_local = run(
            rt, linear_pipeline(n_stages=8, cost=3.0, edge_mb=20.0), k
        )
        rt2 = VDCERuntime(star_topology(n_sites=4, hosts_per_site=3, seed=k))
        bag_result, _ = run(rt2, bag_of_tasks(n=24, cost=4.0, seed=k), k)
        chatty[k] = chatty_result
        compute[k] = bag_result
        rows.append(
            {
                "k": k,
                "chatty_makespan_s": round(chatty_result.makespan, 2),
                "chatty_local_share": round(chatty_local, 2),
                "chatty_moved_mb": round(chatty_result.data_transferred_mb, 1),
                "bag_makespan_s": round(bag_result.makespan, 2),
            }
        )
    print()
    print(format_table(rows, title="E4 — k-nearest-site sweep (star of 4 sites)"))

    # compute-bound: more sites must help (or at worst tie)
    assert compute[3].makespan <= compute[0].makespan * 1.02
    # chatty: widening the federation must not blow up the makespan —
    # the transfer term keeps the pipeline co-located
    assert chatty[3].makespan <= chatty[0].makespan * 1.25

    benchmark(lambda: run(
        VDCERuntime(star_topology(n_sites=4, hosts_per_site=3, seed=0)),
        bag_of_tasks(n=24, cost=4.0, seed=0), 3))


def staged_pipeline(n_stages: int, cost: float, edge_mb: float,
                    file_mb: float):
    """A pipeline whose entry stage stages a big file from the submit site.

    With a file input, the entry task is *not* free to chase the fastest
    remote host: Fig. 2 charges it the transfer of ``file_mb`` from the
    submitting site, so WAN bandwidth gates offloading.
    """
    from repro.afg import (
        ApplicationFlowGraph,
        FileSpec,
        InputBinding,
        TaskNode,
        TaskProperties,
    )

    afg = ApplicationFlowGraph(f"staged-pipeline-{n_stages}")
    afg.add_task(
        TaskNode(
            id="s000",
            task_type="generic.compute",
            n_in_ports=1,
            n_out_ports=1,
            properties=TaskProperties(
                workload_scale=cost,
                inputs=(InputBinding(0, FileSpec("/data/input.dat", file_mb)),),
            ),
        )
    )
    for i in range(1, n_stages):
        afg.add_task(
            TaskNode(
                id=f"s{i:03d}",
                task_type="generic.compute",
                n_in_ports=1,
                n_out_ports=1,
                properties=TaskProperties(workload_scale=cost),
            )
        )
        afg.connect(f"s{i-1:03d}", f"s{i:03d}", size_mb=edge_mb)
    return afg


def test_wan_bandwidth_governs_offloading(benchmark):
    rows = []
    shares = {}
    for bandwidth in (0.05, 2.0, 50.0):
        # remote sites are faster, so offloading is tempting ...
        rt = VDCERuntime(star_topology(n_sites=4, hosts_per_site=2, seed=1,
                                       speeds=(1.0, 1.0, 3.0, 3.0),
                                       wan_bandwidth_mbps=bandwidth))
        # ... but the 60 MB input must come from the submitting site
        afg = staged_pipeline(n_stages=10, cost=2.0, edge_mb=5.0,
                              file_mb=60.0)
        result, local_share = run(rt, afg, k=3)
        shares[bandwidth] = local_share
        rows.append(
            {
                "wan_mbps": bandwidth,
                "makespan_s": round(result.makespan, 2),
                "local_share": round(local_share, 2),
                "moved_mb": round(result.data_transferred_mb, 1),
            }
        )
    print()
    print(format_table(rows, title="E4b — WAN bandwidth vs offloading "
                                   "(file-staged pipeline)"))
    # slow WAN -> stay home; fast WAN -> chase the faster remote hosts
    assert shares[0.05] > shares[50.0]
    assert shares[0.05] == 1.0

    benchmark(
        lambda: run(
            VDCERuntime(star_topology(n_sites=4, hosts_per_site=2, seed=1,
                                      speeds=(1.0, 1.0, 3.0, 3.0),
                                      wan_bandwidth_mbps=2.0)),
            staged_pipeline(n_stages=10, cost=2.0, edge_mb=5.0, file_mb=60.0),
            3,
        )
    )
