"""Integration tests: large deployments and large applications."""

import pytest

from repro.runtime import VDCERuntime
from repro.scheduler import SiteScheduler
from repro.sim.topology import star_topology
from repro.workloads import RandomDAGConfig, random_dag

from tests.workloads._wavefront import wavefront


class TestScale:
    def test_300_task_dag_across_4_sites(self):
        topo = star_topology(seed=1, n_sites=4, hosts_per_site=8)
        rt = VDCERuntime(topo)
        afg = random_dag(RandomDAGConfig(n_tasks=300, width=12, mean_cost=1.0,
                                         cost_heterogeneity=0.5, ccr=0.3,
                                         seed=1))
        table = SiteScheduler(k=3).schedule(afg, rt.federation_view("site-0"))
        result = rt.sim.run_until_complete(
            rt.execute_process(afg, table, submit_site="site-0",
                               execute_payloads=False)
        )
        assert len(result.records) == 300
        assert all(r.attempts == 1 for r in result.records.values())
        # a pool of 32 hosts must actually be exploited
        assert len(result.hosts_used()) >= 16
        # makespan sanity: far below serial (sum of costs ~ 300)
        serial = sum(t.properties.workload_scale for t in afg)
        assert result.makespan < serial / 4

    def test_16x16_wavefront_completes(self):
        topo = star_topology(seed=2, n_sites=2, hosts_per_site=8)
        rt = VDCERuntime(topo)
        afg = wavefront(n=16, cost=0.5, edge_mb=0.1)  # 256 tasks
        table = SiteScheduler(k=1).schedule(afg, rt.federation_view("site-0"))
        result = rt.sim.run_until_complete(
            rt.execute_process(afg, table, submit_site="site-0",
                               execute_payloads=False)
        )
        assert len(result.records) == 256
        # the wavefront's critical path is 31 cells of 0.5 base seconds;
        # on the fastest host (speed 2.5) that's a hard lower bound
        assert result.makespan >= (2 * 16 - 1) * 0.5 / 2.5 - 1e-6

    def test_large_run_is_deterministic(self):
        def run():
            topo = star_topology(seed=3, n_sites=3, hosts_per_site=4)
            rt = VDCERuntime(topo)
            afg = random_dag(RandomDAGConfig(n_tasks=120, width=10, seed=3))
            table = SiteScheduler(k=2).schedule(
                afg, rt.federation_view("site-0"))
            result = rt.sim.run_until_complete(
                rt.execute_process(afg, table, submit_site="site-0",
                                   execute_payloads=False)
            )
            return result.makespan, tuple(sorted(result.hosts_used()))

        assert run() == run()

    def test_many_small_apps_back_to_back(self):
        topo = star_topology(seed=4, n_sites=2, hosts_per_site=3)
        rt = VDCERuntime(topo)
        makespans = []
        for i in range(10):
            afg = random_dag(RandomDAGConfig(n_tasks=12, width=4, seed=i))
            afg.name = f"app-{i}"
            table = SiteScheduler(k=1).schedule(
                afg, rt.federation_view("site-0"))
            result = rt.sim.run_until_complete(
                rt.execute_process(afg, table, submit_site="site-0",
                                   execute_payloads=False)
            )
            makespans.append(result.makespan)
        assert len(makespans) == 10
        assert rt.stats.startup_signals == 10
        assert rt.stats.taskperf_updates == 120
