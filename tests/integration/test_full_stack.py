"""Integration tests: whole-system scenarios spanning many subsystems."""

import numpy as np
import pytest

from repro import VDCE, DeploymentSpec, HostSpec, SiteConfig
from repro.runtime import AdmissionQueue, RuntimeConfig
from repro.scheduler import SiteScheduler
from repro.sim.workload import OrnsteinUhlenbeckLoad, attach_generators
from repro.workloads import (
    linear_solver_afg,
    surveillance_afg,
)


class TestMonitoringInformsScheduling:
    """The paper's core loop: monitors keep the resource DB fresh, the
    scheduler reads it, placements follow reality."""

    def test_scheduler_reacts_to_monitored_load(self):
        env = VDCE.standard(n_sites=1, hosts_per_site=3, seed=1,
                            runtime_config=RuntimeConfig(monitor_period_s=1.0,
                                                         change_threshold=0.1))
        env.start_monitoring()
        # all hosts are equal; overload two of them (ground truth only)
        hosts = sorted(h.name for h in env.topology.all_hosts)
        env.topology.host(hosts[0]).set_bg_load(9.0)
        env.topology.host(hosts[1]).set_bg_load(9.0)
        # before monitoring runs the DB still believes all idle
        from repro.workloads import bag_of_tasks

        afg = bag_of_tasks(n=3, cost=2.0)
        stale = SiteScheduler(k=0).schedule(afg, env.runtime.federation_view())
        assert {h for a in stale.assignments.values() for h in a.hosts} == set(hosts)  # spreads blindly
        # after a monitoring round, the loaded hosts are avoided
        env.advance(2.0)
        fresh = SiteScheduler(k=0).schedule(afg, env.runtime.federation_view())
        assert {h for a in fresh.assignments.values() for h in a.hosts} == {hosts[2]}

    def test_stale_monitoring_hurts_makespan(self):
        """Slower monitoring -> staler DB -> worse placements on average."""

        def run(monitor_period):
            env = VDCE.standard(
                n_sites=1, hosts_per_site=4, seed=3,
                runtime_config=RuntimeConfig(monitor_period_s=monitor_period,
                                             change_threshold=0.0,
                                             # isolate the staleness effect:
                                             # no dynamic rescheduling
                                             load_threshold=1e9),
            )
            attach_generators(
                env.sim, env.topology.all_hosts,
                lambda: OrnsteinUhlenbeckLoad(mean=1.5, theta=0.1, sigma=0.8,
                                              period_s=1.0),
            )
            env.start_monitoring()
            env.advance(30.0)
            from repro.workloads import bag_of_tasks

            makespans = []
            for i in range(5):
                result = env.submit(bag_of_tasks(n=8, cost=3.0, seed=i),
                                    k=0, execute_payloads=False)
                makespans.append(result.makespan)
                env.advance(5.0)
            return sum(makespans) / len(makespans)

        fresh = run(monitor_period=1.0)
        stale = run(monitor_period=500.0)  # effectively never updates
        assert fresh <= stale * 1.05


class TestMultiApplicationWorkflows:
    def test_sequential_submissions_share_one_deployment(self):
        env = VDCE.standard(n_sites=2, hosts_per_site=3, seed=2)
        r1 = env.submit(linear_solver_afg(scale=0.15), k=1)
        r2 = env.submit(surveillance_afg(n_sensors=2, scale=0.3), k=1)
        assert r1.application != r2.application
        (residual,) = r1.outputs["verify"]
        assert residual < 1e-8
        assert env.stats()["startup_signals"] == 2
        # the second application benefits from first-run calibration data
        assert env.repository().task_perf.measurements_recorded > 0

    def test_concurrent_applications_contend_for_hosts(self):
        env = VDCE.standard(n_sites=1, hosts_per_site=2, seed=4)
        from repro.workloads import linear_pipeline

        afg_a = linear_pipeline(n_stages=3, cost=5.0)
        afg_b = linear_pipeline(n_stages=3, cost=5.0)
        afg_b.name = "pipeline-b"
        view = env.runtime.federation_view()
        table_a = SiteScheduler(k=0).schedule(afg_a, view)
        table_b = SiteScheduler(k=0).schedule(afg_b, view)
        proc_a = env.runtime.execute_process(afg_a, table_a,
                                             execute_payloads=False)
        proc_b = env.runtime.execute_process(afg_b, table_b,
                                             execute_payloads=False)
        result_a = env.sim.run_until_complete(proc_a)
        result_b = env.sim.run_until_complete(proc_b)
        # both complete; concurrent execution implies sharing slowed them
        solo_env = VDCE.standard(n_sites=1, hosts_per_site=2, seed=4)
        solo = solo_env.submit(linear_pipeline(n_stages=3, cost=5.0), k=0,
                               execute_payloads=False)
        assert result_a.makespan >= solo.makespan - 1e-9
        assert result_b.makespan >= solo.makespan - 1e-9

    def test_admission_queue_with_editor_accounts(self):
        env = VDCE.standard(n_sites=1, hosts_per_site=2, seed=5)
        env.add_user("vip", "x", priority=9)
        env.add_user("student", "x", priority=1)
        queue = AdmissionQueue(env.runtime, max_concurrent=1)
        from repro.workloads import linear_pipeline

        jobs = []
        for i, user in enumerate(["student", "student", "vip"]):
            afg = linear_pipeline(n_stages=2, cost=2.0)
            afg.name = f"job-{i}-{user}"
            jobs.append(queue.submit(afg, user))

        def waiter():
            for s in jobs:
                yield s

        env.sim.run_until_complete(env.sim.process(waiter()))
        assert queue.admitted_order[0] == "job-2-vip"


class TestHeterogeneousDeployments:
    def test_machine_type_constraints_across_sites(self):
        """Only one site has solaris machines; type-constrained tasks land
        there even when the other site is faster."""
        from repro.sim import HostSpec, Simulator
        from repro.sim.site import GroupSpec, Site, SiteSpec
        from repro.sim.topology import Topology
        from repro.sim.network import Network
        from repro.runtime import VDCERuntime
        from repro.afg import ApplicationFlowGraph, TaskNode, TaskProperties

        sim = Simulator(seed=0)
        solaris = Site(sim, SiteSpec(name="sun-site", groups=(
            GroupSpec(name="g", leader="sun1", hosts=(
                HostSpec(name="sun1", speed=1.0, arch="sparc", os="solaris"),
                HostSpec(name="sun2", speed=1.0, arch="sparc", os="solaris"),
            )),
        )))
        linux = Site(sim, SiteSpec(name="linux-site", groups=(
            GroupSpec(name="g", leader="lx1", hosts=(
                HostSpec(name="lx1", speed=8.0, arch="x86", os="linux"),
            )),
        )))
        topo = Topology(sim, [solaris, linux], Network(sim))
        rt = VDCERuntime(topo, default_site="linux-site")

        afg = ApplicationFlowGraph("typed")
        afg.add_task(TaskNode(
            id="anywhere", task_type="generic.source", n_out_ports=1))
        afg.add_task(TaskNode(
            id="sun-only", task_type="generic.compute", n_in_ports=1,
            n_out_ports=1,
            properties=TaskProperties(preferred_machine_type="SUN solaris")))
        afg.connect("anywhere", "sun-only", size_mb=0.01)
        table = SiteScheduler(k=1).schedule(
            afg, rt.federation_view("linux-site"))
        assert table.get("anywhere").hosts == ("lx1",)  # fastest wins
        assert table.get("sun-only").site == "sun-site"

    def test_memory_constrained_task_avoids_small_hosts(self):
        spec = DeploymentSpec(sites=(
            SiteConfig(name="s", hosts=(
                HostSpec("big-slow", speed=1.0, memory_mb=2048),
                HostSpec("small-fast", speed=4.0, memory_mb=64),
            )),
        ))
        env = VDCE(spec=spec)
        from repro.afg import ApplicationFlowGraph, TaskNode, TaskProperties

        afg = ApplicationFlowGraph("hungry")
        afg.add_task(TaskNode(
            id="t", task_type="generic.source", n_out_ports=1,
            properties=TaskProperties(memory_mb=512)))
        table = SiteScheduler(k=0).schedule(afg, env.runtime.federation_view())
        # 4x speed advantage < 4x memory penalty
        assert table.get("t").hosts == ("big-slow",)


class TestDeterminism:
    def test_identical_seeds_produce_identical_runs(self):
        def run(seed):
            env = VDCE.standard(n_sites=2, hosts_per_site=3, seed=seed)
            attach_generators(
                env.sim, env.topology.all_hosts,
                lambda: OrnsteinUhlenbeckLoad(period_s=1.0),
            )
            env.start_monitoring()
            env.advance(5.0)
            result = env.submit(surveillance_afg(n_sensors=2, scale=0.3),
                                k=1)
            return (
                result.makespan,
                {t: r.hosts for t, r in result.records.items()},
                env.stats()["workload_forwards"],
            )

        assert run(42) == run(42)
        assert run(42) != run(43)
