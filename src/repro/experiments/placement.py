"""E1–E4, E9–E11, E13: the paper's figures and its scheduling claims.

Each ``eN()`` builds bare ``VDCERuntime``\\ s over
``DeploymentSpec.grid(...).build_topology()`` or ``star_topology(...)``,
places an application with the scheduler under test and executes the
allocation on the same simulated runtime; it returns the experiment's
tables (EXPERIMENTS.md).
"""

from __future__ import annotations

from typing import Dict, List

from repro.afg import (
    ApplicationFlowGraph,
    FileSpec,
    InputBinding,
    TaskNode,
    TaskProperties,
)
from repro.core.config import DeploymentSpec
from repro.runtime.vdce_runtime import VDCERuntime
from repro.scheduler import (
    HEFTScheduler,
    LoadBlindScheduler,
    LocalOnlyScheduler,
    MaxMinScheduler,
    MinMinScheduler,
    PredictionModel,
    RandomScheduler,
    RoundRobinScheduler,
    SiteScheduler,
)
from repro.sim.topology import star_topology
from repro.workloads import (
    RandomDAGConfig,
    bag_of_tasks,
    figure1_afg,
    fork_join,
    linear_pipeline,
    random_dag,
)

Rows = List[Dict[str, object]]


def mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def execute(runtime, afg, table, **kwargs):
    """Run ``afg`` as ``table`` placed it, to completion; the result."""
    return runtime.sim.run_until_complete(
        runtime.execute_process(afg, table, **kwargs))


def grid(n_sites: int, hosts_per_site: int, seed: int, **kwargs) -> VDCERuntime:
    """A bare runtime over the speed-cycling grid."""
    return VDCERuntime(DeploymentSpec.grid(
        n_sites, hosts_per_site, seed=seed).build_topology(), **kwargs)


def makespan(runtime, afg, scheduler) -> float:
    """Place ``afg`` with ``scheduler`` and run it without payloads."""
    table = scheduler.schedule(afg, runtime.federation_view())
    return execute(runtime, afg, table, execute_payloads=False).makespan


# -- E1: Figure 1 -------------------------------------------------------------

def e1() -> List[Rows]:
    """The Figure 1 AFG placed and run on 2 sites x 4 hosts: per task its
    mode, nodes, hosts and their OS; then the run's totals."""
    runtime = grid(2, 4, seed=1)
    afg = figure1_afg()
    table = SiteScheduler(k=1).schedule(afg, runtime.federation_view())
    result = execute(runtime, afg, table, execute_payloads=False)
    tasks = []
    for task_id in sorted(result.records):
        record = result.records[task_id]
        node = afg.task(task_id)
        tasks.append({
            "task": task_id,
            "mode": node.properties.mode.value,
            "nodes": node.properties.n_nodes,
            "site": record.site,
            "hosts": ",".join(record.hosts),
            "os": runtime.topology.host(record.hosts[0]).spec.os,
            "predicted_s": round(record.predicted_time, 3),
            "measured_s": round(record.measured_time, 3),
        })
    totals = [{"setup_s": round(result.setup_time, 4),
               "makespan_s": round(result.makespan, 3),
               "moved_mb": round(result.data_transferred_mb, 1)}]
    return [tasks, totals]


# -- E2: Figure 2 vs baselines ------------------------------------------------

E2_SCHEDULERS = [
    ("vdce", lambda: SiteScheduler(k=1, name="vdce")),
    ("local-only", LocalOnlyScheduler),
    ("load-blind", lambda: LoadBlindScheduler(k=1)),
    ("min-min", MinMinScheduler),
    ("max-min", MaxMinScheduler),
    ("heft", HEFTScheduler),
    ("round-robin", RoundRobinScheduler),
    ("random", lambda: RandomScheduler(seed=1)),
]


def e2() -> List[Rows]:
    """Realised makespan of every scheduler, mean over 3 random DAGs, on
    2 sites x 4 heterogeneous hosts."""
    rows = []
    for n_tasks in (10, 30, 60):
        row = {"n_tasks": n_tasks}
        for name, factory in E2_SCHEDULERS:
            row[name] = round(mean(
                makespan(grid(2, 4, seed=seed), random_dag(RandomDAGConfig(
                    n_tasks=n_tasks, width=5, mean_cost=3.0,
                    cost_heterogeneity=0.6, ccr=0.4, seed=seed)), factory())
                for seed in (0, 1, 2)), 2)
        rows.append(row)
    return [rows]


# -- E3: Figure 3 within one site ---------------------------------------------

E3_POLICIES = [
    ("predictive", lambda: SiteScheduler(k=0, name="predictive")),
    ("load-blind", lambda: LoadBlindScheduler(k=0)),
    ("random", lambda: RandomScheduler(seed=3)),
]


def _skewed_site(load_skew: float, seed: int) -> VDCERuntime:
    """One site of 6 hosts, speeds 1.0-3.5, the fast hosts the busy ones
    (in ground truth and in the repository's view)."""
    runtime = VDCERuntime(DeploymentSpec.grid(
        1, 6, seed=seed, speeds=(1.0, 1.5, 2.0, 2.5, 3.0, 3.5),
    ).build_topology())
    hosts = sorted(runtime.topology.all_hosts, key=lambda h: h.spec.speed)
    for rank, host in enumerate(hosts):
        load = load_skew * rank / (len(hosts) - 1)
        host.set_bg_load(load)
        runtime.repositories["site-0"].resources.update_workload(
            host.name, load=load, available_memory_mb=256, time=0.0)
    return runtime


def e3() -> List[Rows]:
    """An 18-task bag's makespan per within-site policy, mean over 3
    seeds, as background load skews onto the fast hosts."""
    rows = []
    for skew in (0.0, 2.0, 6.0):
        row = {"load_skew": skew}
        for name, factory in E3_POLICIES:
            row[name] = round(mean(
                makespan(_skewed_site(skew, seed),
                         bag_of_tasks(n=18, cost=4.0, heterogeneity=0.4,
                                      seed=seed), factory())
                for seed in (0, 1, 2)), 2)
        rows.append(row)
    return [rows]


# -- E4: k nearest sites ------------------------------------------------------

def _from_site_0(runtime, afg, k):
    """Place at ``site-0`` over its k nearest sites and run from there;
    the result and the share of tasks that stayed at ``site-0``."""
    table = SiteScheduler(k=k).schedule(afg, runtime.federation_view("site-0"))
    result = execute(runtime, afg, table, submit_site="site-0",
                     execute_payloads=False)
    local = sum(1 for r in result.records.values() if r.site == "site-0")
    return result, local / len(result.records)


def staged_pipeline(n_stages: int, cost: float, edge_mb: float,
                    file_mb: float) -> ApplicationFlowGraph:
    """A pipeline whose entry stage stages a ``file_mb`` file from the
    submitting site: Fig. 2 charges its transfer, so WAN bandwidth gates
    offloading."""
    afg = ApplicationFlowGraph(f"staged-pipeline-{n_stages}")
    afg.add_task(TaskNode(
        id="s000", task_type="generic.compute", n_in_ports=1, n_out_ports=1,
        properties=TaskProperties(
            workload_scale=cost,
            inputs=(InputBinding(0, FileSpec("/data/input.dat", file_mb)),)),
    ))
    for i in range(1, n_stages):
        afg.add_task(TaskNode(
            id=f"s{i:03d}", task_type="generic.compute", n_in_ports=1,
            n_out_ports=1, properties=TaskProperties(workload_scale=cost)))
        afg.connect(f"s{i-1:03d}", f"s{i:03d}", size_mb=edge_mb)
    return afg


def e4() -> List[Rows]:
    """On a 4-site star whose WAN latency grows with distance: a chatty
    pipeline and a compute-bound bag as k grows; then a file-staged
    pipeline as the WAN bandwidth grows (remote hosts 3x faster)."""
    k_sweep = []
    for k in (0, 1, 2, 3):
        chatty, chatty_local = _from_site_0(
            VDCERuntime(star_topology(n_sites=4, hosts_per_site=3, seed=k)),
            linear_pipeline(n_stages=8, cost=3.0, edge_mb=20.0), k)
        bag, _ = _from_site_0(
            VDCERuntime(star_topology(n_sites=4, hosts_per_site=3, seed=k)),
            bag_of_tasks(n=24, cost=4.0, seed=k), k)
        k_sweep.append({
            "k": k,
            "chatty_makespan_s": round(chatty.makespan, 2),
            "chatty_local_share": round(chatty_local, 2),
            "chatty_moved_mb": round(chatty.data_transferred_mb, 1),
            "bag_makespan_s": round(bag.makespan, 2),
        })
    wan_sweep = []
    for bandwidth in (0.05, 2.0, 50.0):
        result, local_share = _from_site_0(
            VDCERuntime(star_topology(n_sites=4, hosts_per_site=2, seed=1,
                                      speeds=(1.0, 1.0, 3.0, 3.0),
                                      wan_bandwidth_mbps=bandwidth)),
            staged_pipeline(n_stages=10, cost=2.0, edge_mb=5.0, file_mb=60.0),
            k=3)
        wan_sweep.append({
            "wan_mbps": bandwidth,
            "makespan_s": round(result.makespan, 2),
            "local_share": round(local_share, 2),
            "moved_mb": round(result.data_transferred_mb, 1),
        })
    return [k_sweep, wan_sweep]


# -- E9: level priority vs FIFO -----------------------------------------------

def unbalanced_fork(seed: int) -> ApplicationFlowGraph:
    """A fork whose branches differ 20x in cost: ordering matters."""
    afg = fork_join(width=6, branch_cost=1.0, head_cost=0.5)
    for branch in ("b000", "b003"):
        afg.replace_task(afg.task(branch).with_properties(workload_scale=20.0))
    return afg


E9_WORKLOADS = [
    ("unbalanced-fork", unbalanced_fork),
    ("random-wide", lambda seed: random_dag(RandomDAGConfig(
        n_tasks=40, width=8, mean_cost=2.0, cost_heterogeneity=0.8, ccr=0.2,
        seed=seed))),
    ("random-deep", lambda seed: random_dag(RandomDAGConfig(
        n_tasks=40, width=2, mean_cost=2.0, cost_heterogeneity=0.8, ccr=0.2,
        seed=seed))),
]


def e9() -> List[Rows]:
    """The site scheduler with level priorities vs FIFO ready order,
    mean over 4 seeds on 2 sites x 3 hosts."""
    rows = []
    for name, factory in E9_WORKLOADS:
        level, fifo = (mean(
            makespan(grid(2, 3, seed=seed), factory(seed),
                     SiteScheduler(k=1, use_level_priority=levels))
            for seed in (0, 1, 2, 3)) for levels in (True, False))
        rows.append({
            "workload": name,
            "level_makespan_s": round(level, 2),
            "fifo_makespan_s": round(fifo, 2),
            "gain_pct": round(100 * (fifo - level) / fifo, 1),
        })
    return [rows]


# -- E10: prediction noise and the calibration loop ---------------------------

def e10() -> List[Rows]:
    """Makespan vs multiplicative noise on ``Predict`` (mean over 5 random
    DAGs); then the §4.1 calibration loop: a pinned 6-stage pipeline
    re-submitted 4 times under a 40 %-noise model."""
    by_noise = []
    for noise in (0.0, 0.2, 0.5, 0.9):
        by_noise.append({"noise": noise, "makespan_s": round(mean(
            makespan(grid(2, 4, seed=seed), random_dag(RandomDAGConfig(
                n_tasks=40, width=6, mean_cost=3.0, cost_heterogeneity=0.7,
                ccr=0.3, seed=seed)),
                SiteScheduler(k=1, model=PredictionModel(
                    noise=noise, noise_seed=seed)))
            for seed in range(5)), 2)})
    oracle = by_noise[0]["makespan_s"]
    for row in by_noise:
        row["vs_oracle_pct"] = round(
            100 * (row["makespan_s"] - oracle) / oracle, 1)
    return [by_noise, _calibration_runs()]


def _calibration_runs() -> Rows:
    """Each stage pinned to a host (the preferred-machine property), so
    the loop is measured apart from placement migration: calibrating one
    host would make another look better, and a freshly visited host
    starts uncalibrated."""
    runtime = grid(1, 4, seed=3)
    afg = linear_pipeline(n_stages=6, cost=3.0, edge_mb=0.1)
    host_names = sorted(h.name for h in runtime.topology.all_hosts)
    for i, task_id in enumerate(afg.topological_order()):
        afg.replace_task(afg.task(task_id).with_properties(
            preferred_machine=host_names[i % 4]))
    model = PredictionModel(noise=0.4, noise_seed=3)
    rows = []
    for run_index in range(4):
        table = SiteScheduler(k=0, model=model).schedule(
            afg, runtime.federation_view())
        result = execute(runtime, afg, table, execute_payloads=False)
        rows.append({"run": run_index + 1, "mean_rel_error": round(mean(
            abs(r.measured_time - r.predicted_time) / r.predicted_time
            for r in result.records.values() if r.predicted_time > 0), 4)})
    return rows


# -- E11: federation size -----------------------------------------------------

def e11() -> List[Rows]:
    """A 48-task bag scheduled from ``site-0`` over every other site of a
    star of 1-8 sites x 4 hosts: the Fig. 2 exchange's messages and
    virtual time, and the realised makespan."""
    afg = bag_of_tasks(n=48, cost=4.0, heterogeneity=0.3, seed=0)
    rows = []
    for n_sites in (1, 2, 4, 8):
        runtime = VDCERuntime(star_topology(n_sites=n_sites, hosts_per_site=4,
                                            seed=0))
        result = runtime.sim.run_until_complete(runtime.sim.process(
            runtime.run_process(afg, SiteScheduler(k=n_sites - 1), "site-0",
                                execute_payloads=False)))
        rows.append({
            "sites": n_sites,
            "hosts": 4 * n_sites,
            "sched_msgs": runtime.stats.scheduler_messages,
            # the exchange ends at the submission; the clock starts at 0.
            # Unrounded: 0.0 at one site is asserted exactly
            "sched_virtual_s": result.submitted_at,
            "makespan_s": round(result.makespan, 2),
        })
    return [rows]


# -- E13: the schedule-aware load accounting ----------------------------------

E13_WORKLOADS = [
    ("bag-24", lambda seed: bag_of_tasks(n=24, cost=4.0, seed=seed)),
    ("chain-8", lambda seed: linear_pipeline(n_stages=8, cost=3.0)),
    ("random-40", lambda seed: random_dag(RandomDAGConfig(
        n_tasks=40, width=6, mean_cost=3.0, cost_heterogeneity=0.5, ccr=0.3,
        seed=seed))),
]


def e13() -> List[Rows]:
    """The site scheduler with and without in-round load accounting
    (DESIGN §5), mean over 3 seeds on 2 sites x 4 hosts."""
    rows = []
    for name, factory in E13_WORKLOADS:
        accounting, literal = (mean(
            makespan(grid(2, 4, seed=seed), factory(seed),
                     SiteScheduler(k=1, account_commitments=account))
            for seed in (0, 1, 2)) for account in (True, False))
        rows.append({
            "workload": name,
            "accounting_s": round(accounting, 2),
            "literal_fig3_s": round(literal, 2),
            "speedup": round(literal / accounting, 2),
        })
    return [rows]
