"""E5–E7, E12, E15: the runtime's claims (paper §4) and the straggler
defense (DESIGN §11).

Each ``eN()`` returns the experiment's tables (EXPERIMENTS.md).
"""

from __future__ import annotations

from typing import List

from repro.experiments.placement import Rows, execute, grid, mean
from repro.runtime.checkpoint import (
    expected_output_hashes,
    final_output_hashes,
)
from repro.runtime.straggler import SpeculationPolicy
from repro.runtime.vdce_runtime import RuntimeConfig
from repro.scheduler import SiteScheduler
from repro.sim.workload import (
    OrnsteinUhlenbeckLoad,
    SpikeLoad,
    attach_generators,
)
from repro.workloads import (
    RandomDAGConfig,
    bag_of_tasks,
    linear_pipeline,
    linear_solver_afg,
    random_dag,
    surveillance_afg,
)


# -- E5: Figure 4's significant-change filter ---------------------------------

def _monitoring(threshold: float, sigma: float, horizon_s: float = 120.0):
    """8 hosts under Ornstein-Uhlenbeck load, monitored every 2 s: the
    runtime's counters and the repository's mean absolute belief error,
    sampled every second."""
    runtime = grid(1, 8, seed=0, config=RuntimeConfig(
        monitor_period_s=2.0, change_threshold=threshold))
    attach_generators(
        runtime.sim, runtime.topology.all_hosts,
        lambda: OrnsteinUhlenbeckLoad(mean=1.0, theta=0.2, sigma=sigma,
                                      period_s=1.0),
    )
    runtime.start_monitoring()
    errors = []

    def sample():
        repo = runtime.repositories["site-0"]
        for host in runtime.topology.all_hosts:
            believed = repo.resources.get(host.name).load
            errors.append(abs(believed - host.load_average()))

    t = 1.0
    while t < horizon_s:
        runtime.sim.call_at(t, sample)
        t += 1.0
    runtime.sim.run(until=horizon_s)
    return runtime.stats, mean(errors)


def e5() -> List[Rows]:
    """Measurements forwarded and suppressed, and belief error, per
    change threshold and load volatility."""
    rows = []
    for sigma in (0.05, 0.3):
        for threshold in (0.0, 0.25, 1.0):
            stats, error = _monitoring(threshold, sigma)
            total = stats.workload_forwards + stats.workload_suppressed
            rows.append({
                "sigma": sigma,
                "threshold": threshold,
                "measured": total,
                "forwarded": stats.workload_forwards,
                "suppressed_pct": round(
                    100.0 * stats.workload_suppressed / total, 1),
                "belief_err": round(error, 3),
            })
    return [rows]


# -- E6: echo-packet failure detection ----------------------------------------

def _detection(echo_period: float, horizon_s: float = 400.0):
    """6 of 8 hosts crash at uniform times: per crash its detection
    latency, or None if no Group Manager marked it down."""
    runtime = grid(1, 8, seed=0,
                   config=RuntimeConfig(echo_period_s=echo_period))
    runtime.start_monitoring()
    rng = runtime.sim.rng("bench:crashes")
    crash_times = {}
    for host in runtime.topology.all_hosts[:6]:
        crash_times[host.name] = rng.uniform(10.0, horizon_s - 50.0)
        runtime.sim.call_at(crash_times[host.name], host.fail)
    runtime.sim.run(until=horizon_s)
    latencies = []
    for host_name, crashed_at in crash_times.items():
        down = [t for t, name, state in runtime.stats.detection_log
                if name == host_name and state == "down"]
        latencies.append(down[0] - crashed_at if down else None)
    return latencies, runtime.stats.echo_packets


def _dead_host_placement() -> Rows:
    """The fastest of 4 hosts dies at t = 1 under 2 s echoes; at t = 10
    an 8-task bag is placed: what the repository believes and how many
    tasks land on the dead host."""
    runtime = grid(1, 4, seed=1, config=RuntimeConfig(echo_period_s=2.0))
    runtime.start_monitoring()
    fastest = max(runtime.topology.all_hosts, key=lambda h: h.spec.speed)
    runtime.sim.call_at(1.0, fastest.fail)
    runtime.sim.run(until=10.0)
    table = SiteScheduler(k=0).schedule(bag_of_tasks(n=8, cost=2.0, seed=1),
                                        runtime.federation_view())
    return [{
        "dead_host": fastest.name,
        "believed_up": runtime.repositories["site-0"].resources.get(
            fastest.name).up,
        "tasks_placed_on_it": sum(
            fastest.name in a.hosts for a in table.assignments.values()),
    }]


def e6() -> List[Rows]:
    """Detection latency and echo traffic per echo period; then whether
    placement avoids a host detected down."""
    rows = []
    for period in (1.0, 5.0, 20.0):
        latencies, packets = _detection(period)
        found = [latency for latency in latencies if latency is not None]
        rows.append({
            "echo_period_s": period,
            "crashes": len(latencies),
            "detected": len(found),
            "mean_latency_s": round(mean(found), 2),
            "worst_latency_s": round(max(found), 2),
            "echo_packets": packets,
        })
    return [rows, _dead_host_placement()]


# -- E7: load-threshold rescheduling ------------------------------------------

def _spiked_pipeline(load_threshold: float, spikes: bool, seed: int):
    runtime = grid(1, 5, seed=seed, config=RuntimeConfig(
        load_threshold=load_threshold, check_period_s=1.0))
    if spikes:
        attach_generators(
            runtime.sim, runtime.topology.all_hosts,
            lambda: SpikeLoad(base=0.1, spike_level=8.0, spike_prob=0.05,
                              spike_duration_periods=20, period_s=1.0),
        )
    afg = linear_pipeline(n_stages=8, cost=8.0, edge_mb=0.5)
    table = SiteScheduler(k=0).schedule(afg, runtime.federation_view())
    return execute(runtime, afg, table, execute_payloads=False)


def e7() -> List[Rows]:
    """An 8-stage pipeline on 5 hosts under owner-return load spikes,
    with the Application Controller's threshold at 3.0 or out of reach,
    mean over 4 spike seeds."""
    seeds = (0, 1, 2, 3)
    quiet = mean(_spiked_pipeline(3.0, False, s).makespan for s in seeds)
    rows = [{"case": "no spikes (baseline)", "makespan_s": round(quiet, 2),
             "reschedules": 0}]
    for case, threshold in (("spikes + rescheduling", 3.0),
                            ("spikes, no rescheduling", 1e9)):
        results = [_spiked_pipeline(threshold, True, s) for s in seeds]
        rows.append({
            "case": case,
            "makespan_s": round(mean(r.makespan for r in results), 2),
            "reschedules": sum(r.reschedules for r in results),
        })
    return [rows]


# -- E12: the whole pipeline --------------------------------------------------

def submitted(afg, payloads: bool):
    """Submit ``afg`` at ``site-0`` of 2 sites x 4 hosts; scheduling ends
    at the submission, which the federation's clock starts at 0."""
    runtime = grid(2, 4, seed=5)
    return runtime, runtime.submit(afg, SiteScheduler(k=1),
                                   execute_payloads=payloads)


E12_APPLICATIONS = [
    ("linear-solver", lambda: linear_solver_afg(scale=0.3,
                                                parallel_lu_nodes=2), True),
    ("c3i-surveillance", lambda: surveillance_afg(n_sensors=4, scale=0.5),
     True),
    ("random-dag-40", lambda: random_dag(RandomDAGConfig(
        n_tasks=40, width=6, mean_cost=3.0, ccr=0.3, seed=7)), False),
]


def e12() -> List[Rows]:
    """Schedule, setup and execution time, control messages and data
    moved, for the three flagship applications."""
    rows = []
    for name, factory, payloads in E12_APPLICATIONS:
        afg = factory()
        runtime, result = submitted(afg, payloads)
        rows.append({
            "application": name,
            "tasks": len(afg),
            "edges": len(afg.edges),
            "schedule_s": round(result.submitted_at, 4),
            "setup_s": round(result.setup_time, 4),
            "execute_s": round(result.makespan, 3),
            "ctrl_msgs": runtime.stats.total_control_messages(),
            "moved_mb": round(result.data_transferred_mb, 1),
        })
    return [rows]


# -- E15: speculation under a scripted slowdown -------------------------------

def _straggled_pipeline(speculate: bool, straggle: bool, seed: int):
    """A 4-stage pipeline with payloads on 2 sites x 4 hosts, every
    speed-2.5 host slowed 10x before the schedule lands (wherever
    Predict lands, it crawls)."""
    policy = SpeculationPolicy(trigger_multiple=1.5, check_period_s=0.5)
    runtime = grid(2, 4, seed=seed, config=RuntimeConfig(
        speculation=policy) if speculate else RuntimeConfig())
    if straggle:
        for host in runtime.topology.all_hosts:
            if host.spec.speed >= 2.5:
                host.set_slowdown(10.0)
    afg = linear_pipeline(n_stages=4, cost=6.0, edge_mb=0.5)
    table = SiteScheduler(k=1).schedule(afg, runtime.federation_view())
    result = execute(runtime, afg, table, execute_payloads=True)
    return runtime, afg, result


def e15() -> List[Rows]:
    """Makespan without and with speculation, per seed under the
    slowdown and on a healthy federation; whether the terminal outputs
    are the pure-evaluation oracle's.  Unrounded: the healthy row's two
    makespans are asserted equal."""
    rows = []
    for seed, straggle in ((0, True), (1, True), (2, True), (0, False)):
        _, _, slow = _straggled_pipeline(False, straggle, seed)
        runtime, afg, raced = _straggled_pipeline(True, straggle, seed)
        rows.append({
            "seed": seed if straggle else f"{seed} (healthy)",
            "no_spec_s": slow.makespan,
            "spec_s": raced.makespan,
            "speedup": slow.makespan / raced.makespan,
            "backups": runtime.stats.speculative_launches,
            "wins": runtime.stats.speculative_wins,
            "wasted_s": runtime.stats.speculative_wasted_s,
            "oracle_outputs": final_output_hashes(raced)
            == expected_output_hashes(afg, runtime.registry),
        })
    return [rows]
