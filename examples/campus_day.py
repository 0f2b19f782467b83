#!/usr/bin/env python
"""A day on the campus grid: everything VDCE does, in one scenario.

Simulates eight virtual hours of a three-site federation under
realistic conditions:

* every workstation carries a *diurnal* background load (owners work
  during the day) plus jitter;
* hosts crash and recover stochastically; the echo protocol (with a
  lossy LAN and a suspicion threshold) keeps the resource DBs honest;
* a stream of applications — solvers, C3I pipelines, DSP chains —
  arrives through the priority admission queue from users with
  different priorities and access domains;
* the Application Controllers reschedule tasks off machines whose
  owners return.

At the end: per-application outcomes, fleet utilisation and the
control-plane message bill.

Run:  python examples/campus_day.py
"""

from repro import VDCE, DeploymentSpec, SiteConfig
from repro.metrics import host_utilization
from repro.runtime import AdmissionQueue, RuntimeConfig
from repro.repository import AccessDomain
from repro.sim import DiurnalLoad, FailureInjector
from repro.sim.workload import attach_generators
from repro.workloads import (
    RandomDAGConfig,
    linear_solver_afg,
    random_dag,
    surveillance_afg,
)

HOURS = 8
DAY_S = HOURS * 3600.0


def main() -> None:
    spec = DeploymentSpec(
        sites=(
            SiteConfig(name="engineering", n_hosts=4, speed=2.0),
            SiteConfig(name="science", n_hosts=4, speed=1.5),
            SiteConfig(name="library", n_hosts=3, speed=1.0),
        ),
        wan_latency_s=0.03,
        wan_bandwidth_mbps=2.0,
        seed=1997,
    )
    env = VDCE(
        spec=spec,
        runtime_config=RuntimeConfig(
            monitor_period_s=30.0,
            change_threshold=0.25,
            echo_period_s=60.0,
            echo_loss_prob=0.05,
            suspicion_threshold=3,
            load_threshold=4.0,
            check_period_s=30.0,
        ),
    )

    # owners arrive mid-morning: diurnal load peaking at noon
    attach_generators(
        env.sim,
        env.topology.all_hosts,
        lambda: DiurnalLoad(base=0.1, amplitude=2.0, day_length_s=DAY_S * 2,
                            phase_s=0.0, jitter=0.15, period_s=60.0),
    )

    # stochastic crashes: MTBF 6 h, repair in ~20 min
    injector = FailureInjector(env.sim)
    for host in env.topology.all_hosts:
        injector.start_random(host, mtbf_s=6 * 3600.0, mttr_s=20 * 60.0)

    env.start_monitoring()

    env.add_user("ops", "x", priority=9, access_domain=AccessDomain.GLOBAL)
    env.add_user("grad", "x", priority=3, access_domain=AccessDomain.CAMPUS)
    env.add_user("intro-class", "x", priority=1,
                 access_domain=AccessDomain.LOCAL)

    queue = AdmissionQueue(env.runtime, max_concurrent=3, site="engineering")

    def make_app(index: int):
        kind = index % 3
        if kind == 0:
            afg = linear_solver_afg(scale=0.2)
        elif kind == 1:
            afg = surveillance_afg(n_sensors=3, scale=0.4)
        else:
            afg = random_dag(RandomDAGConfig(n_tasks=16, width=4,
                                             mean_cost=30.0, ccr=0.3,
                                             seed=index))
        afg.name = f"{afg.name}#{index}"
        return afg

    users = ["ops", "grad", "grad", "intro-class"]
    signals = []
    rng = env.sim.rng("campus:arrivals")
    t = 600.0
    for i in range(12):
        afg = make_app(i)
        user = users[i % len(users)]
        env.sim.call_at(
            t, lambda afg=afg, user=user: signals.append(
                (afg.name, user, queue.submit(afg, user))
            ),
        )
        t += rng.exponential(DAY_S / 16)

    env.advance(DAY_S)

    print(f"=== campus day: {HOURS} virtual hours, "
          f"{len(env.topology.all_hosts)} hosts, 3 sites ===\n")
    completed = failed = 0
    for name, user, signal in signals:
        if not signal.triggered:
            print(f"  {name:<28} [{user:<11}] still running at close")
        elif signal.failed:
            failed += 1
            print(f"  {name:<28} [{user:<11}] FAILED: {signal.exception}")
        else:
            completed += 1
            result = signal.value
            note = f", {result.reschedules} resched" if result.reschedules else ""
            print(f"  {name:<28} [{user:<11}] "
                  f"makespan {result.makespan:8.1f}s{note}")
    print(f"\ncompleted {completed}, failed {failed}, "
          f"queued-at-close {sum(1 for *_, s in signals if not s.triggered)}")

    downs = [e for e in injector.log if e.kind == "down"]
    detected = [e for e in env.runtime.stats.detection_log if e[2] == "down"]
    print(f"\ncrashes injected: {len(downs)}; detections logged: "
          f"{len(detected)}")
    false_positives = sum(
        gm.false_positives for gm in env.runtime.group_managers.values()
    )
    print(f"false positives under 5% echo loss (threshold 3): "
          f"{false_positives}")

    util = host_utilization(env.topology)
    busiest = sorted(util.items(), key=lambda kv: -kv[1])[:5]
    print("\nbusiest hosts (fraction of day running VDCE tasks):")
    for host, fraction in busiest:
        print(f"  {host:<20} {fraction:6.1%}")

    stats = env.stats()
    print(f"\ncontrol plane: {stats['monitor_reports']} measurements, "
          f"{stats['workload_forwards']} forwarded "
          f"({stats['workload_suppressed']} suppressed), "
          f"{stats['echo_packets']} echoes, "
          f"{stats['reschedule_requests']} reschedule requests")


if __name__ == "__main__":
    main()
