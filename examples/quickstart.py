#!/usr/bin/env python
"""Quickstart: bring up a two-site VDCE, run the linear solver, look around.

This is the 60-second tour of the reproduction:

1. deploy a federation (two sites, heterogeneous hosts, WAN between);
2. submit the Linear Equation Solver application (the paper's Figure 1
   workload, computational variant) through the distributed scheduler;
3. inspect the resource allocation, the Gantt chart and the runtime
   statistics the paper's components produced along the way.

Run:  python examples/quickstart.py
"""

from repro import VDCE, DeploymentSpec, HostSpec, SiteConfig
from repro.metrics import summarize_result
from repro.workloads import linear_solver_afg


def main() -> None:
    # -- 1. deploy ---------------------------------------------------------
    spec = DeploymentSpec(
        sites=(
            SiteConfig(
                name="syracuse",
                hosts=(
                    HostSpec("grad1", speed=1.0, memory_mb=128),
                    HostSpec("grad2", speed=1.5, memory_mb=256),
                    HostSpec("hunding", speed=2.5, memory_mb=512),
                ),
            ),
            SiteConfig(name="rome-lab", n_hosts=4, speed=2.0),
        ),
        wan_latency_s=0.03,
        wan_bandwidth_mbps=2.0,
        seed=7,
    )
    env = VDCE(spec=spec)
    env.start_monitoring()
    print(f"deployed: {env!r}")

    # -- 2. submit the Figure 1 application --------------------------------
    afg = linear_solver_afg(scale=0.25, parallel_lu_nodes=2)
    result = env.submit(afg, k=1)

    # -- 3. inspect --------------------------------------------------------
    print("\nper-task placement (the resource allocation table, realised):")
    for task_id, record in sorted(result.records.items()):
        print(
            f"  {task_id:<10} -> site={record.site:<10} hosts={record.hosts} "
            f"predicted={record.predicted_time:7.3f}s "
            f"measured={record.measured_time:7.3f}s"
        )

    (residual,) = result.outputs["verify"]
    print(f"\nlinear system residual ||Ax-b|| = {residual:.2e}  (correct!)")

    print("\n" + env.gantt(result))

    summary = summarize_result(result, afg, env.repository().task_perf)
    print(
        f"\nmakespan={summary.makespan:.3f}s  SLR={summary.slr:.3f}  "
        f"speedup={summary.speedup:.3f}  sites={summary.n_sites}"
    )

    print("\nruntime statistics (control + data plane):")
    for key, value in env.stats().items():
        if value:
            print(f"  {key:<26} {value}")


if __name__ == "__main__":
    main()
