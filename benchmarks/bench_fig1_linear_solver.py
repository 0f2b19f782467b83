"""E1 — Figure 1: the Linear Equation Solver, end to end.

Reproduces the paper's only concrete application: the Figure 1 AFG with
its annotated task properties (LU-Decomposition parallel on 2 nodes
with the 124.88 MB file input; Matrix-Multiplication sequential on a
SUN solaris machine), scheduled and executed on a two-site deployment.

Reported rows: per-task placement + timing, mirroring the information
in Figure 1's task-properties windows, plus the end-to-end pipeline
stages.  Expected shape: the parallel LU gets exactly two machines; the
multiplication's machine-type preference is honoured; the application
completes.
"""

import pytest

from repro import DeploymentSpec
from repro.metrics import format_table
from repro.runtime import VDCERuntime
from repro.scheduler import SiteScheduler
from repro.workloads import figure1_afg, linear_solver_afg

from benchmarks._common import execute


def schedule_and_run(runtime, afg):
    table = SiteScheduler(k=1).schedule(afg, runtime.federation_view())
    return table, execute(runtime, afg, table, execute_payloads=False)


def test_figure1_placement_and_execution(benchmark):
    runtime = VDCERuntime(DeploymentSpec.grid(2, 4, seed=1).build_topology())
    afg = figure1_afg()
    table, result = schedule_and_run(runtime, afg)

    rows = []
    for task_id in sorted(result.records):
        record = result.records[task_id]
        node = afg.task(task_id)
        rows.append(
            {
                "task": task_id,
                "mode": node.properties.mode.value,
                "nodes": node.properties.n_nodes,
                "site": record.site,
                "hosts": ",".join(record.hosts),
                "predicted_s": round(record.predicted_time, 3),
                "measured_s": round(record.measured_time, 3),
            }
        )
    print()
    print(format_table(rows, title="E1 / Figure 1 — Linear Equation Solver"))
    print(
        f"setup={result.setup_time:.4f}s  makespan={result.makespan:.3f}s  "
        f"moved={result.data_transferred_mb:.1f}MB"
    )

    # paper-shape assertions
    lu = result.records["LU_Decomposition"]
    assert len(lu.hosts) == 2, "parallel LU must be placed on 2 machines"
    mm = result.records["Matrix_Multiplication"]
    host_spec = runtime.topology.host(mm.hosts[0]).spec
    assert host_spec.os == "solaris", "machine-type preference violated"
    assert result.makespan > 0

    # wall-clock benchmark: one full schedule+execute cycle
    def cycle():
        rt = VDCERuntime(DeploymentSpec.grid(2, 4, seed=1).build_topology())
        return schedule_and_run(rt, figure1_afg())

    benchmark(cycle)


def test_computational_variant_produces_correct_solution(benchmark):
    """The computational linear solver runs with real payloads."""
    runtime = VDCERuntime(DeploymentSpec.grid(2, 4, seed=2).build_topology())
    afg = linear_solver_afg(scale=0.2, parallel_lu_nodes=2)
    table = SiteScheduler(k=1).schedule(afg, runtime.federation_view())
    result = execute(runtime, afg, table, execute_payloads=True)
    (residual,) = result.outputs["verify"]
    print(f"\nE1b residual ||Ax-b|| = {residual:.2e}, "
          f"makespan = {result.makespan:.3f}s")
    assert residual < 1e-8

    def cycle():
        rt = VDCERuntime(DeploymentSpec.grid(2, 4, seed=2).build_topology())
        t = SiteScheduler(k=1).schedule(afg, rt.federation_view())
        return execute(rt, afg, t, execute_payloads=True)

    benchmark(cycle)
