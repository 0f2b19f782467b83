"""Named RNG streams materialised: the first-draw count gate.

A stream is taken at the statement that draws from it
(:meth:`Simulator.rng`), so a fault-free, loss-free run — no load
generator, no failure injector, no lossy link — materialises **none**,
whatever the size of the DAG.  A recovery path that goes back to taking
its stream on entry (as ``_transfer_with_retry`` did: one
``retry:{afg}:{label}`` per transfer — 101 never-drawn Generators here
at 64 tasks, 998 at 512, ~40 us each and kept for the life of the
simulator) fails here instead of in a bench run.
"""

import pytest

from repro.core import DeploymentSpec
from repro.core.scenario import Scenario, run
from repro.workloads import RandomDAGConfig, random_dag


@pytest.mark.parametrize("n_tasks", [64, 512])
def test_fault_free_run_materialises_no_stream(n_tasks):
    """Schedule and run one layered DAG on 2 sites x 4 hosts, stock
    config, monitoring on."""
    rt, result = run(Scenario(
        DeploymentSpec.grid(2, 4), random_dag,
        (("config", RandomDAGConfig(n_tasks=n_tasks, width=16, mean_cost=3.0,
                                    ccr=0.3, seed=7)),), k=1))
    assert len(result.records) == n_tasks
    # the run did cross sites, so the retry/rpc paths were all entered
    assert rt.stats.data_transfers > n_tasks // 2
    assert rt.sim.rng_streams == 0
