"""Kernel events per task: the machine-independent cost gate.

Wall seconds depend on the machine; the number of calendar events the
kernel executes for a fixed workload does not.  A bag of independent
tasks started concurrently (the parameter-sweep shape of ``bag_2k``)
must cost a bounded number of events *per task*, and that number must
not grow with the size of the bag — a component that wakes once per
period per running task (as the per-slice load watchdog did: 304
events/task here at 512 tasks, 1182 at 2048) or once per period per
host (as one process and one delivery callback per Monitor daemon did:
10.8 and 10.6) fails this test instead of burning minutes at ladder
scale.
"""

import pytest

from repro.core import DeploymentSpec
from repro.core.scenario import Scenario, run
from repro.runtime import VDCERuntime
from repro.trace.tracer import NULL_TRACER, Tracer
from repro.workloads import bag_of_tasks

#: measured 3.30 at 512 tasks and 3.20 at 2048: about three per task
#: (start, completion, result) plus one monitor round and one echo round
#: per group per period over the bag's makespan
CEILING = 5.0
#: events/task at 2048 tasks over events/task at 512
GROWTH = 1.25


def run_bag(n_tasks: int, tracer: Tracer = NULL_TRACER) -> VDCERuntime:
    """Schedule and run one bag on 2 sites x 4 hosts, stock config,
    monitoring on; the deployment it ran on."""
    record = run(Scenario(
        DeploymentSpec.grid(2, 4), bag_of_tasks,
        (("n", n_tasks), ("cost", 4.0), ("heterogeneity", 0.0), ("seed", 0)),
        k=1), tracer)
    assert len(record.result.records) == n_tasks
    return record.runtime


def events_per_task(n_tasks: int) -> float:
    """Kernel events executed per task of :func:`run_bag`."""
    rt = run_bag(n_tasks)
    # nothing per-task is left behind either
    assert len(rt.load_checks) == 0
    assert all(c.n_guarded == 0 for c in rt.app_controllers.values())
    return rt.sim.events_processed / n_tasks


@pytest.fixture(scope="module")
def at_512():
    return events_per_task(512)


def test_events_per_task_under_the_ceiling(at_512):
    assert at_512 < CEILING


def test_events_per_task_does_not_grow_with_the_bag(at_512):
    at_2048 = events_per_task(2048)
    assert at_2048 < CEILING
    assert at_2048 < at_512 * GROWTH
