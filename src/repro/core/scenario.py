"""One scenario, one runner.

A :class:`Scenario` declares a run: the federation, its
``RuntimeConfig``, the workload (an AFG generator and its frozen keyword
arguments), the site scheduler's ``k``, and whether the application is
executed or only placed.  :func:`run` builds the deployment, generates
the AFG and, executed, starts monitoring and submits it at ``site-0``
through :meth:`VDCERuntime.run_process` — or, placement only, runs
Fig. 3's host selection there, with no simulated time.  :data:`SCENARIOS` holds the three
fixed-seed runs the behaviour pins check (``scenario:<name>`` in
``tests/pins.json``) and ``repro explain --scenario`` explains.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, NamedTuple, Tuple

from repro.afg.graph import ApplicationFlowGraph
from repro.core.config import DeploymentSpec
from repro.metrics.registry import NULL_METRICS, MetricsRegistry
from repro.obs.spans import SpanKind
from repro.runtime.vdce_runtime import RuntimeConfig, VDCERuntime
from repro.scheduler.host_selection import select_hosts
from repro.scheduler.site_scheduler import SiteScheduler
from repro.trace.tracer import NULL_TRACER, Tracer
from repro.workloads import RandomDAGConfig, bag_of_tasks, random_dag

__all__ = ["RunRecord", "SCENARIOS", "Scenario", "run", "run_traced"]

#: where every scenario submits its application
SUBMIT_SITE = "site-0"


@dataclass(frozen=True)
class Scenario:
    """A federation, its workload and how it is run."""

    deployment: DeploymentSpec
    workload: Callable[..., ApplicationFlowGraph]
    #: the generator's keyword arguments, as ``(name, value)`` pairs
    params: Tuple[Tuple[str, Any], ...]
    #: the site scheduler's k; placement only ignores it
    k: int = 0
    config: RuntimeConfig = RuntimeConfig()
    #: False: host selection at ``site-0`` only
    executed: bool = True


class RunRecord(NamedTuple):
    """The deployment a run used and the ``ApplicationResult``
    (placement only: the host selections)."""

    runtime: VDCERuntime
    result: Any


def run(scenario: Scenario, tracer: Tracer = NULL_TRACER,
        metrics: MetricsRegistry = NULL_METRICS) -> RunRecord:
    """Build the scenario's deployment and run its workload once."""
    rt = VDCERuntime(scenario.deployment.build_topology(),
                     config=scenario.config, tracer=tracer, metrics=metrics)
    if scenario.executed:
        rt.start_monitoring()
    afg = scenario.workload(**dict(scenario.params))
    if not scenario.executed:
        return RunRecord(rt, _place(rt, afg, tracer, metrics))
    scheduler = SiteScheduler(k=scenario.k, model=rt.model)
    # the spawn of the submitting process is traced under its name: the
    # pinned trace hashes hold "run"
    result = rt.sim.run_until_complete(rt.sim.process(
        rt.run_process(afg, scheduler, SUBMIT_SITE, execute_payloads=False),
        name="run",
    ))
    return RunRecord(rt, result)


def _place(rt: VDCERuntime, afg: ApplicationFlowGraph, tracer: Tracer,
           metrics: MetricsRegistry):
    """Fig. 3 at ``site-0``, inside a root and a schedule span so that
    a span-enabled pass has a window to explain."""
    source = f"sm:{SUBMIT_SITE}"
    sched_span = rt.spans.open(
        SpanKind.SCHEDULE, afg.name,
        parent=rt.spans.root_of(afg.name, source=source),
        source=source, site=SUBMIT_SITE,
    )
    selections = select_hosts(afg, rt.repositories[SUBMIT_SITE],
                              model=rt.model, tracer=tracer, metrics=metrics)
    rt.spans.close(sched_span, source=source, tasks=len(selections))
    rt.spans.close_root(afg.name, source=source)
    return selections


SCENARIOS: Dict[str, Scenario] = {
    # the full pipeline on a 4-site federation
    "end_to_end": Scenario(
        DeploymentSpec.grid(4, 4), random_dag,
        (("config", RandomDAGConfig(n_tasks=120, width=6, mean_cost=3.0,
                                    ccr=0.3, seed=7)),), k=3),
    # a parameter-sweep bag (384 identical tasks) over 8 x 8: host
    # selection, Predict, in-round load accounting and the kernel at
    # full load
    "scalability": Scenario(
        DeploymentSpec.grid(8, 8), bag_of_tasks,
        (("n", 384), ("cost", 4.0), ("heterogeneity", 0.0), ("seed", 0)),
        k=7),
    # Fig. 3 alone: a 300-task DAG placed at one 64-host site
    "host_selection": Scenario(
        DeploymentSpec.grid(1, 64, seed=1), random_dag,
        (("config", RandomDAGConfig(n_tasks=300, width=10, mean_cost=2.0,
                                    ccr=0.4, seed=1)),),
        executed=False),
}


def run_traced(name: str, causal_spans: bool = False):
    """One instrumented pass of a pinned scenario, optionally with causal
    spans on; returns its events (``repro explain --scenario``)."""
    tracer = Tracer()
    scenario = SCENARIOS[name]
    if causal_spans:
        scenario = replace(scenario, config=RuntimeConfig(causal_spans=True))
    run(scenario, tracer, MetricsRegistry())
    return tracer.events()
