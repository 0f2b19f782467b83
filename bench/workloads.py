"""The five workloads: how each builds its inputs, what its timed region
is, and which output checks it must pass.

A workload is a batch of ``apps`` applications of ``size`` operations
each.  Application ``k`` is generated from its own sub-seed
(``seed * apps + k``) and runs alone on a freshly built federation; the
batch's numbers are the sums over its applications.  Several small
applications instead of one large one keep each timed unit short enough
for the calibration spins around it to see the machine state it ran in
(see :mod:`bench.measure`) and average the input-to-input differences
of one seed against another.

Every workload follows one protocol so the measuring loop
(:mod:`bench.measure`) and the layer pass (:mod:`bench.layers`) treat
them alike, one application at a time:

``setup(seed, n)``   build the federation, start monitoring, generate
                     the inputs — timed separately as part of ``setup_s``;
``run(state)``       the timed region, nothing but the program under test;
``inspect(state, raw)``  untimed: digests, output checks and the counts
                     the run's own objects expose, folded into a :class:`Run`.

The program receives only generated inputs: the seed reaches it through
``TopologyBuilder(seed=...)``, the workload generators and
``ChaosConfig.seed``, never as a benchmark-identifying value.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Dict, List, Optional

from repro.metrics.registry import NULL_METRICS, MetricsRegistry
from repro.obs.attribution import explain, report_hash
from repro.runtime import RuntimeConfig, VDCERuntime
from repro.scheduler import SiteScheduler, estimate_schedule
from repro.sim import TopologyBuilder
from repro.sim.chaos import run_campaign, smoke_config
from repro.trace.serialize import trace_hash
from repro.trace.tracer import NULL_TRACER, Tracer
from repro.workloads import RandomDAGConfig, bag_of_tasks, random_dag

__all__ = ["Run", "Workload", "WORKLOADS", "federation", "obs_variant_wall",
           "turnaround_percentiles"]

N_SITES = 8
HOSTS_PER_SITE = 8
SPEEDS = (1.0, 1.5, 2.0, 2.5)
SUBMIT_SITE = "site-0"
#: k nearest remote sites: with 8 sites, k=7 makes every site bid
K_SITES = 7


@dataclass
class Run:
    """What one execution of a workload's timed region produced."""

    attempted: int
    #: operations that finished; ``attempted - completed`` are the failed
    #: ones (``fail_share``) — on chaos_2x64 typed deaths under injected
    #: faults, which is specified behaviour
    completed: int
    #: operations that ended *outside* the specification (a task without
    #: a record, an application that crashed untyped or never settled)
    broken: int
    #: simulated seconds until the last operation finished (a batch:
    #: its applications one after another)
    makespan_vs: float
    #: name -> hex digest; identical across repeats, passes and commits
    #: unless behaviour changed
    digests: Dict[str, str]
    #: per-layer counts read off objects the run already exposes, keyed
    #: by metric name (exact: they repeat for a given seed)
    counts: Dict[str, float]
    #: output checks that failed (empty = correct)
    failures: List[str] = field(default_factory=list)
    #: host seconds of named sub-phases of the timed region
    phases: Dict[str, float] = field(default_factory=dict)
    #: simulated scheduling latency returned by ``schedule_process``
    sched_vs: float = 0.0
    #: chaos_2x64 only: per-application simulated makespans, completed apps
    turnarounds_vs: List[float] = field(default_factory=list)

    @property
    def events(self) -> int:
        return int(self.counts["sim.kernel.events"])

    @classmethod
    def merged(cls, runs: List["Run"]) -> "Run":
        """The batch: its applications' runs added up.  Each digest is
        the sha256 over the applications' digests in batch order, so it
        repeats exactly when every application's does."""
        counts: Dict[str, float] = {}
        phases: Dict[str, float] = {}
        for run in runs:
            for key, value in run.counts.items():
                counts[key] = counts.get(key, 0) + value
            for key, value in run.phases.items():
                phases[key] = phases.get(key, 0.0) + value
        return cls(
            attempted=sum(run.attempted for run in runs),
            completed=sum(run.completed for run in runs),
            broken=sum(run.broken for run in runs),
            makespan_vs=sum(run.makespan_vs for run in runs),
            digests={key: _sha256("".join(run.digests[key] for run in runs))
                     for key in runs[0].digests},
            counts=counts,
            failures=[f for run in runs for f in run.failures],
            phases=phases,
            sched_vs=sum(run.sched_vs for run in runs),
            turnarounds_vs=[t for run in runs for t in run.turnarounds_vs],
        )


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: applications in the batch and the size of each (tasks; campaign
    #: applications on chaos_2x64) — both are part of the name
    apps: int
    size: int
    #: size of the warm-up run (about 64 tasks, every code path touched)
    warmup_size: int
    setup: Callable[[int, int], Dict[str, Any]]
    run: Callable[[Dict[str, Any]], Any]
    inspect: Callable[[Dict[str, Any], Any], Run]
    #: optional reference phase run after each repeat, outside ``wall_s``:
    #: ``off(seed, n) -> (host seconds, result digest)``
    off: Optional[Callable[[int, int], Any]] = None

    def seeds(self, seed: int) -> List[int]:
        """The sub-seed of each application of the batch."""
        return [seed * self.apps + k for k in range(self.apps)]


# -- the common federation ----------------------------------------------------

def federation(seed: int, config: Optional[RuntimeConfig] = None,
               tracer: Tracer = NULL_TRACER,
               metrics: MetricsRegistry = NULL_METRICS) -> VDCERuntime:
    """8 sites x 8 hosts, speeds cycling, stock ``RuntimeConfig()``."""
    builder = (
        TopologyBuilder(seed=seed)
        .lan_defaults(0.0005, 10.0)
        .wan_defaults(0.03, 2.0)
    )
    for s in range(N_SITES):
        builder.site(f"site-{s}", hosts=[
            (f"s{s}-h{h:02d}", SPEEDS[(s + h) % len(SPEEDS)], 256)
            for h in range(HOSTS_PER_SITE)
        ])
    return VDCERuntime(builder.build(), config=config or RuntimeConfig(),
                       tracer=tracer, metrics=metrics)


def _exposed_counts(rt: VDCERuntime) -> Dict[str, float]:
    stats = rt.stats
    return {
        "sim.kernel.events": rt.sim.events_processed,
        "runtime.monitor.reports": stats.monitor_reports,
        "runtime.group_manager.echo_packets": stats.echo_packets,
        "runtime.group_manager.forwards": stats.workload_forwards,
        "runtime.group_manager.suppressed": stats.workload_suppressed,
        "runtime.execution.reschedules": stats.reschedule_requests,
        "runtime.execution.transfer_retries": stats.transfer_retries,
        "runtime.execution.failure_restarts": stats.failure_restarts,
        "runtime.execution.checkpoint_records": stats.checkpoint_records,
        "runtime.stats.scheduler_messages": stats.scheduler_messages,
        "net.rpc.retries": stats.rpc_retries,
        "net.rpc.timeouts": stats.rpc_timeouts,
        "sim.network.transfers": stats.data_transfers,
        "sim.network.mb": stats.data_transferred_mb,
        "trace.events": len(rt.tracer),
    }


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# -- bag_2k / dag_3x512 / dag_3x256_obs: schedule + execute one application ---

def _setup_pipeline(make_afg: Callable[[int, int], Any], seed: int, n: int,
                    tracer: bool = False, metrics: bool = False,
                    spans: bool = False) -> Dict[str, Any]:
    rt = federation(
        seed,
        config=RuntimeConfig(causal_spans=spans),
        tracer=Tracer() if tracer else NULL_TRACER,
        metrics=MetricsRegistry() if metrics else NULL_METRICS,
    )
    rt.start_monitoring()
    started = time.perf_counter()
    afg = make_afg(seed, n)
    return {"rt": rt, "afg": afg,
            "generate_s": time.perf_counter() - started}


def _bag(seed: int, n: int):
    return bag_of_tasks(n=n, cost=4.0, heterogeneity=0.0, seed=seed)


def _dag(seed: int, n: int):
    return random_dag(RandomDAGConfig(
        n_tasks=n, width=16, mean_cost=3.0, ccr=0.3, seed=seed + 7))


def _run_pipeline(state: Dict[str, Any]):
    """Fig. 2 exchange + placement, then simulated execution: one batch
    submission at ``site-0``, closed loop, one client."""
    rt, afg = state["rt"], state["afg"]

    def pipeline():
        table, sched_vs = yield from rt.schedule_process(
            afg, SiteScheduler(k=K_SITES, model=rt.model),
            local_site=SUBMIT_SITE,
        )
        result = yield rt.execute_process(
            afg, table, submit_site=SUBMIT_SITE, execute_payloads=False
        )
        return result, sched_vs

    return rt.sim.run_until_complete(
        rt.sim.process(pipeline(), name=f"submit:{afg.name}")
    )


def _result_digest(result) -> str:
    return _sha256("".join(
        f"{task_id}|{','.join(r.hosts)}|{r.started_at!r}|{r.finished_at!r}\n"
        for task_id, r in sorted(result.records.items())
    ))


def _inspect_pipeline(state: Dict[str, Any], raw) -> Run:
    rt, afg = state["rt"], state["afg"]
    result, sched_vs = raw
    failures = []
    if len(result.records) != len(afg):
        failures.append(
            f"{len(result.records)} task records for {len(afg)} tasks")
    return Run(
        attempted=len(afg),
        completed=len(result.records),
        broken=len(afg) - len(result.records),
        makespan_vs=rt.sim.now,
        digests={"result_digest": _result_digest(result)},
        counts=_exposed_counts(rt),
        failures=failures,
        sched_vs=sched_vs,
    )


# -- dag_3x256_obs: telemetry written *and* read inside the timed region ------

def _run_obs(state: Dict[str, Any]):
    rt = state["rt"]
    started = time.perf_counter()
    raw = _run_pipeline(state)
    ran = time.perf_counter()
    rt.export_metrics()
    events = rt.tracer.events()
    report = explain(events)
    hashes = {
        "trace_hash": trace_hash(events),
        "metrics_hash": rt.metrics.snapshot_hash(),
        "report_hash": report_hash(report),
    }
    phases = {"run": ran - started, "readout": time.perf_counter() - ran}
    return raw, hashes, report["integrity"]["violations"], phases


def _inspect_obs(state: Dict[str, Any], raw) -> Run:
    pipeline_raw, hashes, violations, phases = raw
    run = _inspect_pipeline(state, pipeline_raw)
    run.digests.update(hashes)
    run.phases = phases
    if violations:
        run.failures.append(f"span integrity: {violations[:3]}")
    return run


def obs_variant_wall(seed: int, n: int, tracer: bool = False,
                     metrics: bool = False, spans: bool = False):
    """One dag_3x256_obs application with a chosen subset of the telemetry on;
    returns (host seconds of the run phase, result digest)."""
    state = _setup_pipeline(_dag, seed, n, tracer=tracer, metrics=metrics,
                            spans=spans)
    started = time.perf_counter()
    raw = _run_pipeline(state)
    wall = time.perf_counter() - started
    return wall, _result_digest(raw[0])


# -- place_4x1k: placement only, no simulation --------------------------------

def _run_place(state: Dict[str, Any]):
    rt = state["rt"]
    return SiteScheduler(k=K_SITES, model=rt.model).schedule(
        state["afg"], rt.federation_view(SUBMIT_SITE)
    )


def _inspect_place(state: Dict[str, Any], table) -> Run:
    rt, afg = state["rt"], state["afg"]
    failures = []
    try:
        table.validate_against(afg)
    except ValueError as exc:
        failures.append(str(exc))
    network = rt.topology.network
    estimate = estimate_schedule(
        afg, table,
        lambda src, dst, size_mb: network.transfer_time_estimate(
            src.primary_host, dst.primary_host, size_mb),
    )
    return Run(
        attempted=len(afg),
        completed=len(table),
        broken=len(afg) - len(table),
        makespan_vs=estimate.makespan,
        digests={"table_digest": _sha256(
            json.dumps(table.to_dict(), sort_keys=True))},
        counts=_exposed_counts(rt),
        failures=failures,
    )


# -- chaos_2x64: many small applications under injected faults ----------------

def _setup_chaos(seed: int, n: int) -> Dict[str, Any]:
    # run_campaign builds its own (uniform-speed) 8x8 deployment inside
    # the timed region, so set-up here is the configuration alone.  The
    # nominal length scales with the application count but never drops
    # below the smoke preset's 240 s, which its scripted partition, GM
    # crash and SM crash (at 40/70/100 s) need to play out.
    return {"config": dataclasses.replace(
        smoke_config(seed),
        n_sites=N_SITES, hosts_per_site=HOSTS_PER_SITE,
        n_apps=n, app_spacing_s=2.0,
        duration_s=max(240.0, 900.0 * n / 384),
        n_flaky_hosts=12, n_flaky_links=4, k=3,
    ), "generate_s": 0.0}


@contextmanager
def _captured_runtimes():
    """``run_campaign`` keeps its deployment to itself; hold on to it so
    the kernel event count and ``RuntimeStats`` can be read afterwards."""
    seen: List[VDCERuntime] = []
    original = VDCERuntime.__init__

    def init(self, *args, **kwargs):
        original(self, *args, **kwargs)
        seen.append(self)

    VDCERuntime.__init__ = init
    try:
        yield seen
    finally:
        VDCERuntime.__init__ = original


def _run_chaos(state: Dict[str, Any]):
    with _captured_runtimes() as seen:
        report = run_campaign(state["config"])
    return report, seen[0]


def _inspect_chaos(state: Dict[str, Any], raw) -> Run:
    report, rt = raw
    n_apps = state["config"].n_apps
    done = [o for o in report.outcomes.values() if o["status"] == "completed"]
    typed = sum(1 for o in report.outcomes.values() if o["status"] == "failed")
    counts = _exposed_counts(rt)
    counts.update({
        "sim.failures.injections": report.injection_events,
        "sim.failures.detections": report.detections,
        "sim.failures.false_positives": report.false_positives,
    })
    return Run(
        attempted=n_apps,
        completed=len(done),
        broken=n_apps - len(done) - typed,
        # ChaosReport keeps submission time and execution makespan per
        # application, not the finish instant; their sum is the latest
        # completion less that application's own scheduling exchange
        makespan_vs=max(
            (o["submitted_at"] + o["makespan_s"] for o in done), default=0.0),
        digests={"campaign_hash": report.campaign_hash()},
        counts=counts,
        failures=[f"invariant: {v}" for v in report.violations],
        turnarounds_vs=[o["makespan_s"] for o in done],
    )


def turnaround_percentiles(values: List[float]) -> Dict[str, float]:
    """p50 and p95 of the per-application simulated makespans."""
    if len(values) < 2:
        return {"turnaround_p50_vs": 0.0, "turnaround_p95_vs": 0.0}
    return {
        "turnaround_p50_vs": statistics.median(values),
        "turnaround_p95_vs": statistics.quantiles(values, n=20)[-1],
    }


WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload(
        name="bag_2k",
        why="2048 independent tasks: kernel, watchdog wake-ups and "
            "monitoring do the work, the scheduler almost none",
        apps=1, size=2048, warmup_size=64,
        setup=partial(_setup_pipeline, _bag),
        run=_run_pipeline, inspect=_inspect_pipeline,
    ),
    Workload(
        name="dag_3x512",
        why="three 512-task layered DAGs: host selection, the Fig. 2 bid "
            "exchange over RPC and WAN transfers dominate",
        apps=3, size=512, warmup_size=64,
        setup=partial(_setup_pipeline, _dag),
        run=_run_pipeline, inspect=_inspect_pipeline,
    ),
    Workload(
        name="place_4x1k",
        why="four 1024-task DAGs placed but not simulated: scheduler and "
            "repository only, so kernel/runtime changes must leave it flat",
        apps=4, size=1024, warmup_size=64,
        setup=partial(_setup_pipeline, _dag),
        run=_run_place, inspect=_inspect_place,
    ),
    Workload(
        name="dag_3x256_obs",
        why="three 256-task DAGs with tracer, metrics and causal spans on "
            "and read back: trace/, metrics/ and obs/ carry the marginal cost",
        apps=3, size=256, warmup_size=64,
        setup=partial(_setup_pipeline, _dag,
                      tracer=True, metrics=True, spans=True),
        run=_run_obs, inspect=_inspect_obs,
        off=obs_variant_wall,
    ),
    Workload(
        name="chaos_2x64",
        why="two campaigns of 64 small applications under host/link/GM/SM "
            "faults, loss and partition with invariants audited: failures, "
            "RPC retries and recovery, which no other workload touches",
        apps=2, size=64, warmup_size=11,
        setup=_setup_chaos, run=_run_chaos, inspect=_inspect_chaos,
    ),
)}
