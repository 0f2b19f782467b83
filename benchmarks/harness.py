"""The behaviour gate — the committed ``BENCH_6.json``.

Three fixed-seed scenarios, each run once fully instrumented; the
document records what the run *did* — ``trace_hash``, ``metrics_hash``,
kernel events processed, tasks scheduled — and nothing about how long it
took.  ``repro bench --compare BENCH_6.json`` (CI) and
``tests/perf/test_bench6_gate.py`` (tier-1) re-run the scenarios and
fail on any hash that moved: a change to a hot path that alters
behaviour is caught here, on workloads small enough to run everywhere.

Wall-clock measurement is ``python -m bench`` (``BENCHMARK.json``); these
scenarios run in 0.02-0.08 s, below timer noise.  The PR-6 timings this
file once carried are tabulated in EXPERIMENTS.md.

``run_traced`` is the same scenarios for ``repro explain --scenario``
and ``repro bench --profile``: one instrumented pass, optionally with
causal spans on, returning the events.
"""

from __future__ import annotations

import json
from typing import Callable, Dict, List, Optional

from repro.metrics.registry import MetricsRegistry
from repro.obs.spans import SpanKind
from repro.runtime import RuntimeConfig, VDCERuntime
from repro.scheduler import SiteScheduler
from repro.scheduler.host_selection import select_hosts
from repro.sim import TopologyBuilder
from repro.trace.serialize import trace_hash
from repro.trace.tracer import Tracer
from repro.workloads import RandomDAGConfig, bag_of_tasks, random_dag

__all__ = [
    "SCENARIOS",
    "compare",
    "format_document",
    "run_all",
    "run_scenario",
    "run_traced",
]

#: schema version of the emitted document (1 carried wall-clock fields)
SCHEMA = 2

#: canonical scenario order
SCENARIO_ORDER = ("end_to_end", "scalability", "host_selection")


def _runtime(n_sites: int, hosts_per_site: int, seed: int,
             tracer: Tracer, metrics: MetricsRegistry,
             config: Optional[RuntimeConfig]) -> VDCERuntime:
    """A heterogeneous multi-site deployment (bench_scalability's shape);
    ``config=None`` is the stock ``RuntimeConfig()``."""
    speeds = (1.0, 1.5, 2.0, 2.5)
    builder = (
        TopologyBuilder(seed=seed)
        .lan_defaults(0.0005, 10.0)
        .wan_defaults(0.03, 2.0)
    )
    for s in range(n_sites):
        builder.site(f"site-{s}", hosts=[
            (f"s{s}-h{h:02d}", float(speeds[(s + h) % len(speeds)]), 256)
            for h in range(hosts_per_site)
        ])
    return VDCERuntime(builder.build(), config=config or RuntimeConfig(),
                       tracer=tracer, metrics=metrics)


def _schedule_and_execute(rt: VDCERuntime, afg, k: int) -> int:
    """Fig. 2 message exchange + placement, then simulated execution."""
    def run():
        table, _virtual = yield from rt.schedule_process(
            afg, SiteScheduler(k=k, model=rt.model), local_site="site-0"
        )
        result = yield rt.execute_process(
            afg, table, submit_site="site-0", execute_payloads=False
        )
        return result

    result = rt.sim.run_until_complete(rt.sim.process(run()))
    return len(result.records)


# -- scenarios ------------------------------------------------------------
#
# Each scenario builds a fresh deployment, runs a fixed-seed workload to
# completion, and returns the number of tasks it scheduled plus the
# runtime (for the kernel event count and the metrics export).  The
# optional third argument replaces the stock RuntimeConfig — run_traced
# uses it to switch causal spans on.

def _scenario_end_to_end(tracer: Tracer, metrics: MetricsRegistry,
                         config: Optional[RuntimeConfig] = None) -> Dict:
    """bench_end_to_end's shape: full pipeline on a 4-site federation."""
    rt = _runtime(n_sites=4, hosts_per_site=4, seed=0,
                  tracer=tracer, metrics=metrics, config=config)
    rt.start_monitoring()
    afg = random_dag(RandomDAGConfig(n_tasks=120, width=6, mean_cost=3.0,
                                     ccr=0.3, seed=7))
    tasks = _schedule_and_execute(rt, afg, k=3)
    return {"tasks": tasks, "rt": rt}


def _scenario_scalability(tracer: Tracer, metrics: MetricsRegistry,
                          config: Optional[RuntimeConfig] = None) -> Dict:
    """bench_scalability's shape, at production scale: a parameter-sweep
    style bag (384 identical tasks) over 8 sites x 8 hosts, scheduled
    through the distributed message exchange and executed under
    monitoring.  This is the headline hot path: host selection, Predict,
    in-round load accounting, and the event kernel all at full load."""
    rt = _runtime(n_sites=8, hosts_per_site=8, seed=0,
                  tracer=tracer, metrics=metrics, config=config)
    rt.start_monitoring()
    afg = bag_of_tasks(n=384, cost=4.0, heterogeneity=0.0, seed=0)
    tasks = _schedule_and_execute(rt, afg, k=7)
    return {"tasks": tasks, "rt": rt}


def _scenario_host_selection(tracer: Tracer, metrics: MetricsRegistry,
                             config: Optional[RuntimeConfig] = None) -> Dict:
    """bench_fig3_host_selection's shape: pure Figure-3 placement of a
    300-task DAG at one 64-host site (no simulation — placement only)."""
    rt = _runtime(n_sites=1, hosts_per_site=64, seed=1,
                  tracer=tracer, metrics=metrics, config=config)
    repo = rt.repositories["site-0"]
    afg = random_dag(RandomDAGConfig(n_tasks=300, width=10, mean_cost=2.0,
                                     ccr=0.4, seed=1))
    # placement-only scenario: wrap the selection in a manual root +
    # schedule span so a span-enabled pass still yields an explainable
    # window (NULL_SPAN, so nothing recorded, on the default pass)
    sched_span = rt.spans.open(
        SpanKind.SCHEDULE, afg.name,
        parent=rt.spans.root_of(afg.name, source="bench:host_selection"),
        source="bench:host_selection", site="site-0",
    )
    results = select_hosts(afg, repo, model=rt.model,
                           tracer=tracer, metrics=metrics)
    rt.spans.close(sched_span, source="bench:host_selection",
                   tasks=len(results))
    rt.spans.close_root(afg.name, source="bench:host_selection")
    return {"tasks": len(results), "rt": rt}


SCENARIOS: Dict[str, Callable[..., Dict]] = {
    "end_to_end": _scenario_end_to_end,
    "scalability": _scenario_scalability,
    "host_selection": _scenario_host_selection,
}


# -- the hashed pass --------------------------------------------------------

def run_scenario(name: str) -> Dict:
    """One instrumented pass of a scenario under the stock config: its
    oracle hashes and the two counts that size it."""
    tracer = Tracer()
    metrics = MetricsRegistry()
    out = SCENARIOS[name](tracer, metrics)
    out["rt"].export_metrics()
    return {
        "sim_events": out["rt"].sim.events_processed,
        "tasks_scheduled": out["tasks"],
        "trace_hash": trace_hash(tracer),
        "metrics_hash": metrics.snapshot_hash(),
    }


def run_traced(name: str, causal_spans: bool = False):
    """One instrumented pass of a canonical scenario; returns its events.

    With ``causal_spans`` the deployment runs under
    ``RuntimeConfig(causal_spans=True)`` so the trace carries the full
    span tree — the input for ``repro explain --scenario`` and the
    ``repro bench --profile`` folded stacks.  The committed hashes always
    come from :func:`run_scenario`'s stock-config pass, never from here.
    """
    tracer = Tracer()
    config = RuntimeConfig(causal_spans=True) if causal_spans else None
    SCENARIOS[name](tracer, MetricsRegistry(), config)
    return tracer.events()


def run_all() -> Dict:
    """Run every scenario; return the canonical bench document."""
    return {
        "schema": SCHEMA,
        "scenarios": {name: run_scenario(name) for name in SCENARIO_ORDER},
    }


# -- comparison (the behaviour gate) ----------------------------------------

def compare(previous: Dict, current: Dict) -> List[str]:
    """Problems between two bench documents; empty list means clean.

    Every scenario of ``previous`` must be in ``current`` with the same
    ``trace_hash`` and ``metrics_hash``.  Scenarios only ``current`` has
    are not failures (the gate grows).
    """
    problems: List[str] = []
    for side, document in (("previous", previous), ("current", current)):
        version = document.get("schema", SCHEMA)
        if version != SCHEMA:
            # refuse to compare across incompatible layouts — a silent
            # field mismatch would read as a spurious pass or failure
            return [
                f"{side} document has schema {version!r}; this harness "
                f"compares schema {SCHEMA} documents only"
            ]
    prev_scenarios = previous.get("scenarios", {})
    cur_scenarios = current.get("scenarios", {})
    for name in (n for n in SCENARIO_ORDER if n in prev_scenarios):
        if name not in cur_scenarios:
            problems.append(f"{name}: scenario missing from current run")
            continue
        prev, cur = prev_scenarios[name], cur_scenarios[name]
        for key, changed in (
            ("trace_hash",
             "trace hash changed ({0:.16}... -> {1:.16}...) — behaviour is "
             "not identical to the committed reference"),
            ("metrics_hash",
             "metrics snapshot hash changed — exported aggregates differ "
             "from the committed reference"),
        ):
            want, got = prev.get(key), cur.get(key)
            if want is None or got is None:
                side = "previous" if want is None else "current"
                problems.append(f"{name}: {side} document has no {key}")
            elif want != got:
                problems.append(f"{name}: {changed.format(want, got)}")
    return problems


def format_document(document: Dict) -> str:
    """Human-readable summary table of one bench document."""
    lines = [
        f"{'scenario':<16} {'events':>8} {'tasks':>6}  "
        f"{'trace_hash':<19} metrics_hash",
    ]
    for name in SCENARIO_ORDER:
        s = document["scenarios"].get(name)
        if s is None:
            continue
        lines.append(
            f"{name:<16} {s['sim_events']:>8} {s['tasks_scheduled']:>6}  "
            f"{s['trace_hash'][:16]}... {s['metrics_hash'][:16]}..."
        )
    return "\n".join(lines)


def to_json(document: Dict) -> str:
    """Canonical JSON serialization (sorted keys, trailing newline)."""
    return json.dumps(document, indent=2, sort_keys=True) + "\n"


if __name__ == "__main__":  # pragma: no cover - CLI lives in repro.cli
    print(format_document(run_all()))
