"""One workload, measured in this process: warm-up, timed rounds, output
checks, then (optionally) the layer pass.

A round runs the batch once: every application on a freshly built
federation, in the workload's production configuration with no wrapper
installed, ``gc.collect()`` before it and the collector left on.

**Host times are calibrated.**  This box is a slice of a shared host:
identical code runs 1.0 to 2.0 times its undisturbed time, and the
disturbed stretches last from tens of milliseconds to minutes, so no
statistic over one run removes them.  A fixed spin (:func:`spin`) is
therefore timed immediately before and after every timed unit, and the
unit's host seconds are scaled by ``SPIN_REF_S`` over the mean of the
two: *seconds at the reference speed*, the speed at which the spin
takes ``SPIN_REF_S``.  The spin is the benchmark's own code, so a change
to the program cannot move it, and it slows down with the simulator:
medians over 20 s of calibrated unit times spread a quarter to a tenth
as much as medians of raw ones (README, "Steadiness").  What is left is the
machine state changing inside a unit, which is why units are kept
short.  Raw seconds stay in the detail file.

The layer pass runs the same inputs once more under :mod:`bench.layers`
and must reproduce the timed pass's digests and counts exactly — the
proof that the wrappers observe without perturbing.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from heapq import heappop, heappush
from typing import Any, Callable, Dict, List, Optional, Tuple

from bench import OUT_DIR, SRC, layers
from bench.metrics import END_TO_END, PER_LAYER, summary
from bench.workloads import (
    WORKLOADS,
    Run,
    Workload,
    obs_variant_wall,
    turnaround_percentiles,
)

__all__ = ["measure", "spin", "SPIN_REF_S"]

QUICK_DIVISOR = 8
#: cold ``import repro`` children per process, one at the start of each
#: of the first rounds (the import is the larger part of ``setup_s``)
COLD_IMPORTS = 5
#: runs of each partial-telemetry variant of dag_3x256_obs (layer pass)
VARIANT_ROUNDS = 3
SPIN_EVENTS = 12_000
#: what the spin takes on this box when nothing disturbs it; the
#: reference speed every host time is scaled to.  Only ratios between
#: two commits mean anything, so the value is a convention.
SPIN_REF_S = 0.019


class _Event:
    __slots__ = ("at", "seq", "payload")

    def __init__(self, at: float, seq: int, payload: Dict[str, Any]) -> None:
        self.at = at
        self.seq = seq
        self.payload = payload

    def __lt__(self, other: "_Event") -> bool:
        return (self.at, self.seq) < (other.at, other.seq)


def _ticks(n: int):
    for i in range(n):
        yield i


def spin() -> float:
    """Host seconds (about 20-30 ms) of a fixed event loop in the
    benchmark's own code: slotted events pushed on and popped off a heap
    calendar, a generator resumed, a dict written and small objects
    allocated per event.  It has the simulator's instruction mix on
    purpose: an arithmetic-only loop follows the machine state a third
    as well (README, "Steadiness")."""
    started = time.perf_counter()
    calendar: List[_Event] = []
    seen: Dict[int, Dict[str, Any]] = {}
    ticks = _ticks(SPIN_EVENTS)
    now, x = 0.0, 12345
    for seq in range(SPIN_EVENTS):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        heappush(calendar, _Event(now + (x % 1000) / 10.0, seq,
                                  {"k": seq, "n": str(x)}))
        next(ticks)
        if len(calendar) > 256:
            event = heappop(calendar)
            now = event.at
            seen[event.seq % 2048] = event.payload
    return time.perf_counter() - started


def timed(fn: Callable[[], Any]) -> Tuple[Any, float, float, float]:
    """``fn()`` between two calibration spins: its result, its raw wall
    and CPU seconds, and the factor that scales them to the reference
    speed."""
    before = spin()
    cpu_started = time.process_time()
    started = time.perf_counter()
    result = fn()
    wall_s = time.perf_counter() - started
    cpu_s = time.process_time() - cpu_started
    return result, wall_s, cpu_s, 2.0 * SPIN_REF_S / (before + spin())


def cold_import_s() -> float:
    """Calibrated host seconds of ``python -c "import repro"`` in a
    fresh child."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    _, wall_s, _, factor = timed(lambda: subprocess.run(
        [sys.executable, "-c", "import repro"], env=env, check=True,
        stdout=subprocess.DEVNULL))
    return wall_s * factor


def _one_app(workload: Workload, seed: int, n: int) -> Dict[str, Any]:
    """Build, run and inspect one application of the batch."""
    gc.collect()
    started = time.perf_counter()
    state = workload.setup(seed, n)
    build_s = time.perf_counter() - started
    raw, wall_s, cpu_s, factor = timed(lambda: workload.run(state))
    run = workload.inspect(state, raw)
    run.phases = {phase: s * factor for phase, s in run.phases.items()}
    sample = {"run": run, "raw_wall_s": wall_s, "wall_s": wall_s * factor,
              "cpu_s": cpu_s * factor,
              # built right before the first spin: the same machine state
              "build_s": build_s * factor,
              "generate_s": state["generate_s"]}
    del state, raw
    if workload.off is not None:
        gc.collect()
        (off_s, off_digest), _, _, factor = timed(
            lambda: workload.off(seed, n))
        sample["off_s"] = off_s * factor
        if off_digest != run.digests["result_digest"]:
            run.failures.append(
                "uninstrumented result differs from the instrumented one")
    return sample


def _one_round(workload: Workload, seed: int, n: int) -> Dict[str, Any]:
    """The batch once; times are the sums over its applications."""
    apps = [_one_app(workload, sub, n) for sub in workload.seeds(seed)]
    sample: Dict[str, Any] = {
        key: sum(app[key] for app in apps)
        for key in apps[0] if key != "run"}
    sample["run"] = Run.merged([app["run"] for app in apps])
    return sample


def _agreement(runs: List[Run]) -> List[str]:
    """Digests and exact counts must repeat; any output check fails the run."""
    failures = [f for run in runs for f in run.failures]
    first = runs[0]
    for i, run in enumerate(runs[1:], start=2):
        if run.digests != first.digests:
            failures.append(f"digests of round {i} differ from round 1")
        if run.counts != first.counts or run.makespan_vs != first.makespan_vs:
            failures.append(f"exact counts of round {i} differ from round 1")
    return failures


def _layer_pass(workload: Workload, seed: int, n: int, timed_run: Run,
                wall_s: float) -> Dict[str, Any]:
    rec = layers.Recorder()
    runs: List[Run] = []
    traced_s = 0.0
    gc.collect()
    with layers.installed(rec):
        for k, sub in enumerate(workload.seeds(seed)):
            state = workload.setup(sub, n)
            started = time.perf_counter()
            with rec.span(f"pass:{k}", layers.ROOT_SITE):
                raw = workload.run(state)
            traced_s += time.perf_counter() - started
            runs.append(workload.inspect(state, raw))
            del state, raw
    run = Run.merged(runs)
    failures = list(run.failures)
    if run.digests != timed_run.digests:
        failures.append("layer pass digests differ from the timed pass")
    if run.counts != timed_run.counts:
        failures.append("layer pass counts differ from the timed pass")

    document = rec.spans_document()
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    (OUT_DIR / f"{workload.name}.spans.json").write_text(
        json.dumps(document, indent=1) + "\n")

    self_s, busy_s, calls, counts = rec.self_s, rec.busy_s, rec.calls, rec.counts
    lookups = counts["repository.predict_cache.lookups"]
    misses = calls["scheduler.prediction"]
    hits = max(0, lookups - misses)
    values: Dict[str, float] = dict(run.counts)
    values.update({
        "sim.kernel.events_per_op": run.events / max(1, run.completed),
        "sim.kernel.self_s": self_s["sim.kernel"],
        "runtime.app_controller.watches":
            counts["runtime.app_controller.watches"],
        "runtime.app_controller.wakeups": calls["runtime.app_controller"],
        "runtime.app_controller.self_s": self_s["runtime.app_controller"],
        "runtime.monitor.self_s": self_s["runtime.monitor"],
        "runtime.group_manager.self_s": self_s["runtime.group_manager"],
        "runtime.execution.self_s": self_s["runtime.execution"],
        "runtime.vdce_runtime.sched_vs": run.sched_vs,
        "runtime.vdce_runtime.self_s": self_s["runtime.vdce_runtime"],
        "scheduler.site_scheduler.busy_s": busy_s["scheduler.site_scheduler"],
        "scheduler.host_selection.calls": sum(
            1 for span in rec.spans if span[0] == "select_hosts"),
        "scheduler.host_selection.bids":
            counts["scheduler.host_selection.bids"],
        "scheduler.host_selection.busy_s": busy_s["scheduler.host_selection"],
        "scheduler.prediction.calls": calls["scheduler.prediction"],
        "scheduler.prediction.busy_s": busy_s["scheduler.prediction"],
        "repository.predict_cache.hits": hits,
        "repository.predict_cache.misses": misses,
        "repository.predict_cache.hit_ratio":
            hits / lookups if lookups else 0.0,
        "afg.levels_s": busy_s["afg.levels"],
        "net.rpc.requests": counts["net.rpc.requests"],
        # frames of the event-driven layers enclose the continuations
        # they wake (a link tick resumes the RPC whose handler runs host
        # selection), so "busy" for them is self time
        "net.rpc.busy_s": self_s["net.rpc"],
        "sim.network.busy_s": self_s["sim.network"],
        "sim.host.busy_s": self_s["sim.host"],
        "trace.emit_s": self_s["trace.emit"],
        "trace.hash_s": busy_s["trace.hash"],
        "metrics.snapshot_hash_s": busy_s["metrics.snapshot_hash"],
        "obs.explain_s": busy_s["obs.explain"],
        "sim.chaos.audit_s": self_s["sim.chaos"],
        "layers.overhead_ratio": traced_s / wall_s,
        "layers.unattributed_s": self_s[layers.ROOT_SITE],
    })
    if self_s[layers.ROOT_SITE] >= 0.10 * traced_s:
        failures.append(
            f"{self_s[layers.ROOT_SITE]:.3f}s of the {traced_s:.3f}s layer "
            "pass is billed to no layer (limit 10%)")
    return {"values": values, "failures": failures, "traced_s": traced_s,
            "sites": document["folded"]}


def measure(name: str, seed: int, quick: bool, repeats: Optional[int],
            seconds: float, trace: bool,
            size: Optional[int] = None) -> Dict[str, Any]:
    """Run workload ``name`` and return its detail document."""
    workload = WORKLOADS[name]
    n = size or (workload.size // QUICK_DIVISOR if quick else workload.size)

    # one small run that touches every code path, caches and lazy
    # imports included, before anything is timed
    _one_app(workload, workload.seeds(seed)[0], min(n, workload.warmup_size))

    samples: List[Dict[str, Any]] = []
    imports: List[float] = []
    started = time.perf_counter()

    def more() -> bool:
        if repeats is not None:
            return len(samples) < repeats
        return not samples or time.perf_counter() - started < seconds

    while more():
        if len(imports) < (1 if quick else COLD_IMPORTS):
            imports.append(cold_import_s())
        samples.append(_one_round(workload, seed, n))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    runs: List[Run] = [s["run"] for s in samples]
    run = runs[0]
    failures = _agreement(runs)
    walls = [s["wall_s"] for s in samples]
    import_s = summary(imports, "s")
    build_s = summary([s["build_s"] for s in samples], "s")
    e2e_values = {
        "setup_s": dict(
            summary([import_s["value"] + build_s["value"]], "s"),
            cold_import_s=import_s, build_s=build_s),
        "wall_s": dict(summary(walls, "s"), raw_s=summary(
            [s["raw_wall_s"] for s in samples], "s")),
        "cpu_s": summary([s["cpu_s"] for s in samples], "s"),
        "ops_per_s": summary([run.completed / w for w in walls], "1/s"),
        "peak_rss_mb": summary([peak_rss_mb], "MB"),
        "makespan_vs": summary([run.makespan_vs], "vs"),
        "fail_share": summary(
            [(run.attempted - run.completed) / run.attempted], "ratio"),
    }
    for key, value in turnaround_percentiles(run.turnarounds_vs).items():
        # n is the number of applications behind the percentile
        e2e_values[key] = dict(summary([value], "vs"),
                               n=len(run.turnarounds_vs) or 1)

    detail: Dict[str, Any] = {
        "workload": name, "why": workload.why, "seed": seed, "quick": quick,
        "apps": workload.apps, "size": n, "rounds": len(samples),
        # ``failed`` counts operations that ended outside the
        # specification; typed deaths under injected faults are specified
        # behaviour and are carried by fail_share
        "attempted": sum(r.attempted for r in runs),
        "failed": sum(r.broken for r in runs),
        "digests": run.digests,
        "events": run.events,
        "end_to_end": {m.name: e2e_values[m.name] for m in END_TO_END},
    }

    if workload.off is not None:
        detail["phases_s"] = {
            "off": statistics.median(s["off_s"] for s in samples),
            **{phase: statistics.median(s["run"].phases[phase] for s in samples)
               for phase in run.phases},
        }

    if trace:
        obs_ratios: Dict[str, float] = {}
        if workload.off is not None:
            # before the layer pass: whatever runs after the wrappers
            # were installed and removed runs about a sixth slower
            off_s = detail["phases_s"]["off"]
            obs_ratios["obs.on_cost_ratio"] = detail["phases_s"]["run"] / off_s
            # the batch with none and with part of the telemetry on,
            # interleaved so each ratio compares like with like
            variants = {"off": {}, "trace.only_ratio": {"tracer": True},
                        "metrics.only_ratio": {"metrics": True},
                        "obs.spans_ratio": {"tracer": True, "spans": True}}
            batches: Dict[str, List[float]] = {key: [] for key in variants}
            for _ in range(VARIANT_ROUNDS):
                for key, telemetry in variants.items():
                    gc.collect()
                    batch_s = 0.0
                    for sub in workload.seeds(seed):
                        (app_s, _), _, _, factor = timed(
                            lambda: obs_variant_wall(sub, n, **telemetry))
                        batch_s += app_s * factor
                    batches[key].append(batch_s)
            none_s = statistics.median(batches.pop("off"))
            for key, values_s in batches.items():
                obs_ratios[key] = statistics.median(values_s) / none_s

        raw_wall_s = e2e_values["wall_s"]["raw_s"]["value"]
        layer = _layer_pass(workload, seed, n, run, raw_wall_s)
        failures += layer["failures"]
        values = layer["values"]
        values.update(obs_ratios)
        values["workloads.generate_s"] = statistics.median(
            s["generate_s"] for s in samples)
        detail["per_layer"] = {
            m.name: {"value": values.get(m.name, 0), "unit": m.unit}
            for m in PER_LAYER
        }
        detail["sites"] = layer["sites"]
        detail["layer_pass_s"] = layer["traced_s"]

    detail["failures"] = failures
    detail["correct"] = not failures
    return detail
