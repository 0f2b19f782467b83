"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``libraries`` — print the task-library menus (the editor's palettes);
* ``run <app>`` — deploy a federation, submit one of the built-in
  applications (``linear-solver``, ``figure1``, ``c3i``, ``dsp``,
  ``random-dag``) and print the placement, Gantt chart and metrics;
* ``monitor`` — run the control plane alone for a while and print the
  monitoring statistics and a load sparkline per host;
* ``metrics`` — print a metrics snapshot (from a saved ``--metrics``
  file, or a quick instrumented run) as Prometheus text or JSON;
* ``analyze <trace> [<trace2>]`` — the trace-analysis toolkit: critical
  path, per-host utilization, schedule lag; with two traces, the
  structural diff (first divergent event + per-kind count deltas),
  ``--modulo`` diffing the first with kinds dropped or moves applied;
* ``explain <trace>`` — the attribution engine: rebuild the causal span
  tree from a ``run``/``resume --trace`` or ``chaos --spans`` trace (or
  re-run a pinned scenario with spans on), print the per-application
  wait-state breakdown, critical path and top-k slow tasks/hosts, and
  hash the canonical report;
* ``experiments`` — print the experiment index (DESIGN.md §4) and the
  command that regenerates each one;
* ``resume <dir>`` — resume an interrupted application from a
  checkpoint directory written by ``run --journal`` (optionally
  checking resume equivalence against expected output hashes);
* ``selftest`` / ``verify`` — quick end-to-end health check across all
  subsystems (failure rescheduling, checkpoint/resume, DSM, sockets);
* ``serve`` — start the Flask web editor (requires flask).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from functools import reduce
from typing import Callable, Optional, Sequence

__all__ = ["main"]

#: (id, title, producer): a ``benchmarks/`` script or a test of ``tests/``
EXPERIMENTS = [
    ("E1", "Figure 1 linear equation solver", "bench_fig1_linear_solver.py"),
    ("E2", "Site scheduler vs baselines", "bench_fig2_site_scheduler.py"),
    ("E3", "Host selection within a site", "bench_fig3_host_selection.py"),
    ("E4", "k-nearest-site locality", "bench_locality_k_sites.py"),
    ("E5", "Monitoring significant-change filter", "bench_fig4_monitoring.py"),
    ("E6", "Echo-packet failure detection", "bench_failure_detection.py"),
    ("E7", "Load-threshold rescheduling", "bench_rescheduling.py"),
    ("E8", "Real-socket Data Manager", "bench_data_manager.py"),
    ("E9", "Level-priority ablation", "bench_level_priority.py"),
    ("E10", "Prediction sensitivity + calibration", "bench_prediction_sensitivity.py"),
    ("E11", "Federation scalability", "bench_scalability.py"),
    ("E12", "End-to-end phase breakdown", "bench_end_to_end.py"),
    ("E13", "Load-accounting ablation", "bench_accounting_ablation.py"),
    ("E14", "Distributed shared memory (§5)", "bench_dsm.py"),
    ("E15", "Straggler defense & speculation", "bench_speculation.py"),
    ("E16", "Data-plane integrity: what repair costs",
     "tests/runtime/test_integrity.py"),
    ("E17", "Elastic membership: what a drain buys",
     "tests/runtime/test_membership_runtime.py::TestDrainPrices"),
]


def _build_app(name: str, scale: float, seed: int):
    from repro.workloads import (
        RandomDAGConfig,
        figure1_afg,
        linear_solver_afg,
        random_dag,
        surveillance_afg,
    )

    if name == "linear-solver":
        return linear_solver_afg(scale=scale, parallel_lu_nodes=2), True
    if name == "figure1":
        return figure1_afg(), False
    if name == "c3i":
        return surveillance_afg(n_sensors=3, scale=scale), True
    if name == "dsp":
        from repro.afg import ApplicationFlowGraph, TaskNode, TaskProperties

        afg = ApplicationFlowGraph("dsp-chain")
        chain = [
            ("synth", "signal.synthesize", 0),
            ("filt", "signal.lowpass_filter", 1),
            ("spec", "signal.spectrum", 1),
            ("peaks", "signal.detect_peaks", 1),
        ]
        prev = None
        for tid, ttype, n_in in chain:
            afg.add_task(TaskNode(id=tid, task_type=ttype, n_in_ports=n_in,
                                  n_out_ports=1,
                                  properties=TaskProperties(workload_scale=scale)))
            if prev:
                afg.connect(prev, tid, size_mb=0.25)
            prev = tid
        return afg, True
    if name == "random-dag":
        return (
            random_dag(RandomDAGConfig(n_tasks=30, width=5, mean_cost=2.0,
                                       ccr=0.4, seed=seed)),
            False,
        )
    raise SystemExit(f"unknown application {name!r} "
                     f"(try: linear-solver, figure1, c3i, dsp, random-dag)")


def cmd_libraries(args) -> int:
    from repro.tasklib import default_registry

    registry = default_registry()
    for library in registry.libraries():
        print(f"{library}:")
        for sig in registry.library_entries(library):
            par = " [parallel]" if sig.parallelizable else ""
            print(f"  {sig.qualified_name:<28} "
                  f"{sig.n_in_ports}->{sig.n_out_ports}  "
                  f"cost={sig.base_comp_size:g}{par}  {sig.description}")
    return 0


def _below_minimum(args, minimums, positive=()) -> bool:
    """Print ``error: --FLAG must be >= N`` for the first set flag below
    its N, or ``... must be > 0`` for a set ``positive`` flag that is not,
    or ``... must be finite`` for NaN or an infinity."""
    bounds = [*((flag, least, ">=") for flag, least in minimums.items()),
              *((flag, 0, ">") for flag in positive)]
    for flag, bound, op in bounds:
        value = getattr(args, flag.replace("-", "_"))
        if value is not None and not math.isfinite(value):
            print(f"error: --{flag} must be finite")
            return True
        if value is not None and (value < bound or op == ">" and value == bound):
            print(f"error: --{flag} must be {op} {bound}")
            return True
    return False


#: ``--sites`` / ``--hosts`` of every command that builds a deployment
_DEPLOYMENT_MINIMUMS = {"sites": 1, "hosts": 1}


def cmd_run(args) -> int:
    from repro import VDCE
    from repro.metrics import summarize_result
    from repro.metrics.registry import NULL_METRICS, MetricsRegistry
    from repro.runtime.vdce_runtime import RuntimeConfig
    from repro.trace import NULL_TRACER, Tracer

    if _below_minimum(args, {**_DEPLOYMENT_MINIMUMS, "k": 0, "seed": 0,
                             "repeat": 1, "max-concurrent": 1,
                             "max-queued": 1, "deadline": 0},
                      positive=("scale", "ttl")):
        return 1
    tracer = Tracer() if args.trace else NULL_TRACER
    metrics = MetricsRegistry() if args.metrics else NULL_METRICS
    # a trace records the causal spans too: the phase table reads them
    env = VDCE.standard(n_sites=args.sites, hosts_per_site=args.hosts,
                        seed=args.seed, tracer=tracer, metrics=metrics,
                        runtime_config=RuntimeConfig(
                            causal_spans=bool(args.trace)))
    if args.monitoring:
        env.start_monitoring()
    afg, payloads = _build_app(args.application, args.scale, args.seed)
    admission_knobs = (
        args.max_queued is not None or args.deadline is not None
        or args.ttl is not None or args.repeat > 1
    )
    if args.max_concurrent is None and admission_knobs:
        print("error: --max-queued/--deadline/--ttl/--repeat need "
              "--max-concurrent")
        return 1
    if args.max_concurrent is not None:
        if args.journal:
            print("error: --max-concurrent cannot be combined with --journal")
            return 1
        from repro.runtime.admission import (
            AdmissionExpired,
            AdmissionPolicy,
            AdmissionQueue,
            AdmissionRejected,
        )
        from repro.scheduler import SiteScheduler

        queue = AdmissionQueue(
            env.runtime, max_concurrent=args.max_concurrent,
            policy=AdmissionPolicy(max_queued=args.max_queued,
                                   default_ttl_s=args.ttl),
        )
        copies = [afg]
        for i in range(1, args.repeat):
            copy, _ = _build_app(args.application, args.scale, args.seed)
            copy.name = f"{copy.name}#{i}"
            copies.append(copy)
        signals = [
            queue.submit(copy, "admin",
                         scheduler=SiteScheduler(k=args.k,
                                                 model=env.runtime.model),
                         execute_payloads=payloads,
                         deadline_s=args.deadline)
            for copy in copies
        ]

        def drain():
            results = []
            for copy, signal in zip(copies, signals):
                try:
                    results.append((copy.name, (yield signal)))
                except (AdmissionRejected, AdmissionExpired) as exc:
                    results.append((copy.name, exc))
            return results

        outcomes = env.sim.run_until_complete(
            env.sim.process(drain(), name="admission:batch"))
        results = [r for _, r in outcomes
                   if not isinstance(r, Exception)]
        stats = env.runtime.stats
        print(f"admission: max_concurrent={args.max_concurrent}, "
              f"{len(results)}/{len(outcomes)} application(s) admitted, "
              f"total queue wait {stats.queue_wait_s:.3f}s")
        for name in queue.admitted_order:
            print(f"  {name}: waited {stats.queue_waits[name]:.3f}s")
        for name, outcome in outcomes:
            if isinstance(outcome, Exception):
                print(f"  {name}: SHED ({outcome})")
        if not results:
            print("error: every submission was shed")
            return 1
        result = results[0]
    elif args.journal:
        from repro.runtime.checkpoint import create_checkpoint_dir, journal_path
        from repro.scheduler import SiteScheduler

        journal = create_checkpoint_dir(env, args.journal)

        proc = env.sim.process(
            env.runtime.run_process(
                afg, SiteScheduler(k=args.k, model=env.runtime.model),
                execute_payloads=payloads, journal=journal,
            ),
            name=f"submit:{afg.name}",
        )
        result = env.sim.run_until_complete(proc)
        print(f"checkpoint journal: {journal_path(args.journal)} "
              f"({journal.bytes_written} bytes)")
    else:
        result = env.submit(afg, k=args.k, execute_payloads=payloads)

    print(f"application {result.application!r}: "
          f"{len(result.records)} tasks on {len(env.sites)} sites")
    for task_id in sorted(result.records):
        record = result.records[task_id]
        print(f"  {task_id:<24} {record.site:<10} {','.join(record.hosts):<24} "
              f"measured={record.measured_time:8.3f}s attempts={record.attempts}")
    summary = summarize_result(result, afg, env.repository().task_perf)
    print(f"\nmakespan={summary.makespan:.3f}s  slr={summary.slr:.3f}  "
          f"speedup={summary.speedup:.3f}  "
          f"moved={summary.data_transferred_mb:.1f}MB")
    if args.report:
        from repro.viz import execution_report

        print()
        print(execution_report(result))
    elif args.gantt:
        print()
        print(env.gantt(result))
    if result.outputs and payloads:
        print("\noutputs:")
        for task_id, values in sorted(result.outputs.items()):
            rendered = ", ".join(str(v)[:60] for v in values)
            print(f"  {task_id}: {rendered}")
    if args.trace:
        from repro.metrics import format_trace_summary

        # the summary goes between the write and its report line
        if not _write(env.save_trace, args.trace, "trace",
                      f"\n{format_trace_summary(tracer)}\n\ntrace",
                      env.trace_hash()):
            return 1
    if args.metrics and not _write(
            env.save_metrics, args.metrics, "metrics",
            "metrics snapshot", env.metrics_hash()):
        return 1
    return 0


def cmd_monitor(args) -> int:
    from repro import VDCE
    from repro.metrics.registry import NULL_METRICS, MetricsRegistry
    from repro.sim.workload import OrnsteinUhlenbeckLoad, attach_generators
    from repro.viz import workload_sparkline

    if _below_minimum(args, _DEPLOYMENT_MINIMUMS, positive=("duration",)):
        return 1
    metrics = MetricsRegistry() if args.metrics else NULL_METRICS
    env = VDCE.standard(n_sites=args.sites, hosts_per_site=args.hosts,
                        seed=args.seed, metrics=metrics)
    samples = {h.name: [] for h in env.topology.all_hosts}
    attach_generators(
        env.sim, env.topology.all_hosts,
        lambda: OrnsteinUhlenbeckLoad(mean=0.8, sigma=0.3, period_s=1.0),
    )
    env.start_monitoring()

    def sample():
        for host in env.topology.all_hosts:
            samples[host.name].append(host.load_average())

    step = max(1.0, args.duration / 60.0)
    t = step
    while t <= args.duration:
        env.sim.call_at(t, sample)
        t += step
    env.advance(args.duration)

    peak = max((max(s) for s in samples.values() if s), default=1.0)
    for name in sorted(samples):
        print(workload_sparkline(samples[name], label=f"{name:<12}",
                                 max_value=peak))
    print("\nmonitoring statistics:")
    for key, value in env.stats().items():
        if value:
            print(f"  {key:<26} {value}")
    if args.metrics and not _write(
            env.save_metrics, args.metrics, "metrics",
            "\nmetrics snapshot", env.metrics_hash()):
        return 1
    return 0


def cmd_metrics(args) -> int:
    """Print a metrics snapshot as Prometheus text or canonical JSON."""
    from repro.metrics.export import (
        load_snapshot,
        prometheus_from_snapshot,
        snapshot_to_json,
    )

    if _below_minimum(args, _DEPLOYMENT_MINIMUMS):
        return 1
    if args.snapshot:
        try:
            snapshot = load_snapshot(args.snapshot)
        except (OSError, ValueError) as exc:
            print(f"error: cannot load snapshot {args.snapshot}: {exc}")
            return 1
    else:
        # no file: run a small instrumented deployment and export that
        from repro import VDCE
        from repro.metrics.registry import MetricsRegistry
        from repro.workloads import linear_solver_afg

        env = VDCE.standard(n_sites=args.sites, hosts_per_site=args.hosts,
                            seed=args.seed, metrics=MetricsRegistry())
        env.start_monitoring()
        env.submit(linear_solver_afg(scale=0.15), k=1)
        env.advance(5.0)
        snapshot = env.metrics_snapshot()

    if args.format == "json":
        print(snapshot_to_json(snapshot), end="")
    else:
        print(prometheus_from_snapshot(snapshot), end="")
    return 0


def cmd_analyze(args) -> int:
    """Analyze one saved trace, or structurally diff two."""
    from repro.metrics.analysis import (
        MOVES,
        format_analysis,
        format_structural_diff,
        structural_diff,
    )
    from repro.trace import KNOWN_KINDS
    from repro.trace.serialize import read_jsonl

    if args.modulo and args.trace2 is None:
        print("error: --modulo needs two traces")
        return 1
    traces = []
    for path in filter(None, (args.trace, args.trace2)):
        try:
            traces.append(read_jsonl(path))
        except (OSError, ValueError) as exc:
            print(f"error: cannot read trace {path}: {exc}")
            return 1
    if args.trace2 is None:
        print(format_analysis(traces[0],
                              title=f"trace analysis — {args.trace}"))
        return 0
    events, events2 = traces
    names = set(args.modulo.split(",")) if args.modulo else set()
    # a misspelt kind would drop nothing and report a spurious mismatch
    unknown = sorted(names - KNOWN_KINDS - set(MOVES))
    if unknown:
        print(f"error: unknown event kind {', '.join(unknown)}")
        return 1
    moves = [MOVES[name] for name in sorted(names & set(MOVES))]
    modulo = (lambda evs: [
        e for e in reduce(lambda kept, move: move(kept), moves, evs)
        if e.kind not in names]) if names else None
    report = structural_diff(events, events2, modulo)
    print(f"a: {args.trace}\nb: {args.trace2}")
    print(format_structural_diff(report))
    return 0 if report["identical"] else 2


def _write(save: Callable[[str], object], path: str, what: str,
           written: str = "", digest: str = "") -> bool:
    """``save(path)``; on failure report it and return False.

    Given ``written``, success prints ``<written> written to <path>``,
    followed by 16 hex digits of ``digest`` when there is one.
    """
    try:
        save(path)
    except OSError as exc:
        print(f"error: cannot write {what} to {path}: {exc}")
        return False
    if written:
        note = f"  (hash {digest[:16]}...)" if digest else ""
        print(f"{written} written to {path}{note}")
    return True


def _write_text(path: str, text: str, what: str) -> bool:
    """Write ``text`` to ``path`` and say so (``<what> written to
    <path>``); on failure report it and return False."""
    def save(path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)

    return _write(save, path, what, what)


def _json_text(value) -> str:
    """The layout every hashes/log file uses (what ``diff`` in CI sees)."""
    return json.dumps(value, indent=2, sort_keys=True) + "\n"


def cmd_explain(args) -> int:
    """Attribute an application's wall time from its causal span trace."""
    from repro.obs.attribution import (
        CATEGORIES, explain, report_hash, report_to_json,
    )
    from repro.obs.profile import folded_stacks, format_folded
    from repro.trace.serialize import read_jsonl

    if (args.trace is None) == (args.scenario is None):
        print("error: give a trace file OR --scenario, not both/neither")
        return 1
    if _below_minimum(args, {"top": 0}):
        return 1
    if args.scenario is not None:
        from repro.core.scenario import SCENARIOS, run_traced

        if args.scenario not in SCENARIOS:
            print(f"error: unknown scenario {args.scenario!r} "
                  f"(try: {', '.join(SCENARIOS)})")
            return 1
        events = run_traced(args.scenario, causal_spans=True)
        source = f"scenario {args.scenario}"
    else:
        try:
            events = read_jsonl(args.trace)
        except (OSError, ValueError) as exc:
            print(f"error: cannot read trace {args.trace}: {exc}")
            return 1
        source = args.trace

    report = explain(events, top=args.top)
    if not report["apps"]:
        print(f"no causal spans in {source} — record the trace with "
              "run/resume --trace or chaos --spans --trace")
        return 1

    print(f"causal-span attribution — {source}")
    failed = False
    for app in sorted(report["apps"]):
        info = report["apps"][app]
        wall = info["wall_s"]
        print(f"\napplication {app!r}: wall {wall:.3f}s "
              f"over {info['windows']} window(s)")
        for category in CATEGORIES:
            value = info["breakdown"][category]
            if value <= 0:
                continue
            share = value / wall if wall > 0 else 0.0
            print(f"  {category:<12} {value:10.3f}s  {share:6.1%}")
        if abs(info["breakdown_residual_s"]) > 1e-6:
            failed = True
            print(f"  BREAKDOWN MISMATCH: categories sum to "
                  f"{wall - info['breakdown_residual_s']:.9f}s, "
                  f"wall is {wall:.9f}s")
        round_ = info.get("scheduling_round")
        if round_ is not None:
            print(f"  scheduling round: {round_['tasks']} task(s) placed on "
                  f"{round_['sites_used']} of the {round_['sites_bid']} "
                  f"site(s) that bid ({round_['sites_answered']} remote)")
        steps = [
            step["span"] + (f"[{step['task']}]" if step.get("task") else "")
            for step in info["critical_path"]
        ]
        print(f"  critical path: {' -> '.join(steps)}")
        if info["top_tasks"]:
            rendered = ", ".join(
                f"{t['task']} {t['wall_s']:.3f}s" for t in info["top_tasks"]
            )
            print(f"  slowest tasks: {rendered}")
    if report["top_hosts"]:
        rendered = ", ".join(
            f"{h['host']} {h['execute_s']:.3f}s" for h in report["top_hosts"]
        )
        print(f"\nbusiest hosts (execute time): {rendered}")

    violations = report["integrity"]["violations"]
    if violations:
        failed = True
        print(f"\n{len(violations)} span-integrity violation(s):")
        for violation in violations:
            print(f"  {violation}")
    if report["integrity"]["orphaned_spans"]:
        print(f"\n{report['integrity']['orphaned_spans']} span(s) "
              "orphan-marked (crash/abandon) — expected under faults")

    digest = report_hash(report)
    print(f"\nreport hash: {digest}")
    if args.json and not _write_text(args.json, report_to_json(report),
                                     "report"):
        return 1
    if args.hashes and not _write_text(
            args.hashes, _json_text({"report": digest}), "report hash"):
        return 1
    if args.profile:
        stacks = folded_stacks(events)
        if not _write_text(args.profile, format_folded(stacks),
                           f"folded-stack profile ({len(stacks)} stacks)"):
            return 1
    return 2 if failed else 0


def cmd_topology(args) -> int:
    from repro import VDCE
    from repro.viz import topology_diagram

    if _below_minimum(args, _DEPLOYMENT_MINIMUMS):
        return 1
    env = VDCE.standard(n_sites=args.sites, hosts_per_site=args.hosts,
                        seed=args.seed)
    print(topology_diagram(env.topology))
    return 0


def cmd_experiments(args) -> int:
    print("experiment index (DESIGN.md section 4):")
    for exp_id, title, producer in EXPERIMENTS:
        if not producer.startswith("tests/"):
            producer = f"benchmarks/{producer} --benchmark-only"
        print(f"  {exp_id:<4} {title:<40} pytest {producer}")
    return 0


def cmd_selftest(args) -> int:
    """Quick end-to-end health check across all subsystems."""
    import numpy as np

    from repro import VDCE
    from repro.runtime import DSM, LocalDataManager
    from repro.scheduler import AllocationTable, SiteScheduler, TaskAssignment
    from repro.workloads import linear_solver_afg, surveillance_afg

    failures = []

    def check(label, fn):
        try:
            fn()
            print(f"  ok    {label}")
        except Exception as exc:  # noqa: BLE001 - reported to the user
            failures.append(label)
            print(f"  FAIL  {label}: {exc}")

    print("VDCE self-test:")

    def solver_through_everything():
        env = VDCE.standard(n_sites=2, hosts_per_site=3, seed=0)
        env.start_monitoring()
        result = env.submit(linear_solver_afg(scale=0.15), k=1)
        (residual,) = result.outputs["verify"]
        assert residual < 1e-8

    check("simulated pipeline (editor->scheduler->runtime), correct maths",
          solver_through_everything)

    def c3i_pipeline():
        env = VDCE.standard(n_sites=2, hosts_per_site=3, seed=1)
        result = env.submit(surveillance_afg(n_sensors=2, scale=0.3), k=1)
        (summary,) = result.outputs["archive"]
        assert summary["tracks"] > 0

    check("C3I surveillance pipeline", c3i_pipeline)

    def real_sockets():
        afg = linear_solver_afg(scale=0.1, parallel_lu_nodes=1, verify=False)
        table = AllocationTable(afg.name, scheduler="manual")
        for i, task in enumerate(afg.topological_order()):
            table.assign(TaskAssignment(task, "local", (f"n{i % 2}",), 0.1))
        report = LocalDataManager(timeout_s=20.0).execute(afg, table)
        (x,) = report.outputs["solve"]
        assert np.isfinite(x).all()

    check("Data Manager over real TCP sockets", real_sockets)

    def dsm_consistency():
        env = VDCE.standard(n_sites=2, hosts_per_site=2, seed=2)
        dsm = DSM(env.sim, env.topology.network)
        hosts = [h.name for h in env.topology.all_hosts]
        dsm.allocate("c", hosts[0], initial=0)

        def incr(host):
            yield from dsm.fetch_add("c", 1, host)

        procs = [env.sim.process(incr(h)) for h in hosts for _ in range(3)]

        def wait():
            for p in procs:
                yield p
            value = yield from dsm.read("c", hosts[0])
            return value

        assert env.sim.run_until_complete(env.sim.process(wait())) == 12

    check("DSM sequential consistency", dsm_consistency)

    def failure_recovery():
        env = VDCE.standard(n_sites=1, hosts_per_site=3, seed=3)
        from repro.workloads import linear_pipeline

        afg = linear_pipeline(n_stages=3, cost=5.0)
        table = SiteScheduler(k=0).schedule(afg, env.runtime.federation_view())
        victim = table.get("s000").hosts[0]
        proc = env.runtime.execute_process(afg, table,
                                           execute_payloads=False)
        env.sim.call_after(1.0, lambda: env.topology.host(victim).fail())
        result = env.sim.run_until_complete(proc)
        assert result.reschedules >= 1

    check("failure detection + task rescheduling", failure_recovery)

    def checkpoint_resume():
        import os
        import tempfile

        from repro.runtime.checkpoint import (
            create_checkpoint_dir,
            expected_output_hashes,
            final_output_hashes,
            resume_run,
        )
        from repro.workloads import linear_pipeline

        with tempfile.TemporaryDirectory() as tmp:
            env = VDCE.standard(n_sites=2, hosts_per_site=2, seed=4)
            afg = linear_pipeline(n_stages=4, cost=4.0, edge_mb=1.0)
            expected = expected_output_hashes(afg, env.runtime.registry)
            table = SiteScheduler(k=1).schedule(
                afg, env.runtime.federation_view()
            )
            journal = create_checkpoint_dir(env, tmp)
            env.runtime.execute_process(afg, table, journal=journal)
            env.sim.run(until=8.0)  # "crash" mid-application
            env.save_repositories(os.path.join(tmp, "repos"))
            _env2, result = resume_run(tmp)
            assert final_output_hashes(result) == expected

    check("checkpoint journal + resume equivalence", checkpoint_resume)

    if failures:
        print(f"\n{len(failures)} check(s) FAILED: {failures}")
        return 1
    print("\nall checks passed")
    return 0


def cmd_resume(args) -> int:
    """Resume an interrupted application from a checkpoint directory."""
    from repro.runtime.checkpoint import final_output_hashes, resume_run

    expected = None
    if args.expect:  # checked before the resume, which may take a while
        try:
            with open(args.expect, encoding="utf-8") as fh:
                expected = json.load(fh)
            if not isinstance(expected, dict) or not all(
                    isinstance(v, str) for v in expected.values()):
                raise ValueError("not an object of task id -> hash string")
        except (OSError, ValueError) as exc:
            print(f"error: cannot load expected hashes {args.expect}: {exc}")
            return 1
    if _below_minimum(args, {}, positive=("limit",)):
        return 1
    tracer = None
    runtime_config = None
    if args.trace:
        from repro.runtime.vdce_runtime import RuntimeConfig
        from repro.trace.tracer import Tracer

        tracer = Tracer()
        runtime_config = RuntimeConfig(causal_spans=True)
    try:
        _env, result = resume_run(
            args.directory, submit_site=args.site, limit=args.limit,
            tracer=tracer, runtime_config=runtime_config,
        )
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: cannot resume from {args.directory}: {exc}")
        return 1
    if args.trace:
        from repro.trace.serialize import write_jsonl

        if not _write(lambda path: write_jsonl(tracer, path), args.trace,
                      "trace", "resume trace"):
            return 1
    hashes = final_output_hashes(result)
    print(f"application {result.application!r} resumed and completed: "
          f"{len(result.records)} tasks, "
          f"{result.reschedules} reschedules, "
          f"finished at t={result.finished_at:.3f}s")
    for task_id in sorted(hashes):
        print(f"  {task_id}: {hashes[task_id]}")
    if args.hashes and not _write_text(args.hashes, _json_text(hashes),
                                       "output hashes"):
        return 1
    if expected is not None:
        if hashes != expected:
            print("resume equivalence FAILED — output hashes differ:")
            for task in sorted(set(expected) | set(hashes)):
                want, got = expected.get(task), hashes.get(task)
                if want != got:
                    print(f"  {task}: expected {want}, got {got}")
            return 1
        print("resume equivalence verified: output hashes match expected")
    return 0


def cmd_serve(args) -> int:  # pragma: no cover - starts a real server
    from repro import VDCE
    from repro.editor.webapp import create_webapp
    from repro.metrics.registry import MetricsRegistry

    env = VDCE.standard(n_sites=args.sites, hosts_per_site=args.hosts,
                        seed=args.seed, metrics=MetricsRegistry())
    env.start_monitoring()
    app = create_webapp(env.runtime)
    print(f"VDCE web editor on http://127.0.0.1:{args.port} "
          f"(user: admin / vdce-admin, metrics at /metrics)")
    app.run(port=args.port)
    return 0


#: ``repro chaos`` shape flag -> the ChaosConfig field it sets; unset, the
#: field keeps its ChaosConfig default.  A preset fixes all of them
_CHAOS_SHAPE = {
    "sites": "n_sites",
    "hosts": "hosts_per_site",
    "apps": "n_apps",
    "duration": "duration_s",
    "slow-hosts": "n_slow_hosts",
    "slowdown-factor": "slowdown_factor",
    "flap-hosts": "n_flapping_hosts",
    "detector": "detector",
    "speculation": "speculation",
    "health": "health",
}


def cmd_chaos(args) -> int:
    """Run a chaos campaign; exit 1 on any invariant violation."""
    from collections import Counter

    from repro.sim import chaos

    if _below_minimum(args, {"seed": 0, **_DEPLOYMENT_MINIMUMS, "apps": 1},
                      positive=("duration", "slowdown-factor")):
        return 1
    shape = {
        flag: value for flag in _CHAOS_SHAPE
        if (value := getattr(args, flag.replace("-", "_"))) is not None
    }
    if args.preset is None:
        config = chaos.ChaosConfig(
            seed=args.seed,
            **{_CHAOS_SHAPE[flag]: v for flag, v in shape.items()},
        )
    elif shape:
        print(f"error: --{args.preset} fixes the campaign's shape; it "
              "cannot be combined with "
              + ", ".join(f"--{flag}" for flag in shape))
        return 1
    else:
        config = chaos.preset(args.preset, args.seed)
    if args.spans:
        from dataclasses import replace

        config = replace(config, causal_spans=True)

    report = chaos.run_campaign(config, trace_path=args.trace)
    if args.trace:
        print(f"campaign trace written to {args.trace}")
    print(f"chaos campaign (seed={config.seed}): "
          f"{len(report.outcomes)} applications, "
          f"{report.injection_events} fault events, "
          f"{report.detections} detections "
          f"({report.false_positives} false positives)")
    if config.speculation:
        print(f"  speculation: {report.speculative_launches} backups "
              f"launched, {report.speculative_wins} won, "
              f"{report.speculative_wasted_s:.2f}s wasted; "
              f"quarantined: {report.quarantined_hosts or 'none'}")
    if config.storm_apps:
        print(f"  overload: {report.sheds} sheds, "
              f"peak queue {report.peak_queued}/"
              f"{chaos.STORM_MAX_QUEUED}, "
              f"{report.brownout_shifts} brownout shifts, "
              f"{report.breaker_transitions} breaker transitions "
              f"({report.breaker_fast_fails} fast-fails)")
    if report.integrity:
        integ = report.integrity
        print(f"  integrity: {integ['corruptions_detected']} corruptions "
              f"detected, {integ['refetches']} refetches, "
              f"{integ['regenerations']} regenerations, "
              f"{integ['poisoned']} poisoned, "
              f"{integ['artifacts_lost']} artifacts lost "
              f"({integ['dirty_consumptions']} dirty consumptions)")
    if config.n_churn_hosts and report.membership is not None:
        member = report.membership
        counts = Counter(t["transition"] for t in member["transitions"])
        print(f"  membership: {len(member['targets'])} churn targets, "
              f"{counts.get('drain', 0)} drains, "
              f"{counts.get('depart', 0)} departures, "
              f"{counts.get('rejoin', 0)} rejoins; "
              f"{member['drain_affected_tasks']} tasks evicted/re-placed")
    for name in sorted(report.outcomes):
        outcome = report.outcomes[name]
        line = f"  {name}: {outcome['status']}"
        if outcome["status"] == "completed":
            if "reschedules" in outcome:
                line += (f" (makespan {outcome['makespan_s']:.2f}s, "
                         f"{outcome['reschedules']} reschedules, "
                         f"{outcome['transfer_retries']} transfer retries)")
            else:
                line += f" (makespan {outcome['makespan_s']:.2f}s)"
        else:
            line += f" ({outcome.get('error', '?')})"
        print(line)

    def hashes_of(run):
        return {"trace": run.trace_hash, "metrics": run.metrics_hash,
                "campaign": run.campaign_hash()}

    hashes = hashes_of(report)
    if args.check_determinism:
        same = hashes_of(chaos.run_campaign(config)) == hashes
        print(f"determinism: {'byte-identical' if same else 'MISMATCH'}")
        if not same:
            report.violations.append(
                "I3: second run of the same config produced different hashes"
            )

    if args.log and not _write_text(args.log, _json_text(report.to_dict()),
                                    "campaign log"):
        return 1
    if args.hashes and not _write_text(args.hashes, _json_text(hashes),
                                       "hashes"):
        return 1

    print(f"trace hash:    {report.trace_hash}")
    print(f"campaign hash: {hashes['campaign']}")
    if report.violations:
        print(f"\n{len(report.violations)} invariant violation(s):")
        for violation in report.violations:
            print(f"  {violation}")
        return 1
    print("all invariants held")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="VDCE — A Global Computing Environment for Networked "
                    "Resources (Topcuoglu & Hariri, ICPP 1997), reproduced.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("libraries", help="list the task-library menus")

    run = sub.add_parser("run", help="submit a built-in application")
    run.add_argument("application",
                     help="linear-solver | figure1 | c3i | dsp | random-dag")
    run.add_argument("--sites", type=int, default=2)
    run.add_argument("--hosts", type=int, default=4)
    run.add_argument("--k", type=int, default=1,
                     help="nearest remote sites joining the schedule")
    run.add_argument("--scale", type=float, default=0.3)
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--gantt", action="store_true")
    run.add_argument("--report", action="store_true",
                     help="print the full execution report")
    run.add_argument("--monitoring", action="store_true",
                     help="start monitor daemons + echo loops first")
    run.add_argument("--trace", metavar="PATH",
                     help="record a structured event trace with causal "
                          "spans to PATH (JSONL) and print its summary + "
                          "content hash; 'repro explain' reads it")
    run.add_argument("--metrics", metavar="PATH",
                     help="record a metrics snapshot to PATH (canonical "
                          "JSON) and print its content hash")
    run.add_argument("--max-concurrent", type=int, default=None,
                     help="submit through the priority admission queue, "
                          "at most N applications executing at once")
    run.add_argument("--repeat", type=int, default=1,
                     help="with --max-concurrent: submit N copies of the "
                          "application to exercise queueing")
    run.add_argument("--max-queued", type=int, default=None,
                     help="with --max-concurrent: bound the admission "
                          "queue; overflow is shed deterministically")
    run.add_argument("--deadline", type=float, default=None,
                     help="with --max-concurrent: per-application deadline "
                          "(seconds); expired-in-queue submissions fail")
    run.add_argument("--ttl", type=float, default=None,
                     help="with --max-concurrent: in-queue time-to-live "
                          "(seconds) applied to every submission")
    run.add_argument("--journal", metavar="DIR",
                     help="checkpoint the application to DIR (meta.json + "
                          "repos/ + journal.jsonl); resume later with "
                          "'repro resume DIR'")

    mon = sub.add_parser("monitor", help="run the control plane alone")
    mon.add_argument("--sites", type=int, default=2)
    mon.add_argument("--hosts", type=int, default=3)
    mon.add_argument("--duration", type=float, default=60.0)
    mon.add_argument("--seed", type=int, default=0)
    mon.add_argument("--metrics", metavar="PATH",
                     help="record a metrics snapshot to PATH (canonical "
                          "JSON) and print its content hash")

    met = sub.add_parser("metrics",
                         help="print a metrics snapshot (Prometheus or JSON)")
    met.add_argument("snapshot", nargs="?",
                     help="a snapshot file written by --metrics "
                          "(default: run a quick instrumented deployment)")
    met.add_argument("--format", choices=("prom", "json"), default="prom")
    met.add_argument("--sites", type=int, default=2)
    met.add_argument("--hosts", type=int, default=3)
    met.add_argument("--seed", type=int, default=0)

    explain = sub.add_parser(
        "explain",
        help="attribute an application's time from its causal span trace")
    explain.add_argument("trace", nargs="?",
                         help="JSONL trace recorded by run/resume --trace "
                              "or chaos --spans --trace")
    explain.add_argument("--scenario",
                         help="instead of a trace file: re-run this pinned "
                              "scenario (repro.core.scenario.SCENARIOS) with "
                              "spans on and explain it")
    explain.add_argument("--top", type=int, default=5,
                         help="how many slow tasks / busy hosts to list")
    explain.add_argument("--json", metavar="PATH",
                         help="write the canonical attribution report "
                              "(JSON) to PATH")
    explain.add_argument("--hashes", metavar="PATH",
                         help="write the report hash (JSON) to PATH")
    explain.add_argument("--profile", metavar="PATH",
                         help="write the span self-time profile to PATH "
                              "as speedscope-compatible folded stacks")

    ana = sub.add_parser("analyze",
                         help="analyze a saved trace, or diff two")
    ana.add_argument("trace", help="JSONL trace written by run --trace")
    ana.add_argument("trace2", nargs="?",
                     help="second trace: print the structural diff instead "
                          "(exit 2 when the traces differ)")
    ana.add_argument("--modulo", metavar="KIND[,KIND]",
                     help="diff the first trace with these event kinds "
                          "dropped, or these declared moves applied ("
                          "elide_quiet_echoes, elide_repeated_reports), "
                          "and seq renumbered")

    topo = sub.add_parser("topology", help="print the deployment diagram")
    topo.add_argument("--sites", type=int, default=2)
    topo.add_argument("--hosts", type=int, default=4)
    topo.add_argument("--seed", type=int, default=0)

    chaos = sub.add_parser(
        "chaos",
        help="run a randomized fault campaign and check its invariants")
    presets = chaos.add_mutually_exclusive_group()
    from repro.sim.presets import PRESETS

    for flag, fields in PRESETS.items():
        presets.add_argument(f"--{flag}", dest="preset", action="store_const",
                             const=flag, help=fields["doc"])
    chaos.add_argument("--seed", type=int, default=0)
    # shape flags default to None: unset, ChaosConfig's own default applies
    chaos.add_argument("--sites", type=int)
    chaos.add_argument("--hosts", type=int)
    chaos.add_argument("--apps", type=int)
    chaos.add_argument("--duration", type=float)
    chaos.add_argument("--slow-hosts", type=int,
                       help="hosts hit by a scripted slowdown")
    chaos.add_argument("--slowdown-factor", type=float)
    chaos.add_argument("--flap-hosts", type=int,
                       help="hosts flapping between normal and slow")
    chaos.add_argument("--detector", choices=("count", "phi"),
                       help="failure detector the Group Managers use")
    chaos.add_argument("--speculation", action="store_const", const=True,
                       help="enable speculative re-execution of stragglers")
    chaos.add_argument("--health", action="store_const", const=True,
                       help="enable host-health scoring and quarantine")
    chaos.add_argument("--check-determinism", action="store_true",
                       help="run the campaign twice and require "
                            "byte-identical trace/metrics/campaign hashes")
    chaos.add_argument("--log", metavar="PATH",
                       help="write the full campaign report (JSON) to PATH")
    chaos.add_argument("--hashes", metavar="PATH",
                       help="write the trace/metrics/campaign hashes to PATH")
    chaos.add_argument("--spans", action="store_true",
                       help="record causal spans and audit the I9 span "
                            "integrity invariant")
    chaos.add_argument("--trace", metavar="PATH",
                       help="write the campaign's event trace (JSONL) to "
                            "PATH — with --spans, feed it to 'repro explain'")

    sub.add_parser("experiments", help="print the experiment index")

    resume = sub.add_parser(
        "resume",
        help="resume an interrupted application from a checkpoint dir")
    resume.add_argument("directory",
                        help="checkpoint directory written by run --journal "
                             "(meta.json + journal.jsonl + repos/)")
    resume.add_argument("--site",
                        help="submitting site override (default: the "
                             "journalled submit site)")
    resume.add_argument("--limit", type=float, default=None,
                        help="virtual-time limit for the resumed run")
    resume.add_argument("--expect", metavar="PATH",
                        help="JSON file of expected terminal output hashes; "
                             "exit 1 unless the resumed run reproduces them")
    resume.add_argument("--hashes", metavar="PATH",
                        help="write the resumed run's terminal output "
                             "hashes (JSON) to PATH")
    resume.add_argument("--trace", metavar="PATH",
                        help="record the resumed run's event trace with "
                             "causal spans (JSONL) to PATH, for 'repro "
                             "explain'")

    sub.add_parser("selftest", help="quick end-to-end health check")
    sub.add_parser("verify", help="alias for selftest")

    serve = sub.add_parser("serve", help="start the Flask web editor")
    serve.add_argument("--port", type=int, default=8080)
    serve.add_argument("--sites", type=int, default=2)
    serve.add_argument("--hosts", type=int, default=4)
    serve.add_argument("--seed", type=int, default=0)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "libraries": cmd_libraries,
        "run": cmd_run,
        "monitor": cmd_monitor,
        "metrics": cmd_metrics,
        "analyze": cmd_analyze,
        "explain": cmd_explain,
        "chaos": cmd_chaos,
        "topology": cmd_topology,
        "experiments": cmd_experiments,
        "resume": cmd_resume,
        "selftest": cmd_selftest,
        "verify": cmd_selftest,
        "serve": cmd_serve,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
