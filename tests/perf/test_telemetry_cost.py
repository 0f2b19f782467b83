"""Telemetry must cost in proportion to what it records.

Machine-independent gates on the write / encode / read stages of the
telemetry path, and on what a cold process imports:

* reading a trace back is O(n log n): the wait-state sweep used to test
  every interval against every elementary segment (40 000 intervals is
  3 x 10^9 comparisons — minutes), so the bounds below are cliff
  detectors, not stopwatches;
* a cold process loads only what it runs: ``import repro`` is one
  module and no numpy, the trace readers (``repro --help``, ``analyze``,
  ``explain``) load no simulator, ``from repro import VDCE`` none of
  the periphery, and the ``repro experiments`` index no numpy (the
  eager package graph was 92 modules and numpy, 0.4-0.6 s, paid by
  every process; scipy and networkx were once 1.1 s of a 1.3 s
  import);
* a run imports what it draws: numpy is imported by the statement that
  draws a number or computes a payload, so a fault-free shape-only run
  never loads it (14 MB of the 48 MB ``bag_2k`` bench child, when seven
  modules imported it at top level);
* ``Tracer.emit`` converts only the payload values that need it: almost
  every value is already a plain ``str``/``int``/``float``, and sending
  each through ``_jsonify`` was four calls per event;
* ``trace_hash`` encodes through one cached line encoder: going through
  ``JSONEncoder.encode`` built a C encoder per event, and feeding the
  digest one line at a time was one ``update`` per event;
* with telemetry off, an application makes as many (null) emits at 2 048
  tasks as at 512: a null emit with a payload costs ~0.2 us, so an
  unguarded per-task kind would be a per-task cost nobody asked for;
* with spans off and nothing suspended, a task makes no call into a
  span recorder and builds no console-gate generator: each owner keeps
  the no-ops its recorder handed out (an open/close pair through the
  recorder was ~2.5 us per task, DESIGN §13.15);
* with overload, breakers and host health off, a task makes no call into
  their null objects: the brownout's occupancy feed runs once per echo
  round and reads no host, and a request consults no breaker.

This file runs in the ``bench`` CI job, which installs neither scipy nor
Hypothesis.
"""

import ast
import hashlib
import inspect
import json
import os
import subprocess
import sys
import time
from hashlib import sha256
from pathlib import Path

import pytest

import repro
from repro.core import DeploymentSpec
from repro.core.scenario import Scenario, run
from repro.metrics.registry import MetricsRegistry
from repro.net.rpc import NullBreakers
from repro.obs.attribution import CATEGORIES, PRIORITY, _sweep, explain
from repro.obs.spans import NullSpanRecorder, SpanKind, SpanRecorder
from repro.runtime import RuntimeConfig
from repro.runtime.overload import NullBrownout
from repro.runtime.services import ConsoleService
from repro.runtime.straggler import NullHealth
from repro.trace import tracer as tracer_module
from repro.trace.serialize import trace_hash, write_jsonl
from repro.trace.tracer import NullTracer, Tracer
from repro.workloads import RandomDAGConfig, random_dag

from tests.perf.test_events_per_task import run_bag


# -- read: the sweep and explain scale as n log n -----------------------------

def test_sweep_over_40k_intervals_is_not_quadratic():
    n = 40_000
    # overlapping, all nine categories, ~2n distinct boundaries
    intervals = [
        (i * 0.37, i * 0.37 + 1.0 + (i % 11) * 0.53, PRIORITY[i % len(PRIORITY)])
        for i in range(n)
    ]
    window = (5.0, n * 0.37)
    started = time.perf_counter()
    out = _sweep(window, intervals)
    elapsed = time.perf_counter() - started
    assert elapsed < 2.0
    assert list(out) == list(CATEGORIES)
    assert abs(sum(out.values()) - (window[1] - window[0])) < 1e-6


def span_trace(n_tasks: int, width: int = 16):
    """One application of ``n_tasks`` tasks, ``width`` at a time, each
    input_wait -> execute -> stage_out: 4 spans and 8 events per task,
    every span a descendant of the one root window."""
    clock = [0.0]
    tracer = Tracer(clock=lambda: clock[0])
    spans = SpanRecorder(tracer)
    root = spans.root_of("app")
    for wave in range(n_tasks // width):
        t0 = wave * 1.0
        for k in range(width):
            task_id = f"t{wave * width + k}"
            start = t0 + k * 0.01
            clock[0] = start
            task = spans.open(SpanKind.TASK, "app", parent=root, task=task_id)
            wait = spans.open(SpanKind.INPUT_WAIT, "app", parent=task)
            clock[0] = start + 0.1
            spans.close(wait)
            run = spans.open(SpanKind.EXECUTE, "app", parent=task,
                             host=f"h{k}", task=task_id)
            clock[0] = start + 0.7
            spans.close(run)
            out = spans.open(SpanKind.STAGE_OUT, "app", parent=task)
            clock[0] = start + 0.8
            spans.close(out)
            spans.close(task)
    clock[0] = n_tasks / width + 1.0
    spans.close_root("app")
    return tracer.events()


def explain_seconds(n_tasks: int, repeats: int = 3) -> float:
    events = span_trace(n_tasks)
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        report = explain(events)
        best = min(best, time.perf_counter() - started)
    app = report["apps"]["app"]
    assert len(app["tasks"]) == n_tasks
    assert abs(app["breakdown_residual_s"]) < 1e-6
    assert not report["integrity"]["violations"]
    return best


def test_explain_grows_like_n_log_n():
    """4x the tasks: n log n is ~4.4x, the quadratic root sweep ~16x."""
    at_1k = explain_seconds(1024)
    at_4k = explain_seconds(4096)
    assert at_4k < 8.0 * at_1k


# -- cold start: a process loads only what it runs ----------------------------

HEAVYWEIGHTS = {"scipy", "networkx", "flask", "matplotlib"}


def loaded_after(code: str, *argv: str) -> set:
    """The modules a fresh interpreter holds after running ``code``."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    # the checkout root too, so ``code`` may import a test's helpers
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([src, os.path.dirname(src)]))
    child = subprocess.run(
        [sys.executable, "-c",
         code + "\nimport sys; print(' '.join(sorted(sys.modules)))",
         *argv],
        env=env, capture_output=True, text=True, check=True, timeout=120,
    )
    return set(child.stdout.splitlines()[-1].split())


@pytest.mark.gate
def test_import_repro_loads_no_optional_heavyweight():
    """The package root is one module: every name it re-exports is
    imported on first read."""
    loaded = loaded_after("import repro")
    assert {m for m in loaded if m.split(".")[0] == "repro"} == {"repro"}
    assert "numpy" not in loaded
    assert not {m.split(".")[0] for m in loaded} & HEAVYWEIGHTS


@pytest.mark.gate
def test_the_trace_readers_load_no_simulator(tmp_path):
    """``repro --help``, ``analyze`` and ``explain`` read traces: they
    load neither numpy, the kernel nor the runtime."""
    trace = tmp_path / "run.jsonl"
    write_jsonl(traced_run(), str(trace))
    loaded = loaded_after(
        "import contextlib, io, sys\n"
        "from repro.cli import build_parser, main\n"
        "build_parser().format_help()\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert main(['analyze', sys.argv[1]]) == 0\n"
        "    assert main(['explain', sys.argv[1]]) == 0\n"
        "    assert main(['analyze', sys.argv[1], sys.argv[1]]) == 0",
        str(trace))
    assert {"repro.metrics.analysis", "repro.obs.attribution"} <= loaded
    assert not loaded & {"numpy", "repro.sim.kernel", "repro.runtime"}
    assert not {m.split(".")[0] for m in loaded} & HEAVYWEIGHTS


@pytest.mark.gate
def test_the_facade_loads_no_periphery():
    """``from repro import VDCE`` loads none of the periphery (proxy, real
    Data Manager, DSM, baselines, chaos, the experiments): a process
    imports what it runs."""
    loaded = loaded_after("from repro import VDCE")
    assert "repro.core.vdce" in loaded
    assert not loaded & {
        "repro.net.proxy", "repro.runtime.data_manager", "repro.runtime.dsm",
        "repro.scheduler.baselines", "repro.sim.chaos", "repro.experiments",
    }


@pytest.mark.gate
def test_the_experiment_index_loads_no_numpy():
    """``repro experiments`` without ids prints the registry's index: it
    loads the row functions' modules, and runs none of them."""
    loaded = loaded_after(
        "import contextlib, io\n"
        "from repro.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert main(['experiments']) == 0")
    assert "repro.experiments.registry" in loaded
    assert "numpy" not in loaded


# -- a run imports what it draws ----------------------------------------------

@pytest.mark.gate
def test_a_run_that_draws_nothing_loads_no_numpy():
    """A homogeneous bag, scheduled and run fault-free with monitoring
    on, draws no number (``test_rng_streams``) and runs no payload."""
    loaded = loaded_after(
        "from tests.perf.test_events_per_task import run_bag\n"
        "assert run_bag(64).sim.rng_streams == 0")
    assert {"repro.runtime.vdce_runtime", "repro.tasklib.matrix"} <= loaded
    assert "numpy" not in loaded


@pytest.mark.gate
def test_the_facade_and_the_registry_load_no_numpy():
    """The facade and the task registry load no numpy: a run imports what
    it draws."""
    loaded = loaded_after(
        "from repro import VDCE\n"
        "from repro.tasklib import default_registry\n"
        "assert len(default_registry()) > 20")
    assert {"repro.core.vdce", "repro.tasklib.c3i"} <= loaded
    assert "numpy" not in loaded


@pytest.mark.gate
def test_seeded_draws_outside_the_simulator_load_no_numpy():
    """A random DAG, a heterogeneous bag, a random placement and a noisy
    prediction draw from ``repro.pcg64``, and a 64-task random DAG run
    fault-free with monitoring on draws from no simulator stream: none
    of them loads numpy."""
    loaded = loaded_after(
        "from repro.core import DeploymentSpec\n"
        "from repro.core.scenario import Scenario, run\n"
        "from repro.scheduler import PredictionModel, RandomScheduler\n"
        "from repro.workloads import RandomDAGConfig, bag_of_tasks, random_dag\n"
        "from tests.scheduler.conftest import build_federation\n"
        "afg = random_dag(RandomDAGConfig(n_tasks=32, seed=3))\n"
        "bag_of_tasks(n=16, heterogeneity=0.5, seed=2)\n"
        "_, repos, view = build_federation()\n"
        "RandomScheduler(seed=1).schedule(afg, view)\n"
        "repo = repos['alpha']\n"
        "host = repo.resources.all_hosts()[0]\n"
        "PredictionModel(noise=0.3).predict('generic.compute', 1.0, 1, host,\n"
        "                                   repo.task_perf)\n"
        "record = run(Scenario(\n"
        "    DeploymentSpec.grid(2, 4), random_dag,\n"
        "    (('config', RandomDAGConfig(n_tasks=64, width=16, seed=7)),),\n"
        "    k=1))\n"
        "assert len(record.result.records) == 64\n"
        "assert record.runtime.sim.rng_streams == 0")
    assert {"repro.pcg64", "repro.runtime.vdce_runtime",
            "repro.scheduler.baselines"} <= loaded
    assert "numpy" not in loaded


@pytest.mark.gate
def test_a_chaos_campaign_loads_no_numpy():
    """The simulator's named streams are ``repro.pcg64`` streams too: a
    smoke campaign draws its fault plan, failures and losses from them
    and loads no numpy."""
    loaded = loaded_after(
        "from repro.sim.chaos import _play, smoke_config\n"
        "from repro.sim.invariants import INVARIANTS\n"
        "vdce, run = _play(smoke_config(0))\n"
        "assert vdce.sim.rng_streams > 0\n"
        "assert not [p for check in INVARIANTS for p in check(run)]")
    assert {"repro.pcg64", "repro.sim.chaos"} <= loaded
    assert "numpy" not in loaded


@pytest.mark.gate
def test_the_first_payload_loads_numpy():
    """Not vacuous: the statement that computes a matrix payload is the
    one that imports numpy."""
    loaded = loaded_after(
        "import sys\n"
        "from repro.tasklib.matrix import generate_spd\n"
        "assert 'numpy' not in sys.modules\n"
        "generate_spd([], 0.01)")
    assert "numpy" in loaded


def module_level_imports(tree: ast.Module):
    """The modules imported by code that runs when ``tree`` is imported:
    outside function bodies and ``if TYPE_CHECKING:`` blocks."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            continue
        if isinstance(node, ast.If) and ast.unparse(node.test) in {
                "TYPE_CHECKING", "typing.TYPE_CHECKING"}:
            stack.extend(node.orelse)
            continue
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield node.module
        stack.extend(ast.iter_child_nodes(node))


@pytest.mark.gate
def test_no_module_imports_numpy_at_module_level():
    """numpy (and scipy, which imports it) only inside the functions
    that draw or compute."""
    package = Path(repro.__file__).parent
    offenders = sorted(
        f"{path.relative_to(package)}: {name}"
        for path in package.rglob("*.py")
        for name in module_level_imports(ast.parse(path.read_text()))
        if name.split(".")[0] in {"numpy", "scipy"}
    )
    assert offenders == []


# -- write: emit converts only what needs converting --------------------------

def traced_run() -> Tracer:
    """A 64-task traced run with causal spans on, 2 sites x 4 hosts."""
    tracer = Tracer()
    record = run(Scenario(
        DeploymentSpec.grid(2, 4), random_dag,
        (("config", RandomDAGConfig(n_tasks=64, width=16, mean_cost=3.0,
                                    ccr=0.3, seed=7)),),
        k=1, config=RuntimeConfig(causal_spans=True)), tracer)
    assert len(record.result.records) == 64
    return tracer


def test_jsonify_entered_less_than_once_per_event(monkeypatch):
    entered = [0]
    original = tracer_module._jsonify

    def counting(value):
        entered[0] += 1
        return original(value)

    monkeypatch.setattr(tracer_module, "_jsonify", counting)
    events = len(traced_run())
    assert events > 64 * 10
    # recursion into list / dict payloads goes through the wrapper too
    assert 0 < entered[0] < events


# -- encode: one encoder per process, a few digest updates per trace ----------

def test_trace_hash_builds_no_encoder_per_event(monkeypatch):
    """``JSONEncoder.iterencode`` sets up a C encoder on every call: the
    line encoder must not enter it per event, nor feed the digest per
    line."""
    tracer = traced_run()
    events = len(tracer)
    expected = trace_hash(tracer)
    entered, updates = [0], [0]
    iterencode = json.JSONEncoder.iterencode

    def counting_iterencode(self, o, _one_shot=False):
        entered[0] += 1
        return iterencode(self, o, _one_shot)

    class CountingDigest:
        def __init__(self):
            self._digest = sha256()

        def update(self, data):
            updates[0] += 1
            self._digest.update(data)

        def hexdigest(self):
            return self._digest.hexdigest()

    monkeypatch.setattr(json.JSONEncoder, "iterencode", counting_iterencode)
    monkeypatch.setattr(hashlib, "sha256", CountingDigest)
    assert trace_hash(tracer) == expected
    assert events > 1000
    assert entered[0] <= 2
    assert 0 < updates[0] <= events // 1000 + 1


# -- off: an application's emits do not grow with its tasks -------------------

@pytest.mark.gate
def test_telemetry_off_emits_do_not_grow_with_the_bag(monkeypatch):
    """Per-task kinds keep their ``if tracer.enabled:`` (DESIGN §13.7):
    an unguarded one would add a null emit per task, on any machine."""
    emits, folds = [0], []
    emit = NullTracer.emit

    def counting(self, kind, source="", **data):
        emits[0] += 1
        return emit(self, kind, source, **data)

    monkeypatch.setattr(NullTracer, "emit", counting)
    monkeypatch.setattr(MetricsRegistry, "fold",
                        lambda self, *event: folds.append(event))
    per_application = []
    for n_tasks in (512, 2048):
        emits[0] = 0
        run_bag(n_tasks)
        per_application.append(emits[0])
    assert 0 < per_application[0] == per_application[1]
    assert not folds


@pytest.mark.gate
def test_spans_off_and_no_suspension_cost_no_call_per_task(monkeypatch):
    """Off costs nothing per task (DESIGN §13.15): every method of both
    span recorders and the console gate are counted across a bag run."""
    calls, generators = [0], [0]

    def counting(method):
        def wrapper(*args, **kwargs):
            calls[0] += 1
            return method(*args, **kwargs)
        return wrapper

    for cls in (SpanRecorder, NullSpanRecorder):
        for name, member in list(vars(cls).items()):
            if callable(member) and not name.startswith("__"):
                monkeypatch.setattr(cls, name, counting(member))
    gate = ConsoleService.wait_if_suspended

    def counting_gate(self, application):
        waits = gate(self, application)
        generators[0] += inspect.isgenerator(waits)
        return waits

    monkeypatch.setattr(ConsoleService, "wait_if_suspended", counting_gate)
    per_application = []
    for n_tasks in (512, 2048):
        calls[0] = 0
        run_bag(n_tasks)
        per_application.append(calls[0])
    assert 0 < per_application[0] == per_application[1]
    assert generators[0] == 0


@pytest.mark.gate
def test_overload_health_and_breakers_off_cost_no_call_per_task(monkeypatch):
    """Off is a null object, not a ``None`` test (DESIGN §5 decision 14),
    and it adds no per-task call: across a bag run every method of the
    null brownout, health and breakers is counted.  The brownout's
    occupancy feed is called once per echo round and reads no host; a
    request consults no null breaker; nothing else is called per task."""
    calls = {}

    def counting(name, method):
        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return method(*args, **kwargs)
        return wrapper

    for cls in (NullBrownout, NullHealth, NullBreakers):
        for name, member in list(vars(cls).items()):
            if callable(member) and not name.startswith("__"):
                monkeypatch.setattr(
                    cls, name, counting(f"{cls.__name__}.{name}", member)
                )
    per_application = []
    for n_tasks in (512, 2048):
        calls.clear()
        rt = run_bag(n_tasks)
        rounds = sum(
            gm.echoes // len(gm.group) for gm in rt.group_managers.values()
        )
        assert calls.pop("NullBrownout.observe_round") == rounds > 0
        per_application.append(dict(calls))
    assert per_application[0] == per_application[1]
