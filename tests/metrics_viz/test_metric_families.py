"""Metric families: one name, one writer, one shape.

A counter family is unlabelled or labelled, never both.

``RuntimeStats.export_to`` writes every stats field as an unlabelled
``vdce_<field>_total``.  A call site that counts the same thing per
group or per host into that family as well makes Prometheus ``sum()``
report each event twice, so it keeps its own ``*_by_group_total`` /
``*_by_host_total`` family.  The smoke campaign fails a Group Manager
over and the slowdown campaign launches speculative backups, so both
labelled families are non-zero here.

A family of a traced moment is an entry of the fold table, spelled once;
the few written directly are a pinned list of functions.
"""

import ast
import re
from collections import Counter
from pathlib import Path

import pytest

import repro
from repro.metrics.folds import FOLDS
from repro.runtime.stats import RuntimeStats
from repro.sim.chaos import _play, preset
from repro.trace.events import KNOWN_KINDS, EventKind

from tests.runtime.test_execution_shape import functions
from tests.sim._scripted import host_fault

pytestmark = pytest.mark.gate


@pytest.mark.parametrize("name", ["smoke", "slowdown-smoke"])
def test_no_counter_family_mixes_an_unlabelled_total_with_labels(name):
    vdce, _run = _play(preset(name, 0))
    counters = vdce.metrics_snapshot()["counters"]
    mixed = {
        family: sorted(entry["values"])
        for family, entry in counters.items()
        if "" in entry["values"] and len(entry["values"]) > 1
    }
    assert mixed == {}
    labelled = {
        "smoke": "vdce_failovers_by_group_total",
        "slowdown-smoke": "vdce_speculative_launches_by_host_total",
    }[name]
    assert sum(counters[labelled]["values"].values()) > 0


# -- a moment is one call: the fold table and its direct-writer exceptions ----

#: the metric writes that have no trace event at that instant (DESIGN §8)
DIRECT_WRITERS = {
    "sim/kernel.py": {"Simulator.attach_metrics", "Simulator.export_metrics"},
    "runtime/vdce_runtime.py": {"VDCERuntime.export_metrics",
                                "VDCERuntime.schedule_process",
                                "VDCERuntime._bid_exchange"},
    "runtime/stats.py": {"RuntimeStats.export_to"},
    "runtime/site_manager.py": {"SiteManager.receive_workload"},
    "runtime/straggler.py": {"HostHealth._export_gauge"},
    "runtime/execution.py": {"ExecutionCoordinator._deliver_output",
                             "ExecutionCoordinator._reschedule"},
    "runtime/data_manager.py": {"LocalDataManager._execute_with_proxies"},
    "scheduler/host_selection.py": {"select_hosts"},
}
SRC = Path(repro.__file__).parent
TREES = {path.relative_to(SRC).as_posix(): ast.parse(path.read_text())
         for path in sorted(SRC.rglob("*.py"))}


def test_every_fold_is_keyed_by_a_known_kind():
    assert set(FOLDS) <= KNOWN_KINDS


def test_each_family_name_is_spelled_once():
    names = Counter(
        node.value for tree in TREES.values() for node in ast.walk(tree)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
        and re.fullmatch(r"(vdce|sim)_[a-z0-9_]+", node.value)
    )
    assert names and {n: c for n, c in names.items() if c > 1} == {}


def test_no_fold_family_collides_with_a_runtime_stats_export():
    stats = {f"vdce_{name}_total" for name in RuntimeStats().as_dict()}
    folded = {fold.name for folds in FOLDS.values() for fold in folds}
    assert folded and not folded & stats


def test_only_the_pinned_direct_writers_touch_a_family_outside_metrics():
    writers = {}
    for path, tree in TREES.items():
        if path.startswith("metrics/"):
            continue
        for name, node in functions(tree):
            if any(isinstance(n, ast.Call) and getattr(n.func, "attr", None)
                   in ("counter", "gauge", "histogram", "series")
                   for n in ast.walk(node)):
                writers.setdefault(path, set()).add(name)
    assert writers == DIRECT_WRITERS


# -- a kind with no fold costs the registry nothing -------------------------

def test_the_registry_is_handed_only_the_kinds_it_folds(monkeypatch):
    """``MetricsRegistry.fold`` runs once per event of a kind in
    :data:`FOLDS` and never for any other, traced or metrics-only — a
    run emits many kinds with no fold (``echo``, lifecycle, RPC), which
    used to reach it all the same."""
    from repro.metrics.registry import MetricsRegistry
    from repro.runtime import RuntimeConfig, VDCERuntime
    from repro.sim import FailureInjector, TopologyBuilder
    from repro.trace.tracer import NULL_TRACER, Tracer
    from repro.workloads import bag_of_tasks

    folded = []
    fold = MetricsRegistry.fold
    monkeypatch.setattr(MetricsRegistry, "fold", lambda self, kind, *rest: (
        folded.append(kind), fold(self, kind, *rest)))

    def run(tracer):
        builder = TopologyBuilder(seed=0)
        for s in range(2):
            builder.site(f"site-{s}", hosts=[
                (f"s{s}-h{h}", 1.0 + h, 256) for h in range(4)])
        rt = VDCERuntime(builder.build(), config=RuntimeConfig(),
                         tracer=tracer, metrics=MetricsRegistry())
        rt.start_monitoring()
        injector = FailureInjector(rt.sim)
        host_fault(injector, rt.topology.host("s1-h1"), 3.0, "down")
        host_fault(injector, rt.topology.host("s1-h1"), 13.0, "up")
        rt.sim.run_until_complete(rt.sim.process(rt.run_process(
            bag_of_tasks(n=24, cost=4.0, seed=0), execute_payloads=False)))
        kinds = folded[:]
        folded.clear()
        return rt, kinds

    traced, by_trace = run(Tracer())
    emitted = [e.kind for e in traced.tracer]
    assert {EventKind.ECHO, EventKind.PROCESS_SPAWN} <= set(emitted) - set(FOLDS)
    assert by_trace == [kind for kind in emitted if kind in FOLDS] != []
    _, metrics_only = run(NULL_TRACER)
    assert metrics_only == by_trace
