"""The runtime's shape: short functions, one copy of each step, one "off".

``runtime/execution.py`` and the control plane around it (``net/rpc.py``,
``vdce_runtime.py``, ``group_manager.py``, ``admission.py``,
``site_manager.py``, ``membership.py``) grew by accretion — each
fault-tolerance feature brought its own replacement walk, back-off
loop, refetch accounting, notification block and on/off forks.  They
are one of each now (DESIGN §5 decisions 12 and 14); this gate keeps a
second copy, or a second way to switch a channel off, from arriving
with the next feature.  The layers under and beside the runtime —
``sim/``, ``repository/`` and telemetry (``trace/``, ``metrics/``,
``obs/``) — are held to one of each the same way.  AST-based, like the
campaign size gate.
"""

import ast
from pathlib import Path

import pytest

import repro
from repro.net import rpc
from repro.runtime import (
    admission,
    execution,
    group_manager,
    membership,
    site_manager,
    vdce_runtime,
)

pytestmark = pytest.mark.gate

GATED = (execution, rpc, vdce_runtime, group_manager, admission,
         site_manager, membership)


def tree_of(module):
    return ast.parse(Path(module.__file__).read_text())


EXECUTION = tree_of(execution)
SRC = Path(repro.__file__).parent
#: every module of the package, and those outside obs/ (where the span
#: recorder lives and may look at itself)
ALL = {path: ast.parse(path.read_text()) for path in sorted(SRC.rglob("*.py"))}
OUTSIDE_OBS = [
    tree for path, tree in ALL.items() if "obs" not in path.relative_to(SRC).parts
]


def calls(trees, name):
    """Call sites of ``name(...)`` or ``<anything>.name(...)``."""
    return [
        node
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and getattr(node.func, "attr", getattr(node.func, "id", None)) == name
    ]


def functions(tree):
    """``(qualified name, node)`` of every function, methods by class."""
    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                name = f"{prefix}{child.name}"
                if not isinstance(child, ast.ClassDef):
                    yield name, child
                yield from walk(child, f"{name}.")
            else:
                yield from walk(child, prefix)
    return walk(tree, "")


def is_none_test(node, names):
    """``<x> is None`` / ``<x> is not None`` with ``<x>`` named by ``names``."""
    return (
        isinstance(node, ast.Compare)
        and isinstance(node.ops[0], (ast.Is, ast.IsNot))
        and isinstance(node.comparators[0], ast.Constant)
        and node.comparators[0].value is None
        and names(getattr(node.left, "attr", getattr(node.left, "id", "")))
    )


def flag_reads(trees, owner):
    """Reads of ``<owner>.enabled`` / ``<x>.<owner>.enabled``."""
    return [
        node for tree in trees for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "enabled"
        and getattr(node.value, "attr", getattr(node.value, "id", ""))
        == owner
    ]


def test_no_function_outgrows_a_screenful():
    # constructors included; a nested function's lines count towards
    # its parent too
    too_long = {
        f"{module.__name__}:{name}": node.end_lineno - node.lineno + 1
        for module in GATED
        for name, node in functions(tree_of(module))
        if node.end_lineno - node.lineno + 1 > 80
    }
    assert not too_long


def test_each_recovery_mechanism_has_one_call_site():
    assert len(calls([EXECUTION], "reselect_host")) == 1   # replacement walk
    assert len(calls([EXECUTION], "TaskAssignment")) == 1  # rebind
    assert len(calls([EXECUTION], "backoff")) == 1         # outage back-off
    everything = list(ALL.values())
    assert len(calls(everything, "note_refetch")) == 1     # refetch ladder
    assert len(calls(everything, "note_corruption")) == 1  # verification


def test_integrity_is_chosen_once():
    # NULL_INTEGRITY is the only "off": VDCERuntime reads the config
    # once, and nobody afterwards asks whether there is a manager (or
    # its ledger) — ChaosReport.integrity, a report field, is read
    # truthily.  scheduler/ is not asked: its CommitmentLedger is
    # another ledger, switched off by the E13 ablation.
    forks = [
        (path.relative_to(SRC).as_posix(), ast.unparse(node.left))
        for path, tree in ALL.items()
        if path.relative_to(SRC).as_posix() != "runtime/integrity.py"
        and path.relative_to(SRC).parts[0] != "scheduler"
        for node in ast.walk(tree)
        if is_none_test(
            node, lambda name: name.endswith(("integrity", "ledger"))
        )
    ]
    assert forks == [("runtime/vdce_runtime.py", "config.data_integrity")]


def delegation_chain(gen):
    """Function names down a generator's ``yield from`` chain."""
    names = []
    while gen is not None:
        names.append(gen.gi_code.co_name)
        gen = gen.gi_yieldfrom
    return names


def test_an_unverified_delivery_delegates_straight_to_its_transfer():
    """With integrity off a delivering process pays no wrapper frame:
    while its payload is in flight it is suspended directly inside
    ``_transfer_with_retry`` (DESIGN §16.3)."""
    from tests.runtime.conftest import build_runtime, chain_afg
    from tests.runtime.test_integrity import cross_site_table

    rt = build_runtime()
    processes = {}
    spawn, transfer = rt.sim.process, rt.topology.network.transfer

    def process(gen, name=""):
        processes[name] = spawn(gen, name=name)
        return processes[name]

    chains = []

    def probed_transfer(*args, label, **kwargs):
        # the delivering process yields the transfer's signal before
        # anything else runs at this instant
        delivering = processes.get(f"xfer:{label}")
        if delivering is not None:  # a dataflow delivery
            rt.sim.call_at(rt.sim.now, lambda: chains.append(
                delegation_chain(delivering.gen)
            ))
        return transfer(*args, label=label, **kwargs)

    rt.sim.process = process
    rt.topology.network.transfer = probed_transfer
    afg = chain_afg(n=3)
    table = cross_site_table(afg, [("alpha", "a1"), ("beta", "b1")])
    rt.sim.run_until_complete(rt.execute_process(afg, table))
    assert chains == [["_deliver_output", "_transfer_with_retry"]] * 2


def test_the_source_string_is_spelled_once():
    app_literals = [
        node for node in ast.walk(EXECUTION)
        if isinstance(node, ast.JoinedStr)
        and isinstance(node.values[0], ast.Constant)
        and str(node.values[0].value).startswith("app:")
    ]
    assert len(app_literals) == 1


def test_spans_are_guarded_by_their_parent_not_by_a_flag():
    # NULL_SPAN is the only "off": the runtime picks its recorder from
    # the config, and nobody afterwards asks a recorder whether it is on
    # or a span whether it is real
    none_tests = [
        node for tree in OUTSIDE_OBS for node in ast.walk(tree)
        if is_none_test(node, lambda name: name.endswith("span"))
    ]
    id_tests = [
        node for tree in OUTSIDE_OBS for node in ast.walk(tree)
        if isinstance(node, ast.Compare)
        and getattr(node.left, "attr", None) == "span_id"
    ]
    assert not flag_reads(OUTSIDE_OBS, "spans")
    assert not none_tests and not id_tests


#: collaborators a deployment switches off by a null object (or, for the
#: journal and the ratio history, by the one switch that built them)
OPT_IN = ("brownout", "health", "breaker", "breakers", "ratio_tracker",
          "tracker", "policy", "journal")
#: the ``None`` tests on them that stay, per function: the breaker
#: registry's dictionary miss; the per-pair breaker a request resolves
#: once (None on a same-site pair and with breakers off, so an attempt
#: makes no breaker call), at most one test in each step; the
#: deployment's construction choices; the journal's one question
NONE_TESTS_KEPT = {
    ("net/rpc.py", "BreakerRegistry.of"): 1,
    ("net/rpc.py", "ControlPlane.request"): 1,
    ("net/rpc.py", "ControlPlane._attempt"): 1,
    ("net/rpc.py", "ControlPlane._settle"): 1,
    ("runtime/vdce_runtime.py", "VDCERuntime.__init__"): 2,
    ("runtime/execution.py", "ExecutionCoordinator._journaling"): 1,
}


def none_tests_by_function(names):
    """``(module path under src/repro, innermost function)`` -> count of
    ``is (not) None`` tests on a name in ``names``, over the package."""
    counts = {}
    for path, tree in ALL.items():
        owner = {}
        for name, function in functions(tree):  # outer before inner
            for node in ast.walk(function):
                owner[id(node)] = name
        for node in ast.walk(tree):
            if is_none_test(node, lambda n: n in names):
                key = (path.relative_to(SRC).as_posix(), owner.get(id(node), ""))
                counts[key] = counts.get(key, 0) + 1
    return counts


def test_collaborators_every_deployment_passes_are_not_optional():
    """Brownout, breakers, host health, the admission policy, the ratio
    history and the journal are each switched off once, where the
    deployment is wired; a reader calls the object it holds (27 ``None``
    tests across 8 modules before the null objects, 7 since)."""
    assert not [
        node for node in ast.walk(tree_of(rpc))
        if is_none_test(node, lambda name: name == "stats")
    ]
    kept = none_tests_by_function(OPT_IN)
    assert {
        key: count for key, count in kept.items()
        if count > NONE_TESTS_KEPT.get(key, 0)
    } == {}
    assert sum(kept.values()) <= 7
    assert not [
        node for tree in ALL.values() for node in calls([tree], "getattr")
        if len(node.args) > 1
        and getattr(node.args[1], "value", None) == "brownout"
    ]


def test_the_detector_is_chosen_once():
    manager = tree_of(group_manager)
    in_constructor = {
        id(node) for node in ast.walk(dict(functions(manager))[
            "GroupManager.__init__"])
    }
    forks = [
        node for node in ast.walk(manager)
        if isinstance(node, ast.Compare)
        and getattr(node.left, "attr", getattr(node.left, "id", ""))
        == "detector"
    ]
    assert len(forks) == 1 and id(forks[0]) in in_constructor


def test_each_control_plane_step_has_one_copy():
    everything = list(ALL.values())
    # per-host wiring, at deployment and at every (re)join
    assert len(calls(everything, "MonitorDaemon")) == 1
    assert len(calls(everything, "AppController")) == 1
    # failure / recovery notification
    manager = tree_of(group_manager)
    for kind in ("FAILURE_NOTIFICATION", "RECOVERY_NOTIFICATION"):
        assert len([
            node for node in ast.walk(manager)
            if isinstance(node, ast.Attribute) and node.attr == kind
        ]) == 1
    assert len(calls([manager], "notify_lan")) == 1
    # queue eviction (``self._heap.remove``)
    assert len(calls([tree_of(admission)], "remove")) == 1
    # schedule -> execute: VDCERuntime.run_process, and the chaos
    # harness (which needs the coordinator handle)
    assert len(calls(everything, "schedule_process")) == 2


def test_the_race_shares_a_record_not_boxes():
    names = {
        node.id for node in ast.walk(EXECUTION) if isinstance(node, ast.Name)
    } | {
        node.arg for node in ast.walk(EXECUTION) if isinstance(node, ast.arg)
    }
    assert not [name for name in names if name.endswith("_box")]
    (timer,) = [
        node for node in ast.walk(EXECUTION)
        if isinstance(node, ast.FunctionDef)
        and node.name == "_speculation_timer"
    ]
    args = timer.args
    assert len(args.posonlyargs + args.args + args.kwonlyargs) <= 5


# -- what lies under the runtime: sim/ and repository/ -------------------------

def test_the_simulator_has_one_fair_share_server():
    """``Host`` and ``Link`` subclass ``FairShareServer`` (DESIGN §5
    decision 15): a second settle loop, re-timing or stall threshold
    under ``sim/`` is a second server."""
    sim = [tree for path, tree in ALL.items()
           if path.relative_to(SRC).parts[0] == "sim"]
    defined = [name.rsplit(".", 1)[-1]
               for tree in sim for name, _node in functions(tree)]
    for name in ("_settle", "_reschedule_completion"):
        assert defined.count(name) == 1
    assert len([
        node for tree in sim for node in ast.walk(tree)
        if isinstance(node, ast.Assign)
        and any(getattr(t, "id", None) == "_MIN_RATE" for t in node.targets)
    ]) == 1


def test_the_kernel_has_one_trace_channel():
    """Events go through the ``Tracer``; the pre-tracer ``Simulator.trace``
    log and its call sites are gone."""
    for path in ALL:
        text = path.read_text()
        for gone in ("enable_trace", "trace_log", ".sim.trace("):
            assert gone not in text, f"{gone} in {path}"


def test_the_repository_has_one_derived_table():
    assert not (SRC / "repository" / "predict_cache.py").exists()


# -- telemetry: trace/, metrics/ and obs/ -------------------------------------

def test_one_span_mechanism_and_one_of_each_trace_reader():
    """Causal spans are the only spans (DESIGN §5 decision 16): the
    tracer's own begin/end pair, its event kinds, the second trace diff
    and the private interval unions are gone, and ``obs/`` pairs span
    events in one loop — the forest, I9 and the phase table read it."""
    for path in ALL:
        text = path.read_text()
        for gone in ("begin_span", "end_span", "SPAN_BEGIN", "SPAN_END",
                     ".tracer.span(", "diff_traces", "_union_length"):
            assert gone not in text, f"{gone} in {path}"
    obs = [tree for path, tree in ALL.items()
           if path.relative_to(SRC).parts[0] == "obs"]
    pairing_loops = [
        node for tree in obs for node in ast.walk(tree)
        if isinstance(node, ast.For)
        and any(isinstance(n, ast.Attribute) and n.attr == "SPAN_OPEN"
                for n in ast.walk(node))
    ]
    assert len(pairing_loops) == 1


# -- a moment is one call: emit unguarded unless the kind is per task ---------

#: kinds that fire per task, transfer, process or host-period: the only
#: emits an ``if tracer.enabled:`` may guard (DESIGN §13.7)
HOT_KINDS = {
    "MONITOR_REPORT", "WORKLOAD_SUPPRESS", "WORKLOAD_FORWARD", "ECHO",
    "PROCESS_SPAWN", "PROCESS_FINISH", "SCHEDULE_DECISION", "HOST_BID",
    "TASK_START", "TASK_FINISH", "TASKPERF_UPDATE", "DATA_TRANSFER",
    "CHANNEL_SETUP", "CHANNEL_ACK", "FILE_STAGE", "LOAD_CANCEL",
}


def test_only_per_task_emits_keep_a_guard():
    """Metrics are folds inside ``emit`` (DESIGN §8), so a moment has at
    most one guard, and only where the off path would pay per task."""
    reads = flag_reads(ALL.values(), "tracer")
    assert len(reads) <= 21
    guarded = [
        node for tree in ALL.values() for node in ast.walk(tree)
        if isinstance(node, ast.If) and any(node.test is r for r in reads)
    ]
    for node in guarded:
        kinds = {
            n.attr for n in ast.walk(node)
            if isinstance(n, ast.Attribute)
            and getattr(n.value, "id", "") == "EventKind"
        }
        assert kinds and kinds <= HOT_KINDS, (node.lineno, kinds)
    outside_metrics = [
        tree for path, tree in ALL.items()
        if path.relative_to(SRC).parts[0] != "metrics"
    ]
    assert len(flag_reads(outside_metrics, "metrics")) <= 12
