"""The coordinator's shape: short methods, one copy of each recovery.

``runtime/execution.py`` grew by accretion — each fault-tolerance
feature brought its own replacement walk, back-off loop, refetch
accounting and span guards.  They are one of each now (DESIGN §5
decision 12); this gate keeps a second copy from arriving with the
next feature.  AST-based, like the campaign size gate it borrows
``function_lengths`` from.
"""

import ast
from pathlib import Path

from repro.runtime import execution, integrity

from tests.sim.test_campaign_gate import function_lengths

EXECUTION = ast.parse(Path(execution.__file__).read_text())
BOTH = [EXECUTION, ast.parse(Path(integrity.__file__).read_text())]


def calls(trees, name):
    """Call sites of ``name(...)`` or ``<anything>.name(...)``."""
    return [
        node
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and getattr(node.func, "attr", getattr(node.func, "id", None)) == name
    ]


def test_no_function_outgrows_a_screenful():
    # a nested function's lines count towards its parent too
    too_long = {
        name: n for name, n in function_lengths(execution).items() if n > 80
    }
    assert not too_long


def test_each_recovery_mechanism_has_one_call_site():
    assert len(calls([EXECUTION], "reselect_host")) == 1   # replacement walk
    assert len(calls([EXECUTION], "TaskAssignment")) == 1  # rebind
    assert len(calls([EXECUTION], "backoff")) == 1         # outage back-off
    assert len(calls(BOTH, "note_refetch")) == 1           # refetch ladder


def test_the_source_string_is_spelled_once():
    app_literals = [
        node for node in ast.walk(EXECUTION)
        if isinstance(node, ast.JoinedStr)
        and isinstance(node.values[0], ast.Constant)
        and str(node.values[0].value).startswith("app:")
    ]
    assert len(app_literals) == 1


def test_spans_are_guarded_by_their_parent_not_by_a_flag():
    enabled_tests = [
        node for node in ast.walk(EXECUTION)
        if isinstance(node, ast.Attribute) and node.attr == "enabled"
        and getattr(node.value, "attr", None) == "spans"
    ]
    assert len(enabled_tests) <= 1  # the root decision in _run


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
