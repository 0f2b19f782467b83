"""The monitor's two dirty marks are complete (DESIGN §13.9).

A clean daemon counts its report without reading its host or asking its
Group Manager (``runtime/monitor.py``), on the strength of two counters:
the host's ``epoch`` and the host's filter mark at its manager.  That is
exact only while every change that can move the reading, the up/down
state or the LAN delay moves the first, and every change that can alter
a repeat's fate at delivery moves the second.  This AST gate holds the
writers to it:

* in ``sim/host.py`` and ``sim/fair_share.py``, every method that
  assigns ``bg_load``, ``state``, ``slowdown`` or ``_resident_mb``, or
  changes ``_running`` (``.append``, ``.remove``, rebinding), bumps
  ``self.epoch`` — itself, or, when all it does is ``.remove`` a slice
  that completed, through ``Host._on_finish``, the hook it then runs;
* every ``GroupManager`` method that changes ``alive``,
  ``_last_forwarded`` or ``_believed_up`` calls ``self._bump``.

Constructors set the initial state and are exempt.
"""

import ast
from pathlib import Path

import pytest

from repro.runtime import group_manager
from repro.sim import fair_share, host

pytestmark = pytest.mark.gate

HOST_FIELDS = {"bg_load", "state", "slowdown", "_resident_mb", "_running"}
FILTER_FIELDS = {"alive", "_last_forwarded", "_believed_up"}
#: container methods that change their receiver
MUTATING = {"append", "remove", "insert", "extend", "pop", "popitem",
            "clear", "update", "setdefault"}


def methods(module):
    """``(Class.method, node)`` of every method but the constructors."""
    tree = ast.parse(Path(module.__file__).read_text())
    for cls in tree.body:
        if isinstance(cls, ast.ClassDef):
            for node in cls.body:
                if isinstance(node, ast.FunctionDef) and node.name != "__init__":
                    yield f"{cls.name}.{node.name}", node


def self_attr(node):
    """``name`` for ``self.name``, else None."""
    if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == "self"):
        return node.attr
    return None


def targets(node):
    """Fields of ``self`` an assignment target writes (or deletes)."""
    if isinstance(node, (ast.Tuple, ast.List)):
        for element in node.elts:
            yield from targets(element)
    elif isinstance(node, ast.Starred):
        yield from targets(node.value)
    elif isinstance(node, ast.Subscript):
        yield self_attr(node.value)
    else:
        yield self_attr(node)


def writes(function):
    """``(field, how)`` for every write to a field of ``self``: ``how`` is
    ``"="`` for an assignment, augmented assignment, deletion or item
    store, else the name of the mutating method called on it."""
    found = set()
    for node in ast.walk(function):
        if isinstance(node, (ast.Assign, ast.Delete)):
            for target in node.targets:
                found.update((field, "=") for field in targets(target))
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            found.update((field, "=") for field in targets(node.target))
        elif (isinstance(node, ast.Call)
              and isinstance(node.func, ast.Attribute)
              and node.func.attr in MUTATING):
            found.add((self_attr(node.func.value), node.func.attr))
    return {(field, how) for field, how in found if field is not None}


def calls_self(function, name):
    return any(
        isinstance(node, ast.Call) and self_attr(node.func) == name
        for node in ast.walk(function)
    )


def bumps_epoch(function):
    return any(
        isinstance(node, ast.AugAssign) and self_attr(node.target) == "epoch"
        for node in ast.walk(function)
    )


def test_every_change_to_a_reading_bumps_the_host_epoch():
    found = dict(methods(host)) | dict(methods(fair_share))
    changes = {name: {(field, how) for field, how in writes(fn)
                      if field in HOST_FIELDS}
               for name, fn in found.items()}
    writers = {name for name, change in changes.items() if change}
    assert writers >= {
        "Host.execute", "Host.cancel", "Host._on_finish", "Host.set_bg_load",
        "Host.set_slowdown", "Host.fail", "Host.recover",
        "FairShareServer._tick",
    }
    # the hook a completed slice runs bumps the epoch itself
    assert bumps_epoch(found["Host._on_finish"])
    unbumped = sorted(
        name for name in writers
        if not bumps_epoch(found[name])
        and not (changes[name] == {("_running", "remove")}
                 and calls_self(found[name], "_on_finish"))
    )
    assert unbumped == [], unbumped


def test_every_change_to_a_repeats_fate_bumps_the_filter_mark():
    found = {name: fn for name, fn in methods(group_manager)
             if name.startswith("GroupManager.")}
    writers = {name for name, fn in found.items()
               if any(field in FILTER_FIELDS for field, _ in writes(fn))}
    assert writers >= {
        f"GroupManager.{name}" for name in (
            "admit_host", "retire_host", "crash", "_restart",
            "receive_measurement", "_declare")
    }
    unbumped = sorted(
        name for name in writers if not calls_self(found[name], "_bump"))
    assert unbumped == [], unbumped
