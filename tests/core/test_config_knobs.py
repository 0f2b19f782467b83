"""The knob gate: every settable value of a config has a caller.

A defaulted field of a ``*Config`` / ``*Policy`` dataclass under
``src/repro`` is an option, and each independent option doubles the
configurations a test must cover.  This gate scans every module under
``src/``, ``benchmarks/``, ``examples/``, ``bench/`` and ``tests/`` and
asserts that each such field is set at least once outside its own class
body.  A setter is

* a keyword argument of that name — a constructor, ``dataclasses.
  replace``, a helper that forwards to one, or a preset ``dict(...)``
  such as ``repro.sim.chaos.PRESETS``;
* a string value of ``cli._CHAOS_SHAPE``, which maps ``repro chaos``
  flags onto ``ChaosConfig`` fields.

A value no caller sets is a module constant beside the code that reads
it (DESIGN §5, decision 17).  The total is pinned too, so a new option
is a decision the diff shows.

Every numeric settable value also refuses NaN and both infinities at
construction, unless it is listed in ``UNBOUNDED``.
"""

import ast
import dataclasses
import functools
import importlib
import math
import re
from pathlib import Path
from typing import Dict, List, Set, Tuple

import pytest

pytestmark = pytest.mark.gate

ROOT = Path(__file__).resolve().parents[2]
SCANNED = ("src", "benchmarks", "examples", "bench", "tests")
#: defaulted fields over every config dataclass (DESIGN §5, decision 17)
SETTABLE_VALUES = 103


def _is_config_dataclass(node: ast.AST) -> bool:
    if not (isinstance(node, ast.ClassDef)
            and node.name.endswith(("Config", "Policy"))):
        return False
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return True
    return False


def _modules(*roots: str) -> List[Tuple[Path, ast.Module]]:
    return [
        (path, ast.parse(path.read_text(), filename=str(path)))
        for root in roots
        for path in sorted((ROOT / root).rglob("*.py"))
    ]


def config_fields() -> Dict[str, List[str]]:
    """Class name -> its defaulted fields, over ``src/repro``."""
    found: Dict[str, List[str]] = {}
    for _path, tree in _modules("src/repro"):
        for node in ast.walk(tree):
            if _is_config_dataclass(node):
                found[node.name] = [
                    statement.target.id for statement in node.body
                    if isinstance(statement, ast.AnnAssign)
                    and isinstance(statement.target, ast.Name)
                    and statement.value is not None
                ]
    return found


def setters() -> Dict[str, Set[str]]:
    """Field name -> the config classes in whose own body every setter
    of that name sits ("" for a setter outside any config class)."""
    found: Dict[str, Set[str]] = {}
    for path, tree in _modules(*SCANNED):
        owner: Dict[int, str] = {}
        for node in ast.walk(tree):
            if _is_config_dataclass(node):
                for inner in ast.walk(node):
                    owner[id(inner)] = node.name
        for node in ast.walk(tree):
            if isinstance(node, ast.keyword) and node.arg is not None:
                found.setdefault(node.arg, set()).add(owner.get(id(node), ""))
            elif (isinstance(node, ast.Assign)
                  and path.name == "cli.py"
                  and any(isinstance(t, ast.Name) and t.id == "_CHAOS_SHAPE"
                          for t in node.targets)):
                for value in node.value.values:
                    found.setdefault(value.value, set()).add("")
    return found


def test_every_settable_value_has_a_caller():
    where = setters()
    unset = [
        f"{cls}.{name}"
        for cls, names in sorted(config_fields().items())
        for name in names
        if not where.get(name, set()) - {cls}
    ]
    assert not unset, (
        f"{len(unset)} config field(s) no caller sets — make each a module "
        f"constant beside its reader: {', '.join(unset)}"
    )


def test_the_number_of_settable_values_is_pinned():
    fields = config_fields()
    assert len(fields) == 11
    assert sum(len(names) for names in fields.values()) == SETTABLE_VALUES


# -- non-finite numbers ----------------------------------------------------

#: numeric settable values for which ``+inf`` means "unbounded": a lost
#: message is waited out with ``Timeout(inf)``, never retried
UNBOUNDED = {("RetryPolicy", "timeout_s")}
#: what a valid instance needs besides its defaults
REQUIRED = {"HostConfig": {"name": "h"},
            "SiteConfig": {"name": "s", "n_hosts": 1}}


@functools.lru_cache(maxsize=None)
def numeric_settable_values() -> Tuple[Tuple[type, str], ...]:
    """(class, field) for every settable value typed int or float, or
    Optional of one; no settable value is a container of numbers."""
    settable, found = config_fields(), []
    for path, tree in _modules("src/repro"):
        module = ".".join(path.relative_to(ROOT / "src").with_suffix("").parts)
        for node in filter(_is_config_dataclass, ast.walk(tree)):
            cls = getattr(importlib.import_module(module), node.name)
            found += [(cls, f.name) for f in dataclasses.fields(cls)
                      if f.name in settable[node.name]
                      and re.fullmatch(r"(Optional\[)?(int|float)]?",
                                       str(f.type))]
    return tuple(found)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_a_non_finite_number_is_refused_at_construction(bad):
    cases = numeric_settable_values()
    assert len(cases) == 84
    for cls, name in cases:
        kwargs = {**REQUIRED.get(cls.__name__, {}), name: bad}
        if bad == math.inf and (cls.__name__, name) in UNBOUNDED:
            assert getattr(cls(**kwargs), name) == math.inf
        else:
            with pytest.raises(ValueError):
                cls(**kwargs)
