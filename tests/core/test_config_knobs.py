"""The knob gate: every settable value of a config has a caller in the
program.

A defaulted field of a ``*Config`` / ``*Policy`` dataclass under
``src/repro`` is an option, and each independent option doubles the
configurations a test must cover.  An option earns its place only when
the program sets it, so this gate walks ``src/`` and ``bench/`` —
never tests or examples — and asserts that each such field has a
setter *bound to its class*, outside that class's own body:

* a keyword of a call to the class (``RuntimeConfig(echo_period_s=…)``);
* a keyword of ``dataclasses.replace``, bound to every config class
  that has all of the call's keywords as fields;
* a keyword of a call to a ``src/`` helper that forwards its
  ``**kwargs`` to the class (or to another such helper);
* a key of a ``sim/presets.PRESETS`` entry (``**`` splats of the
  module's shared ``dict(...)`` bases included), bound to
  ``ChaosConfig``;
* a value of ``cli._CHAOS_SHAPE``, which maps ``repro chaos`` flags onto
  ``ChaosConfig`` fields.

A keyword of the same name on another class's call does not count.  A
value no caller sets is a module constant beside the code that reads it
(DESIGN §5, decision 17).  The totals are pinned too, so a new option
is a decision the diff shows, and DESIGN §5's knob table is this walk
rendered.

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

from tests.core._program import ROOT, modules

pytestmark = pytest.mark.gate

#: the program: tests and examples are not callers
SCANNED = ("src", "bench")
#: defaulted fields over every config dataclass (DESIGN §5, decision 17)
SETTABLE_VALUES = 75
CONFIG_CLASSES = 7
#: the table columns, in order, and the paths each covers
COLUMNS = ("src", "experiments + bench", "CLI")


def _is_config_dataclass(node: ast.AST) -> bool:
    if not (isinstance(node, ast.ClassDef)
            and node.name.endswith(("Config", "Policy"))):
        return False
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return True
    return False


@functools.lru_cache(maxsize=None)
def config_fields() -> Dict[str, List[str]]:
    """Class name -> its defaulted fields, over ``src/repro``."""
    found: Dict[str, List[str]] = {}
    for module in modules("src/repro"):
        for node in module.nodes:
            if _is_config_dataclass(node):
                found[node.name] = [
                    statement.target.id for statement in node.body
                    if isinstance(statement, ast.AnnAssign)
                    and isinstance(statement.target, ast.Name)
                    and statement.value is not None
                ]
    return found


def _column(path: Path) -> str:
    relative = path.relative_to(ROOT).as_posix()
    if relative == "src/repro/cli.py":
        return "CLI"
    if relative.startswith(("src/repro/experiments/", "bench/")):
        return "experiments + bench"
    return "src"


def _callee(call: ast.Call) -> str:
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return ""


def _forwarders(fields: Dict[str, List[str]]) -> Dict[str, Set[str]]:
    """Helper name -> the config classes its ``**kwargs`` reach, over
    ``src/`` (to a fixed point: a helper may forward to a helper)."""
    #: (helper, callee) for every call that splats the helper's **kwargs
    forwards = []
    for module in modules("src"):
        for function in module.nodes:
            if not (isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and function.args.kwarg is not None):
                continue
            kwarg = function.args.kwarg.arg
            forwards += [
                (function.name, _callee(call)) for call in ast.walk(function)
                if isinstance(call, ast.Call) and any(
                    k.arg is None and isinstance(k.value, ast.Name)
                    and k.value.id == kwarg for k in call.keywords)
            ]
    reach: Dict[str, Set[str]] = {}
    changed = True
    while changed:
        changed = False
        for helper, callee in forwards:
            targets = ({callee} if callee in fields else set()) | reach.get(
                callee, set())
            if not targets <= reach.get(helper, set()):
                reach.setdefault(helper, set()).update(targets)
                changed = True
    return reach


def _preset_keys(tree: ast.Module) -> Set[str]:
    """Every key of a ``PRESETS`` entry, ``**`` splats resolved."""
    bases: Dict[str, ast.Call] = {}
    presets = None
    for node in tree.body:
        target = node.target if isinstance(node, ast.AnnAssign) else (
            node.targets[0] if isinstance(node, ast.Assign) else None)
        if not isinstance(target, ast.Name):
            continue
        if target.id == "PRESETS":
            presets = node.value
        elif isinstance(node.value, ast.Call):
            bases[target.id] = node.value

    def keys(call: ast.Call) -> Set[str]:
        found: Set[str] = set()
        for keyword in call.keywords:
            if keyword.arg is not None:
                found.add(keyword.arg)
            elif isinstance(keyword.value, ast.Name):
                found |= keys(bases[keyword.value.id])
        return found

    assert isinstance(presets, ast.Dict), "sim/presets.py has no PRESETS dict"
    return set().union(*(keys(entry) for entry in presets.values))


@functools.lru_cache(maxsize=None)
def bound_setters() -> Dict[Tuple[str, str], Set[str]]:
    """(class, field) -> the columns whose code sets it, bound to the
    class; a field no code sets is absent."""
    fields = config_fields()
    forwarders = _forwarders(fields)
    found: Dict[Tuple[str, str], Set[str]] = {}

    def bind(cls: str, names, column: str) -> None:
        for name in names:
            if name in fields[cls]:
                found.setdefault((cls, name), set()).add(column)

    for module in modules(*SCANNED):
        path, tree = module.path, module.tree
        column = _column(path)
        owner: Dict[int, str] = {}
        for node in filter(_is_config_dataclass, module.nodes):
            for inner in ast.walk(node):
                owner[id(inner)] = node.name
        for call in module.nodes:
            if not isinstance(call, ast.Call):
                continue
            names = {k.arg for k in call.keywords if k.arg is not None}
            callee = _callee(call)
            if callee == "replace":
                classes = {cls for cls, own in fields.items()
                           if names and names <= set(own)}
            else:
                classes = ({callee} if callee in fields else set()) | (
                    forwarders.get(callee, set()))
            for cls in classes - {owner.get(id(call))}:
                bind(cls, names, column)
        if path.relative_to(ROOT).as_posix() == "src/repro/sim/presets.py":
            bind("ChaosConfig", _preset_keys(tree), column)
        if column == "CLI":
            for node in tree.body:
                if (isinstance(node, ast.Assign)
                        and any(isinstance(t, ast.Name) and t.id == "_CHAOS_SHAPE"
                                for t in node.targets)):
                    bind("ChaosConfig",
                         [value.value for value in node.value.values], column)
    return found


def test_every_settable_value_has_a_caller():
    where = bound_setters()
    unset = [
        f"{cls}.{name}"
        for cls, names in sorted(config_fields().items())
        for name in names
        if (cls, name) not in where
    ]
    assert not unset, (
        f"{len(unset)} config field(s) no caller in src/ or bench/ sets — "
        f"make each a module constant beside its reader: {', '.join(unset)}"
    )


def test_the_number_of_settable_values_is_pinned():
    fields = config_fields()
    assert len(fields) == CONFIG_CLASSES
    assert sum(len(names) for names in fields.values()) == SETTABLE_VALUES


# -- DESIGN §5's knob table ---------------------------------------------------

def knob_table() -> str:
    """DESIGN §5 decision 17's table: per class, its settable values and
    how many of them each column's code sets, largest class first."""
    fields, where = config_fields(), bound_setters()
    rows = [
        "| class | values | " + " | ".join(COLUMNS) + " |",
        "|---|---|" + "---|" * len(COLUMNS),
    ]
    for cls, names in sorted(fields.items(), key=lambda kv: (-len(kv[1]), kv[0])):
        counts = [sum(column in where.get((cls, name), ()) for name in names)
                  for column in COLUMNS]
        rows.append(f"| `{cls}` | {len(names)} | "
                    + " | ".join(map(str, counts)) + " |")
    return "\n".join(rows)


def test_the_design_knob_table_is_the_walk():
    design = (ROOT / "DESIGN.md").read_text()
    decision = design[design.index("17. **A field is a knob"):
                      design.index("18. **One scenario spec")]
    committed = "\n".join(
        line.strip() for line in decision.splitlines()
        if line.strip().startswith("|"))
    fresh = knob_table()
    assert committed == fresh, (
        "DESIGN §5 decision 17's knob table differs from the gate's walk; "
        "the fresh table:\n\n" + fresh)


# -- non-finite numbers ----------------------------------------------------

#: numeric settable values for which ``+inf`` means "unbounded": a lost
#: message is waited out with ``Timeout(inf)``, never retried
UNBOUNDED = {("RetryPolicy", "timeout_s")}
#: what a valid instance needs besides its defaults
REQUIRED = {"SiteConfig": {"name": "s", "n_hosts": 1}}


@functools.lru_cache(maxsize=None)
def numeric_settable_values() -> Tuple[Tuple[type, str], ...]:
    """(class, field) for every settable value typed int or float, or
    Optional of one; no settable value is a container of numbers."""
    settable, found = config_fields(), []
    for module in modules("src/repro"):
        name = ".".join(
            module.path.relative_to(ROOT / "src").with_suffix("").parts)
        for node in filter(_is_config_dataclass, module.nodes):
            cls = getattr(importlib.import_module(name), node.name)
            found += [(cls, f.name) for f in dataclasses.fields(cls)
                      if f.name in settable[node.name]
                      and re.fullmatch(r"(Optional\[)?(int|float)]?",
                                       str(f.type))]
    return tuple(found)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_a_non_finite_number_is_refused_at_construction(bad):
    cases = numeric_settable_values()
    assert len(cases) == 60
    for cls, name in cases:
        kwargs = {**REQUIRED.get(cls.__name__, {}), name: bad}
        if bad == math.inf and (cls.__name__, name) in UNBOUNDED:
            assert getattr(cls(**kwargs), name) == math.inf
        else:
            with pytest.raises(ValueError):
                cls(**kwargs)
