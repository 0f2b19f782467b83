"""The caller gate: every public name in ``src/repro`` has a caller in
the program.

Code that only tests call is code a reader must still read, and a
mechanism that only such code reaches is a branch every run pays to
test and none takes.  So this gate walks ``src/repro`` for each
module-level public function or class and each public method of a
module-level class, and asserts that the program — ``src/``, ``bench/``
and ``examples/``, never tests — refers to it by name somewhere other
than its own definition.  These count as references:

* a name read or bound (``select_hosts``, ``Host(...)``);
* an attribute (``link.transfer``, ``self._leg``);
* a ``from … import name`` outside a package ``__init__.py``;
* a string argument of ``getattr`` / ``setattr`` / ``hasattr`` or of
  ``bench/layers.py``'s ``wrap_method``, which rebinds a method by
  name.

``__all__`` entries and the ``__init__.py`` lazy-export tables are
strings and do not count, nor does a package's eager re-export.  A
name is matched by its last component only, so a method counts as
called when any attribute of that name is read: the walk errs towards
keeping code, never towards deleting it.

A public name the program never refers to is deleted, with the
mechanism only it reaches, or it goes into ``ALLOWED`` as one of two
kinds:

* (a) a read-only accessor that tests observe state through;
* (b) a user operation the paper names, cited by section.

The list is pinned, and DESIGN §5's caller table is ``ALLOWED``
rendered, so a new entry is a decision the diff shows.
"""

import ast
import functools
import re
from typing import Iterable, Iterator, Set, Tuple

import pytest

from tests.core._program import ROOT, modules

pytestmark = pytest.mark.gate

#: ``module path: name`` -> (kind, why it stays without a program caller)
ALLOWED = {
    "afg/graph.py: ApplicationFlowGraph.entry_tasks":
        ("a", "the Fig. 2 entry nodes; workload and reference-scheduler "
              "tests read a graph's shape through it"),
    "afg/graph.py: ApplicationFlowGraph.exit_tasks":
        ("a", "the exit nodes levels are measured to; workload tests "
              "read a graph's shape through it"),
    "obs/spans.py: SpanRecorder.open_spans":
        ("a", "the spans still open; span tests check that every run "
              "closes what it opens"),
    "repository/constraints.py: TaskConstraintsDB.executable_path":
        ("a", "the one read of the §3 task-constraints database's "
              "executable locations, which snapshots persist"),
    "runtime/app_controller.py: AppController.n_guarded":
        ("a", "slices under a load watch; membership and event-count "
              "tests check that a departed host leaves none"),
    "runtime/group_manager.py: GroupManager.is_suspected":
        ("a", "phi suspicion short of a down verdict; detector tests "
              "follow it across silent periods"),
    "runtime/membership.py: MembershipCoordinator.is_draining":
        ("a", "a host in graceful drain; membership tests observe "
              "the drain through it"),
    "runtime/services.py: ConsoleService.is_suspended":
        ("a", "the console gate's state; console tests check that "
              "resume clears it"),
    "runtime/services.py: ConsoleService.suspend":
        ("b", "§4.2: \"the user can suspend and restart the "
              "application execution\""),
    "runtime/straggler.py: HostHealth.is_quarantined":
        ("a", "a host in straggler quarantine; speculation tests "
              "observe quarantine and release through it"),
    "scheduler/allocation.py: AllocationTable.is_complete_for":
        ("a", "every task of a graph allocated; scheduler tests "
              "assert a full table through it"),
    "sim/failures.py: FailureInjector.slowdown_intervals":
        ("a", "the injected slowdown ground truth; fault and detector "
              "tests compare against it"),
    "sim/kernel.py: Simulator.rng_streams":
        ("a", "how many named streams were drawn from; RNG tests "
              "check that fault-free runs materialise none"),
    "sim/network.py: Link.n_active":
        ("a", "transfers in flight on a link; network tests check "
              "that a failure or finish leaves none"),
}
#: the pinned size of ``ALLOWED``
ALLOWED_NAMES = 14
#: call targets whose string arguments name an attribute
BY_STRING = {"getattr", "setattr", "hasattr", "wrap_method"}
_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def public_definitions(tree: ast.Module) -> Iterator[str]:
    """Each module-level public function or class of ``tree``, and each
    public method of its module-level classes, as ``Class.method``."""
    for node in tree.body:
        if not isinstance(node, _DEFS):
            continue
        if not node.name.startswith("_"):
            yield node.name
        if isinstance(node, ast.ClassDef):
            for method in node.body:
                if (isinstance(method, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not method.name.startswith("_")):
                    yield f"{node.name}.{method.name}"


def references(nodes: Iterable[ast.AST], package_init: bool = False) -> Set[str]:
    """Every name ``nodes`` refer to; see the module docstring."""
    found: Set[str] = set()
    for node in nodes:
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.ImportFrom) and not package_init:
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Call):
            func = node.func
            callee = func.id if isinstance(func, ast.Name) else getattr(
                func, "attr", "")
            if callee in BY_STRING:
                found.update(arg.value for arg in node.args
                             if isinstance(arg, ast.Constant)
                             and isinstance(arg.value, str))
    return found


@functools.lru_cache(maxsize=None)
def uncalled() -> Tuple[str, ...]:
    """``module path: name`` of every public name the program never
    refers to."""
    called: Set[str] = set()
    for module in modules("src", "bench", "examples"):
        called |= references(module.nodes,
                             package_init=module.path.name == "__init__.py")
    return tuple(
        f"{module.rel[len('src/repro/'):]}: {name}"
        for module in modules("src/repro")
        for name in public_definitions(module.tree)
        if name.rsplit(".", 1)[-1] not in called
    )


def test_every_public_name_has_a_program_caller():
    missing = [entry for entry in uncalled() if entry not in ALLOWED]
    assert not missing, (
        f"{len(missing)} public name(s) no code in src/, bench/ or "
        f"examples/ refers to — delete each with what only it reaches, "
        f"or allow it as (a) a read-only accessor tests observe state "
        f"through or (b) a user operation the paper names:\n"
        + "\n".join(missing))


def test_every_allowed_name_is_still_uncalled():
    """An allowed name the program starts to call, or that is gone,
    leaves the list."""
    stale = sorted(set(ALLOWED) - set(uncalled()))
    assert not stale, "\n".join(stale)


def test_the_allow_list_is_pinned_and_each_entry_gives_its_kind():
    assert len(ALLOWED) == ALLOWED_NAMES
    for entry, (kind, reason) in ALLOWED.items():
        assert kind in ("a", "b") and reason, entry
        if kind == "b":
            assert re.match(r"§\d", reason), f"{entry}: cite the paper section"


def test_the_walk_sees_each_kind_of_reference():
    tree = ast.parse(
        "from x import imported\n"
        "__all__ = ['exported']\n"
        "def f():\n"
        "    read(obj.attribute)\n"
        "    getattr(obj, 'looked_up')\n"
        "    wrap_method(cls, 'rebound', make)\n")
    assert references(ast.walk(tree)) == {
        "imported", "__all__", "read", "obj", "attribute", "getattr", "looked_up",
        "wrap_method", "cls", "rebound", "make"}
    assert "imported" not in references(ast.walk(tree), package_init=True)
    assert list(public_definitions(ast.parse(
        "def f(): pass\n"
        "def _g(): pass\n"
        "class _C:\n"
        "    def m(self): pass\n"
        "    def _n(self): pass\n"
        "class D:\n"
        "    def __init__(self): pass\n"))) == ["f", "_C.m", "D"]


# -- DESIGN §5's caller table ---------------------------------------------------

def caller_table() -> str:
    """DESIGN §5 decision 20's table: each allowed name, its kind and
    its reason, by module."""
    rows = ["| name | kind | why it stays |", "|---|---|---|"]
    for entry, (kind, reason) in sorted(ALLOWED.items()):
        module, name = entry.split(": ")
        rows.append(f"| `{module}` `{name}` | ({kind}) | {reason} |")
    return "\n".join(rows)


def test_the_design_caller_table_is_the_allow_list():
    design = (ROOT / "DESIGN.md").read_text()
    decision = design[design.index("20. **A public name has a program caller"):
                      design.index("## 6. Out-of-scope")]
    committed = "\n".join(
        line.strip() for line in decision.splitlines()
        if line.strip().startswith("|"))
    fresh = caller_table()
    assert committed == fresh, (
        "DESIGN §5 decision 20's caller table differs from the gate's "
        "allow-list; the fresh table:\n\n" + fresh)
