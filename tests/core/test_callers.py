"""The caller gate: every public name in ``src/repro`` has a caller in
the program.

Code that only tests call is code a reader must still read, and a
mechanism that only such code reaches is a branch every run pays to
test and none takes.  So this gate walks ``src/repro`` for each
module-level public function or class and each public method of a
module-level class, and asserts that the program — ``src/``, ``bench/``
and ``examples/``, never tests — refers to it somewhere other than its
own definition.

A function or a class is referred to by name:

* a name read or bound (``select_hosts``, ``Host(...)``);
* an attribute (``placement.makespan``);
* a ``from … import name`` outside a package ``__init__.py``.

``__all__`` entries and the ``__init__.py`` lazy-export tables are
strings and do not count, nor does a package's eager re-export.

A method is referred to through its receiver's class
(``tests/core/_receivers.py``): ``self.m`` reaches the enclosing class,
``self.part.m`` the class ``__init__`` builds or annotates ``part``
with, ``p.m`` the class ``p`` is annotated with — both classes when its
default is an instance of another (``NULL_BREAKERS``) — and
``Class(...).m``, ``Class.m`` and a module-level instance's ``.m`` that
class.  A class stands for its bases and subclasses too, since a hook
called in a base dispatches to the overrides.  A receiver the walk
cannot resolve matches every method of that name, as does a string
argument of ``getattr`` / ``setattr`` / ``hasattr`` or of
``bench/layers.py``'s ``wrap_method``, which rebinds a method by name.
The walk errs towards keeping code, never towards deleting it.

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
from pathlib import Path
from typing import Iterable, Iterator, Sequence, Set, Tuple

import pytest

from tests.core._program import ROOT, Module, modules
from tests.core._receivers import method_references

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
    "runtime/services.py: ConsoleService.resume":
        ("b", "§4.2: \"the user can suspend and restart the "
              "application execution\""),
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
ALLOWED_NAMES = 15
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


def references(nodes: Iterable[ast.AST], package_init: bool = False
               ) -> Tuple[Set[str], Set[str]]:
    """Every name ``nodes`` refer to, and the attribute names among them
    that a ``BY_STRING`` call gives as a string; see the module
    docstring."""
    found: Set[str] = set()
    strings: Set[str] = set()
    for node in nodes:
        kind = type(node)
        if kind is ast.Name:
            found.add(node.id)
        elif kind is ast.Attribute:
            found.add(node.attr)
        elif kind is ast.ImportFrom and not package_init:
            found.update(alias.name for alias in node.names)
        elif kind is ast.Call:
            func = node.func
            callee = func.id if isinstance(func, ast.Name) else getattr(
                func, "attr", "")
            if callee in BY_STRING:
                strings.update(arg.value for arg in node.args
                               if isinstance(arg, ast.Constant)
                               and isinstance(arg.value, str))
    return found | strings, strings


def uncalled_in(program: Sequence[Module], defined: Sequence[Module]
                ) -> Tuple[str, ...]:
    """``module path: name`` of every public name of ``defined`` that
    ``program`` never refers to."""
    called: Set[str] = set()
    by_string: Set[str] = set()
    for module in program:
        names, strings = references(
            module.nodes, package_init=module.path.name == "__init__.py")
        called |= names
        by_string |= strings
    definitions = [(module, name) for module in defined
                   for name in public_definitions(module.tree)]
    methods = {name.split(".")[1] for _, name in definitions if "." in name}
    resolved, by_name = method_references(program, methods)
    by_name |= by_string

    def is_called(name: str) -> bool:
        if "." not in name:
            return name in called
        cls, method = name.split(".")
        return (cls, method) in resolved or method in by_name

    return tuple(f"{module.rel[len('src/repro/'):]}: {name}"
                 for module, name in definitions if not is_called(name))


@functools.lru_cache(maxsize=None)
def uncalled() -> Tuple[str, ...]:
    """``module path: name`` of every public name the program never
    refers to."""
    return uncalled_in(modules("src", "bench", "examples"),
                       modules("src/repro"))


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
    assert references(ast.walk(tree)) == ({
        "imported", "__all__", "read", "obj", "attribute", "getattr", "looked_up",
        "wrap_method", "cls", "rebound", "make"}, {"looked_up", "rebound"})
    assert "imported" not in references(ast.walk(tree), package_init=True)[0]
    assert list(public_definitions(ast.parse(
        "def f(): pass\n"
        "def _g(): pass\n"
        "class _C:\n"
        "    def m(self): pass\n"
        "    def _n(self): pass\n"
        "class D:\n"
        "    def __init__(self): pass\n"))) == ["f", "_C.m", "D"]


def _module(rel: str, source: str) -> Module:
    tree = ast.parse(source)
    return Module(Path(rel), rel, tree, tuple(ast.walk(tree)))


#: one synthetic program, a case per rule; each ``Twin`` method shares
#: its name with a called one and is called by nothing
_DEFINED = """
class Base:
    def run(self):
        self.hook()
    def hook(self): ...

class Child(Base):
    def hook(self): ...

class Part:
    def work(self): ...
    def spin(self): ...
    def boot(self): ...
    def make(self): ...

class Twin:
    def work(self): ...
    def spin(self): ...
    def boot(self): ...
    def make(self): ...
    def anything(self): ...

class Registry:
    def for_requests(self): ...

class NullRegistry:
    def for_requests(self): ...

NULL_REGISTRY = NullRegistry()

class Owner:
    def __init__(self, registry: Registry = NULL_REGISTRY):
        self.part = Part()
        registry.for_requests()
    def go(self):
        self.part.work()

class SiteScheduler:
    def schedule(self): ...

class Host:
    def schedule(self): ...
"""
_CALLERS = """
from repro.defined import Child, Host, Owner, Part, SiteScheduler, Twin

PART = Part()

def use(part: Part, unknown):
    Child().run()
    Owner().go()
    part.spin()
    PART.boot()
    Part().make()
    unknown.anything()
    SiteScheduler().schedule()
"""


def test_the_walk_resolves_each_kind_of_receiver():
    """``self`` reaches a base hook and its override; an ``__init__``-
    bound attribute, an annotated parameter, a module instance and
    ``Class(...)`` reach their class and not a same-named method
    elsewhere; a default of another class reaches that class too; an
    unresolved receiver keeps every method of its name."""
    defined = _module("src/repro/defined.py", _DEFINED)
    program = (defined, _module("examples/callers.py", _CALLERS))
    assert set(uncalled_in(program, (defined,))) == {
        "defined.py: Twin.work", "defined.py: Twin.spin",
        "defined.py: Twin.boot", "defined.py: Twin.make",
        # a new method no program code calls fails the gate, although
        # ``SiteScheduler.schedule`` shares its name
        "defined.py: Host.schedule",
    }


def test_two_classes_of_one_name_stop_the_walk():
    """The walk keys classes by name, so a second class of a name fails
    it rather than merging into the first."""
    first = _module("src/repro/first.py",
                    "class Part:\n    def work(self): ...\n")
    second = _module("src/repro/second.py",
                     "class Part:\n    def spin(self): ...\n")
    with pytest.raises(AssertionError, match="a second class Part"):
        uncalled_in((first, second), (first, second))


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
