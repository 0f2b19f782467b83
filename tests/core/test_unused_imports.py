"""No module under ``src/repro`` imports a name it never uses.

An unused import is a dependency the reader has to rule out, and a
module-level one runs on every import of its module.  This gate walks
each module's top-level imports (``if`` / ``try`` blocks included, not
function bodies) and refuses a bound name that nothing in the module
reads.  These count as uses:

* any reference to the name, attribute bases included;
* the name in the module's ``__all__``;
* the name inside a quoted annotation (``x: "np.ndarray"``);
* any binding in a package ``__init__.py``, whose imports are its
  re-exports.

A name bound for another module to read or rebind goes into
``ALLOWED`` with its reason.
"""

import ast
import functools
from typing import Iterable, Iterator, Sequence, Set

import pytest

from tests.core._program import modules

pytestmark = pytest.mark.gate


#: ``module path: name`` -> why the binding stays unread in its module
ALLOWED = {
    "runtime/site_manager.py: select_hosts":
        "bench/tests/test_bench_smoke.py rebinds it to check that the "
        "per-round exchange never calls host selection (DESIGN §13.11)",
}


def module_imports(tree: ast.Module) -> Iterator[str]:
    """The name each top-level import of ``tree`` binds."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.If, ast.Try)):
            stack.extend(ast.iter_child_nodes(node))
        elif isinstance(node, ast.ExceptHandler):
            stack.extend(node.body)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name


def _annotations(nodes: Iterable[ast.AST]) -> Iterator[ast.expr]:
    for node in nodes:
        if isinstance(node, ast.arg) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                and node.returns is not None:
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def used_names(tree: ast.Module, nodes: Sequence[ast.AST]) -> Set[str]:
    """Every name ``tree`` reads, ``__all__`` and quoted annotations
    included; ``nodes`` is ``ast.walk(tree)``."""
    used = {node.id for node in nodes if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = getattr(node, "targets", None) or [node.target]
            if any(isinstance(t, ast.Name) and t.id == "__all__"
                   for t in targets) and node.value is not None:
                used |= {c.value for c in ast.walk(node.value)
                         if isinstance(c, ast.Constant)
                         and isinstance(c.value, str)}
    for annotation in _annotations(nodes):
        for constant in ast.walk(annotation):
            if isinstance(constant, ast.Constant) \
                    and isinstance(constant.value, str):
                quoted = ast.parse(constant.value, mode="eval")
                used |= {n.id for n in ast.walk(quoted)
                         if isinstance(n, ast.Name)}
    return used


@functools.lru_cache(maxsize=None)
def unused_imports():
    """``module path: name`` of every import nothing in its module reads."""
    found = []
    for module in modules("src/repro"):
        if module.path.name == "__init__.py":
            continue
        used = used_names(module.tree, module.nodes)
        rel = module.rel[len("src/repro/"):]
        found += [f"{rel}: {name}" for name in module_imports(module.tree)
                  if name not in used]
    return tuple(sorted(found))


def test_no_module_imports_a_name_it_never_reads():
    unused = [entry for entry in unused_imports() if entry not in ALLOWED]
    assert unused == [], "\n".join(unused)


def test_every_allowed_binding_is_still_unread_in_its_module():
    """An allow-listed name the module starts to read, or no longer
    imports, leaves the list."""
    assert set(ALLOWED) <= set(unused_imports())


def test_the_walk_sees_each_kind_of_use():
    tree = ast.parse(
        "from typing import TYPE_CHECKING, Dict, List, Optional\n"
        "import os.path\n"
        "if TYPE_CHECKING:\n"
        "    import numpy as np\n"
        "__all__ = ['Dict']\n"
        "def f(x: 'np.ndarray') -> None:\n"
        "    return os.path.join(x)\n")
    names = set(module_imports(tree))
    assert names == {"TYPE_CHECKING", "Dict", "List", "Optional", "os", "np"}
    assert names - used_names(tree, tuple(ast.walk(tree))) == {"List", "Optional"}
