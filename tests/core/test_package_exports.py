"""Every exported name resolves, whatever is imported first.

The package root and the fourteen subpackage ``__init__``\\ s re-export
their names lazily (PEP 562): a name is imported on its first read.  Each
case below runs in a fresh interpreter, because what a process has
already imported is exactly what could mask a broken re-export:

* **package first** — read every name of ``__all__`` from the package,
  then import the submodules that define them: each name must still be
  the object its defining module holds;
* **submodules first** — import the defining submodules, then read the
  names: the same check.  Importing a submodule binds the package
  attribute of its own name to the module, which would shadow a
  function of that name (``repro.workloads.random_dag``,
  ``repro.viz.gantt``) if the package bound it lazily;

and in both, ``dir(pkg)`` lists ``__all__``, ``from pkg import *`` binds
all of it, and an unknown name raises ``AttributeError``.

Which submodule defines a name is read from the ``__init__`` source: its
eager ``from ... import`` statements and the table it hands
``_lazy_exports``.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path
from typing import Dict, Optional, Tuple

import pytest

pytestmark = pytest.mark.gate

SRC = Path(__file__).resolve().parents[2] / "src"
PACKAGES = ["repro"] + sorted(
    f"repro.{init.parent.name}" for init in SRC.glob("repro/*/__init__.py"))

CHILD = """
import importlib, json, sys
package, order, owners = sys.argv[1], sys.argv[2], json.loads(sys.argv[3])

def defined(name):
    module, attribute = owners[name]
    module = importlib.import_module(module)
    return module if attribute is None else getattr(module, attribute)

if order == "submodules first":
    for module in sorted({module for module, _ in owners.values()}):
        importlib.import_module(module)
pkg = importlib.import_module(package)
first = {name: getattr(pkg, name) for name in pkg.__all__}
wrong = sorted(name for name in owners
               if not (first[name] is getattr(pkg, name) is defined(name)))
star = {}
exec("from " + package + " import *", star)
try:
    getattr(pkg, "no_such_name")
    unknown = "resolved"
except AttributeError:
    unknown = "AttributeError"
print(json.dumps({
    "all": sorted(pkg.__all__), "owned": sorted(owners), "wrong": wrong,
    "missing_from_dir": sorted(set(pkg.__all__) - set(dir(pkg))),
    "missing_from_star": sorted(set(pkg.__all__) - set(star)),
    "unknown": unknown,
}))
"""


def owners(package: str) -> Dict[str, Tuple[str, Optional[str]]]:
    """Exported name -> (defining module, attribute), from the init
    source; the attribute is None where the name is the module itself."""
    init = SRC.joinpath(*package.split("."), "__init__.py")
    found: Dict[str, Tuple[str, Optional[str]]] = {}
    for node in ast.walk(ast.parse(init.read_text())):
        if isinstance(node, ast.ImportFrom) and node.module != "repro":
            found.update((alias.name, (node.module, alias.name))
                         for alias in node.names)
        elif (isinstance(node, ast.Call)
              and getattr(node.func, "id", None) == "_lazy_exports"):
            table = ast.literal_eval(node.args[1])
            found.update(
                (name, (f"{package}.{sub}", None if name == sub else name))
                for sub, names in table.items() for name in names)
    return found


@pytest.mark.parametrize("order", ["package first", "submodules first"])
@pytest.mark.parametrize("package", PACKAGES)
def test_every_exported_name_is_its_defining_modules_object(package, order):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    child = subprocess.run(
        [sys.executable, "-c", CHILD, package, order,
         json.dumps(owners(package))],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert child.returncode == 0, child.stderr
    report = json.loads(child.stdout)
    # __version__ is the one name the root defines itself
    assert set(report["all"]) - {"__version__"} == set(report["owned"])
    assert report["wrong"] == []
    assert report["missing_from_dir"] == []
    assert report["missing_from_star"] == []
    assert report["unknown"] == "AttributeError"


def test_the_packages_are_the_root_and_its_fourteen_subpackages():
    assert len(PACKAGES) == 15


@pytest.mark.parametrize("first", ["the submodule", "a sibling name"])
@pytest.mark.parametrize("name", ["repro.workloads.random_dag",
                                  "repro.viz.gantt"])
def test_a_function_named_like_its_submodule_survives_that_import(
        name, first):
    """``bench/workloads.py`` reads ``random_dag`` from the package after
    ``RandomDAGConfig``, whose first read imports the submodule."""
    package, function = name.rsplit(".", 1)
    sibling = {"random_dag": "RandomDAGConfig",
               "gantt": "execution_report"}[function]
    code = (f"import {name}\n" if first == "the submodule" else
            f"from {package} import {sibling}\n")
    code += (f"from {package} import {function}\n"
             f"assert callable({function}), {function}\n"
             f"assert {function}.__module__ == {name!r}")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    subprocess.run([sys.executable, "-c", code], env=env, check=True,
                   timeout=120)
