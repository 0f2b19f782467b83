"""One parse of the program for the AST gates.

The knob gate, the unused-import gate and the caller gate each walk
the program — ``src/``, ``bench/`` and ``examples/`` — and some walk
the same trees several times.  This module parses every file there once
per process and keeps each tree's nodes in one flat tuple, so the three
gates share one parse and one walk of each file.
"""

import ast
import functools
from pathlib import Path
from typing import NamedTuple, Tuple

ROOT = Path(__file__).resolve().parents[2]
#: the program: what a user runs; tests are not part of it
PROGRAM = ("src", "bench", "examples")


class Module(NamedTuple):
    path: Path
    #: ``path`` relative to the repository root, as a posix string
    rel: str
    tree: ast.Module
    #: every node of ``tree``, in ``ast.walk`` order
    nodes: Tuple[ast.AST, ...]


@functools.lru_cache(maxsize=None)
def _program() -> Tuple[Module, ...]:
    found = []
    for root in PROGRAM:
        for path in sorted((ROOT / root).rglob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            found.append(Module(path, path.relative_to(ROOT).as_posix(),
                                tree, tuple(ast.walk(tree))))
    return tuple(found)


@functools.lru_cache(maxsize=None)
def modules(*roots: str) -> Tuple[Module, ...]:
    """The parsed modules under each of ``roots`` (paths relative to the
    repository root, ``"src/repro"`` say), in path order."""
    prefixes = tuple(root.rstrip("/") + "/" for root in roots)
    return tuple(m for m in _program() if m.rel.startswith(prefixes))
