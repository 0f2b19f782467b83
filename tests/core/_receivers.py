"""Receiver resolution for the caller gate, without a type checker.

``method_references`` reads every attribute of the program whose name
is a method name, and resolves its receiver to the classes it can hold:

* ``self`` is the enclosing class;
* a parameter, a local, an attribute (``self.x``) or a module-level
  name has the union of the types bound to it: its annotation, the
  instance a ``Class(...)`` call makes, a call's return annotation, an
  element of an annotated container, a local alias.  A parameter
  annotated ``X`` whose default is an instance of ``Y`` holds both
  (``breakers: BreakerRegistry = NULL_BREAKERS``);
* ``Class.m`` and ``Class(...).m`` are that class.

A class stands for itself, its bases and its subclasses, since a hook
called in a base dispatches to the overrides.  A receiver whose type
is not known — an unannotated parameter, an untyped call, a name bound
once to something unknown — resolves to nothing, and its attribute
keeps matching every method of that name.  So the walk errs towards
keeping code, never towards deleting it.

Each rule below resolves the receiver of at least one method the gate
found uncalled; a rule that resolved none was left out, since an
unresolved receiver already falls back to matching by name.
"""

import ast
import bisect
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from tests.core._program import Module

#: a type: a set of atoms, or None when unknown.  The atoms:
#: ("i", C) an instance of program class C (or a subclass);
#: ("c", C) the class object; ("m", dotted) a program module;
#: ("f", id) a function; ("l", T) an iterable of T; ("d", K, V) a
#: mapping; ("t", (T, ...)) a tuple; ("b",) any other value
Type = Optional[FrozenSet[tuple]]
NOTHING: FrozenSet[tuple] = frozenset()
OTHER: FrozenSet[tuple] = frozenset({("b",)})

_SCOPES = {ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef}
_FUNCS = (ast.FunctionDef, ast.AsyncFunctionDef)
#: a cycle's head recomputes at most this often before it reads unknown
_ROUNDS = 4
_FAR = 1 << 30
_BINDERS = {ast.Assign, ast.AnnAssign, ast.For, ast.AsyncFor, ast.NamedExpr,
            ast.Import, ast.ImportFrom, ast.ExceptHandler, ast.With,
            ast.AsyncWith, ast.comprehension, ast.Global, ast.Nonlocal}
#: typing names whose first argument is what iterating yields
_SEQUENCES = {"List", "Sequence", "Iterable", "Iterator", "Set", "FrozenSet",
              "Deque", "Generator", "list", "set", "frozenset"}
_MAPPINGS = {"Dict", "Mapping", "dict"}


def union(*types: Type) -> Type:
    if any(t is None for t in types):
        return None
    return frozenset().union(*types)


def _instances(t: Type) -> FrozenSet[tuple]:
    """The program instances ``t`` holds: what a value adds beside an
    annotation, which covers the rest (a default of another class)."""
    return NOTHING if t is None else frozenset(a for a in t if a[0] == "i")


class _Scope:
    """A function, lambda or class body, or a module (``node`` None)."""

    __slots__ = ("node", "parent", "cls", "self_name", "binders", "start",
                 "end")

    def __init__(self, node, parent):
        self.node = node
        #: the enclosing scope of any kind
        self.parent = parent
        #: the class whose body this is, or whose method this is
        self.cls: Optional[str] = None
        #: the first parameter of an instance method
        self.self_name: Optional[str] = None
        self.binders: Dict[str, List[tuple]] = {}
        if node is not None:
            self.start = (node.lineno, node.col_offset)
            self.end = (node.end_lineno, node.end_col_offset)

    def lookup_parent(self) -> "_Scope":
        """The scope a free name of this one is looked up in: classes
        do not enclose their methods' names."""
        scope = self.parent
        while isinstance(scope.node, ast.ClassDef):
            scope = scope.parent
        return scope


class _Class:
    __slots__ = ("node", "bases", "subclasses", "methods", "attrs",
                 "annotated")

    def __init__(self, node: ast.ClassDef):
        self.node = node
        self.bases: List[str] = []
        self.subclasses: List[str] = []
        #: method name -> (FunctionDef, its scope); properties are not
        #: methods, so a property's value stays unknown
        self.methods: Dict[str, tuple] = {}
        #: attribute -> [binder], from the class body and ``self.x = ...``
        self.attrs: Dict[str, List[tuple]] = {}
        #: attributes with an annotation in the class
        self.annotated: Set[str] = set()


class Program:
    """The program's classes, functions and scopes, and the receiver
    types of its attributes."""

    def __init__(self, modules: Iterable[Module], names: Set[str]):
        self.modules: Dict[str, _Scope] = {}
        self.classes: Dict[str, _Class] = {}
        self.functions: Dict[int, tuple] = {}
        #: module-level function name -> [function atom], program-wide
        self.function_names: Dict[str, List[tuple]] = {}
        #: attributes assigned through a receiver other than ``self``
        self.assigned_outside: Set[str] = set()
        self._memo: Dict[object, Type] = {}
        self._busy: Dict[object, int] = {}
        self._assumed: Dict[object, Type] = {}
        self._lowest = _FAR
        self._family: Dict[str, FrozenSet[str]] = {}
        self._index: Dict[str, tuple] = {}
        self._parsed: List[ast.expr] = []
        #: (class, method) a class body reads outside its methods
        self.class_body_reads: Set[Tuple[str, str]] = set()
        #: (module, attribute node) of each attribute named in ``names``
        self.attributes: List[tuple] = []
        for module in modules:
            self._add_module(module, names)
        for name, cls in self.classes.items():
            node = cls.node
            # ``_rate = per_task_rate``: a method read in its class body
            self.class_body_reads.update(
                (name, read.id) for statement in node.body
                if not isinstance(statement, _FUNCS)
                for read in ast.walk(statement)
                if isinstance(read, ast.Name) and read.id in cls.methods)
            for base in node.bases:
                base = base.attr if isinstance(base, ast.Attribute) else (
                    base.id if isinstance(base, ast.Name) else None)
                if base in self.classes:
                    cls.bases.append(base)
                    self.classes[base].subclasses.append(name)

    # -- indexing ---------------------------------------------------------------

    @staticmethod
    def dotted(rel: str) -> str:
        path = rel[:-3].split("/")
        if path[0] in ("src", "examples"):
            path = path[1:]
        if path[-1] == "__init__":
            path = path[:-1]
        return ".".join(path)

    def _add_module(self, module: Module, names: Set[str]) -> None:
        dotted = self.dotted(module.rel)
        top = self.modules[dotted] = _Scope(None, None)
        package = dotted if module.path.name == "__init__.py" else (
            dotted.rpartition(".")[0])
        scopes: List[_Scope] = []
        starts: List[tuple] = []
        self._index[dotted] = (scopes, starts, top)
        found, binding, attributes = [], [], []
        for node in module.nodes:
            kind = type(node)
            if kind is ast.Attribute:
                if node.attr in names:
                    attributes.append(node)
            elif kind in _SCOPES:
                found.append(node)
            elif kind in _BINDERS:
                binding.append(node)
        for node in sorted(found, key=lambda n: (n.lineno, n.col_offset)):
            scope = _Scope(node, self.scope_at(dotted, node))
            scopes.append(scope)
            starts.append(scope.start)
            self._add_scope(scope, module.rel)
        for node in binding:
            target = node.target if type(node) is ast.comprehension else node
            self._bind(node, self.scope_at(dotted, target), package)
        self.attributes.extend((dotted, node) for node in attributes)

    def _add_scope(self, scope: _Scope, rel: str) -> None:
        node, parent = scope.node, scope.parent
        in_class = isinstance(parent.node, ast.ClassDef)
        if isinstance(node, ast.ClassDef):
            # classes are keyed by name: a second class of one name
            # would take over the first's methods and attributes
            assert node.name not in self.classes, (
                f"{rel}:{node.lineno}: a second class {node.name}")
            scope.cls = node.name
            self.classes[node.name] = _Class(node)
            parent.binders.setdefault(node.name, []).append(("class", node.name))
            return
        # a nested function or lambda sees its method's class
        scope.cls = None if in_class else parent.cls
        if isinstance(node, _FUNCS):
            atom = ("f", id(node))
            self.functions[id(node)] = (node, scope)
            if parent.node is None:
                self.function_names.setdefault(node.name, []).append(atom)
            if in_class:
                decorators = {d.id if isinstance(d, ast.Name) else
                              getattr(d, "attr", "") for d in node.decorator_list}
                if not decorators & {"property", "cached_property"}:
                    self.classes[parent.node.name].methods[node.name] = (
                        node, scope)
                scope.cls = parent.node.name
                first = (node.args.posonlyargs + node.args.args)[:1]
                if first and not decorators & {"staticmethod", "classmethod"}:
                    scope.self_name = first[0].arg
            else:
                parent.binders.setdefault(node.name, []).append(("atom", atom))
        args = node.args
        positional = args.posonlyargs + args.args
        defaults = [None] * (len(positional) - len(args.defaults)) + list(
            args.defaults)
        for arg, default in list(zip(positional, defaults)) + list(
                zip(args.kwonlyargs, args.kw_defaults)):
            scope.binders.setdefault(arg.arg, []).append(
                ("param", arg.annotation, default, parent))
        for arg in (args.vararg, args.kwarg):
            if arg is not None:
                scope.binders.setdefault(arg.arg, []).append(("unknown",))

    def _self_class(self, scope: _Scope, name: str) -> Optional[str]:
        """The class ``name`` is the ``self`` of, seen from ``scope``."""
        while scope.node is not None and not isinstance(scope.node, ast.ClassDef):
            if scope.self_name == name:
                return scope.cls
            if name in scope.binders:
                return None
            scope = scope.parent
        return None

    def _bind(self, node, scope: _Scope, package: str) -> None:
        in_class = isinstance(scope.node, ast.ClassDef)
        binders = scope.binders
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if isinstance(node, ast.Import):
                    name = alias.asname or alias.name.split(".")[0]
                    binder = ("module", alias.name if alias.asname else name)
                else:
                    base = node.module or ""
                    if node.level:
                        parts = package.split(".")
                        parts = parts[:len(parts) - node.level + 1]
                        base = ".".join(parts + ([base] if base else []))
                    name = alias.asname or alias.name
                    binder = ("from", base, alias.name)
                binders.setdefault(name, []).append(binder)
        elif isinstance(node, (ast.Global, ast.Nonlocal)):
            for name in node.names:
                binders.setdefault(name, []).append(("unknown",))
        elif isinstance(node, ast.ExceptHandler):
            if node.name:
                binders.setdefault(node.name, []).append(("unknown",))
        elif isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                if item.optional_vars is not None:
                    self._target(item.optional_vars, ("unknown",), scope, (),
                                 in_class)
        elif isinstance(node, (ast.For, ast.AsyncFor, ast.comprehension)):
            self._target(node.target, ("iter", node.iter), scope, (), in_class)
        elif isinstance(node, ast.AnnAssign):
            self._target(node.target, ("ann", node.annotation), scope, (),
                         in_class)
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                self._target(target, ("value", node.value), scope, (), in_class)
        elif isinstance(node, ast.NamedExpr):
            self._target(node.target, ("value", node.value), scope, (), in_class)

    def _target(self, target, binder, scope, path, in_class) -> None:
        entry = binder + (scope, path)
        if isinstance(target, ast.Name):
            if not in_class:
                scope.binders.setdefault(target.id, []).append(entry)
                return
            owner, attr = self.classes[scope.node.name], target.id
        elif isinstance(target, (ast.Tuple, ast.List)):
            for i, element in enumerate(target.elts):
                if isinstance(element, ast.Starred):
                    self._target(element.value, ("unknown",), scope, (), in_class)
                else:
                    self._target(element, binder, scope, path + (i,), in_class)
            return
        elif isinstance(target, ast.Attribute):
            owner = None
            if isinstance(target.value, ast.Name):
                owner = self._self_class(scope, target.value.id)
            if owner is None:
                self.assigned_outside.add(target.attr)
                return
            owner, attr = self.classes[owner], target.attr
        else:
            return
        owner.attrs.setdefault(attr, []).append(entry)
        if binder[0] == "ann":
            owner.annotated.add(attr)

    # -- types ------------------------------------------------------------------

    def scope_at(self, module: str, node) -> _Scope:
        scopes, starts, top = self._index[module]
        position = (node.lineno, node.col_offset)
        i = bisect.bisect_right(starts, position) - 1
        scope = scopes[i] if i >= 0 else top
        while scope is not top and scope.end <= position:
            scope = scope.parent
        return scope

    def family(self, name: str) -> FrozenSet[str]:
        """``name``, its bases and its subclasses, transitively."""
        found = self._family.get(name)
        if found is None:
            seen = {name}
            for step in ("bases", "subclasses"):
                todo = [name]
                while todo:
                    more = getattr(self.classes[todo.pop()], step)
                    seen.update(more)
                    todo.extend(more)
            found = self._family[name] = frozenset(seen)
        return found

    def _guarded(self, key, compute) -> Type:
        """``compute()``, memoised.  A key met again while it is being
        computed is a cycle (``x = x or Default()``): it reads as what
        is known so far, and the cycle's head recomputes until that
        stops growing.  What depends on an unfinished head is not kept."""
        if key in self._memo:
            return self._memo[key]
        depth = self._busy.get(key)
        if depth is not None:
            self._lowest = min(self._lowest, depth)
            return self._assumed.get(key, NOTHING)
        depth = self._busy[key] = len(self._busy)
        outer = self._lowest
        try:
            for _ in range(_ROUNDS):
                self._lowest = _FAR
                result = compute()
                if self._lowest != depth or self._assumed.get(key) == result:
                    break
                self._assumed[key] = result
            else:
                result = None
        finally:
            del self._busy[key]
            self._assumed.pop(key, None)
        lowest = self._lowest
        if lowest >= depth:
            self._memo[key] = result
        self._lowest = min(outer, lowest if lowest < depth else _FAR)
        return result

    def name_type(self, name: str, scope: _Scope) -> Type:
        while True:
            if scope.self_name == name:
                return frozenset({("i", scope.cls)})
            binders = scope.binders.get(name)
            if binders:
                return self._guarded((id(scope), name),
                                     lambda: self._declared(binders))
            if scope.node is None:
                return self._global_fallback(name)
            scope = scope.lookup_parent()

    def _declared(self, binders: List[tuple]) -> Type:
        """The type of a name or attribute bound by each of ``binders``.
        An annotation declares it: other bindings add only instances."""
        if any(b[0] == "ann" for b in binders):
            return union(*(self.binder_type(b) if b[0] == "ann" else
                           _instances(self.binder_type(b)) for b in binders))
        return union(*(self.binder_type(b) for b in binders))

    def _global_fallback(self, name: str) -> Type:
        """A name bound nowhere the walk sees: a lazily exported or
        builtin name."""
        if name in self.classes:
            return frozenset({("c", name)})
        atoms = self.function_names.get(name)
        if atoms and len(atoms) == 1:
            return frozenset(atoms)
        return None

    def module_attr(self, dotted: str, name: str) -> Type:
        top = self.modules.get(dotted)
        if top is None:
            return None
        if name in top.binders:
            return self.name_type(name, top)
        if f"{dotted}.{name}" in self.modules:
            return frozenset({("m", f"{dotted}.{name}")})
        return self._global_fallback(name)

    def binder_type(self, binder: tuple) -> Type:
        kind = binder[0]
        if kind == "class":
            return frozenset({("c", binder[1])})
        if kind == "atom":
            return frozenset({binder[1]})
        if kind == "module":
            return frozenset({("m", binder[1])}) if binder[1] in self.modules \
                else OTHER
        if kind == "from":
            base, name = binder[1], binder[2]
            if base in self.modules:
                return self.module_attr(base, name)
            return self._global_fallback(name) if base.startswith(
                ("repro", "bench")) else OTHER
        if kind == "param":
            _, annotation, default, outer = binder
            declared = self.annotation(annotation, outer)
            if declared is None or default is None:
                return declared
            return declared | _instances(self.type_of(default, outer))
        if kind == "unknown":
            return None
        scope, path = binder[-2], binder[-1]
        if kind == "ann":
            t = self.annotation(binder[1], scope)
        elif kind == "iter":
            t = self.element(self.type_of(binder[1], scope))
        else:
            t = self.type_of(binder[1], scope)
        for index in path:
            t = self._unpack(t, index)
        return t

    @staticmethod
    def _unpack(t: Type, index: int) -> Type:
        if t is None or any(atom[0] != "t" for atom in t):
            return None
        return union(*(atom[1][index] if index < len(atom[1]) else None
                       for atom in t))

    @staticmethod
    def element(t: Type) -> Type:
        """What iterating a value of type ``t`` yields."""
        if t is None or any(atom[0] != "l" for atom in t):
            return None
        return union(*(atom[1] for atom in t))

    def annotation(self, node, scope: _Scope) -> Type:
        if node is None:
            return None
        return self._guarded(("ann", id(node)),
                             lambda: self._annotation(node, scope))

    def _annotation(self, node, scope: _Scope) -> Type:
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                parsed = ast.parse(node.value, mode="eval").body
            except SyntaxError:
                return None
            # kept: the walk memoises expression types by ``id``
            self._parsed.append(parsed)
            return self._annotation(parsed, scope)
        if isinstance(node, (ast.Name, ast.Attribute)):
            t = self.type_of(node, scope)
            if t and all(atom[0] in ("c", "f") for atom in t):
                # a factory named like a class stands for what it returns
                return self._call_value(t)
            return None
        if isinstance(node, ast.Subscript):
            base = node.value
            name = base.id if isinstance(base, ast.Name) else getattr(
                base, "attr", None)
            args = node.slice.elts if isinstance(node.slice, ast.Tuple) \
                else [node.slice]
            if name == "Optional":
                return self._annotation(args[0], scope)
            if name == "Union":
                return union(*(self._annotation(a, scope) for a in args))
            if name in _SEQUENCES:
                return frozenset({("l", self._annotation(args[0], scope))})
            if name in _MAPPINGS:
                return frozenset({("d", self._annotation(args[0], scope),
                                   self._annotation(args[-1], scope))})
        return None

    def type_of(self, node, scope: _Scope) -> Type:
        if isinstance(node, ast.Name):
            return self.name_type(node.id, scope)
        return self._guarded(id(node), lambda: self._type_of(node, scope))

    def _type_of(self, node, scope: _Scope) -> Type:
        if isinstance(node, ast.Attribute):
            return self.attribute(self.type_of(node.value, scope), node.attr)
        if isinstance(node, ast.Call):
            return self.call(node, scope)
        if isinstance(node, ast.Constant):
            return NOTHING if node.value is None else OTHER
        if isinstance(node, (ast.List, ast.Set)):
            return frozenset({("l", None)})
        if isinstance(node, ast.Tuple):
            return frozenset({("t", tuple(self.type_of(e, scope)
                                          for e in node.elts))})
        if isinstance(node, ast.Dict):
            return frozenset({("d", None, None)})
        if isinstance(node, ast.DictComp):
            return frozenset({("d", self.type_of(node.key, scope),
                               self.type_of(node.value, scope))})
        if isinstance(node, ast.BoolOp):
            return union(*(self.type_of(v, scope) for v in node.values))
        if isinstance(node, ast.IfExp):
            return union(self.type_of(node.body, scope),
                         self.type_of(node.orelse, scope))
        if isinstance(node, ast.Subscript):
            return self.subscript(self.type_of(node.value, scope), node.slice)
        return None

    def attribute(self, t: Type, name: str) -> Type:
        """The type of ``value.name`` where ``value`` has type ``t``."""
        if t is None:
            return None
        parts = []
        for atom in t:
            kind = atom[0]
            if kind == "i":
                parts.append(self.field(atom[1], name))
            elif kind == "m":
                parts.append(self.module_attr(atom[1], name))
            else:
                return None
        return union(*parts)

    def field(self, name: str, attr: str) -> Type:
        """The type of attribute ``attr`` of an instance of ``name``."""
        return self._guarded(("field", name, attr),
                             lambda: self._field(name, attr))

    def _field(self, name: str, attr: str) -> Type:
        parts = []
        for member in self.family(name):
            binders = self.classes[member].attrs.get(attr)
            if not binders:
                continue
            if attr in self.assigned_outside and \
                    attr not in self.classes[member].annotated:
                return None
            parts.append(self._declared(binders))
        return union(*parts) if parts else None

    def _returns(self, name: str, method: str) -> Type:
        """The return annotation of ``name.method``: the definition
        ``name`` inherits and every override below it."""
        owners, todo = [], [name]
        while todo:
            current = todo.pop()
            if method in self.classes[current].methods:
                owners.append(current)
                break
            todo.extend(self.classes[current].bases)
        stack = list(self.classes[name].subclasses)
        while stack:
            current = stack.pop()
            if method in self.classes[current].methods:
                owners.append(current)
            stack.extend(self.classes[current].subclasses)
        if not owners:
            return None
        parts = []
        for owner in owners:
            node, scope = self.classes[owner].methods[method]
            parts.append(self.annotation(node.returns, scope.parent))
        return union(*parts)

    def subscript(self, t: Type, index) -> Type:
        if t is None:
            return None
        parts = []
        for atom in t:
            kind = atom[0]
            if kind == "d":
                parts.append(atom[2])
            elif kind == "t" and isinstance(index, ast.Constant) and \
                    isinstance(index.value, int) and \
                    -len(atom[1]) <= index.value < len(atom[1]):
                parts.append(atom[1][index.value])
            elif kind == "t" and not isinstance(index, ast.Slice):
                parts.append(union(*atom[1]))
            else:
                return None
        return union(*parts)

    def call(self, node: ast.Call, scope: _Scope) -> Type:
        func = node.func
        if isinstance(func, ast.Name):
            if func.id in ("min", "max", "next") and not self._bound(
                    func.id, scope):
                args = node.args
                if len(args) == 1:
                    return self.element(self.type_of(args[0], scope))
                return union(*(self.type_of(a, scope) for a in args))
            return self._call_value(self.name_type(func.id, scope))
        if not isinstance(func, ast.Attribute):
            return None
        receiver = self.type_of(func.value, scope)
        if receiver is None:
            return None
        method = func.attr
        parts = []
        for atom in receiver:
            kind = atom[0]
            if kind in ("i", "c"):
                parts.append(self._returns(atom[1], method))
            elif kind == "m":
                parts.append(self._call_value(self.module_attr(atom[1], method)))
            elif kind == "d" and method in ("get", "pop", "setdefault"):
                value = atom[2]
                extra = [self.type_of(a, scope) for a in node.args[1:2]]
                parts.append(union(value, *extra) if value is not None
                             else None)
            elif kind == "d" and method == "values":
                parts.append(frozenset({("l", atom[2])}))
            else:
                return None
        return union(*parts)

    def _bound(self, name: str, scope: _Scope) -> bool:
        while True:
            if name in scope.binders or scope.self_name == name:
                return True
            if scope.node is None:
                return name in self.classes or len(
                    self.function_names.get(name, ())) == 1
            scope = scope.lookup_parent()

    def _call_value(self, t: Type) -> Type:
        """What calling a value of type ``t`` returns."""
        if t is None:
            return None
        parts = []
        for atom in t:
            if atom[0] == "c":
                parts.append(frozenset({("i", atom[1])}))
            elif atom[0] == "f":
                function, scope = self.functions[atom[1]]
                parts.append(self.annotation(function.returns, scope.parent))
            else:
                return None
        return union(*parts)


def method_references(modules: Iterable[Module], names: Set[str]
                      ) -> Tuple[Set[Tuple[str, str]], Set[str]]:
    """Every attribute of ``modules`` named in ``names``, resolved.

    Returns ``(class, method)`` for each resolved receiver — the class
    stands for its whole family — and the set of method names read
    through a receiver that stayed unresolved.
    """
    program = Program(modules, names)
    resolved = set(program.class_body_reads)
    by_name: Set[str] = set()
    for dotted, node in program.attributes:
        t = program.type_of(node.value, program.scope_at(dotted, node))
        if t is None:
            by_name.add(node.attr)
            continue
        for atom in t:
            if atom[0] in ("i", "c"):
                for member in program.family(atom[1]):
                    resolved.add((member, node.attr))
    return resolved, by_name
