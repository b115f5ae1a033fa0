"""No dead code: every function and class defined in the package is read by
the program itself, by the benchmark or by the README's library examples;
every field is read and every option is passed by them.

A read of a definition is an AST name, attribute or ``from ... import`` name
in a package module other than ``__init__`` or in a README python block, or
a word in a ``bench/*.py`` file (the benchmark names functions in strings).
Tests, docstrings, comments, ``__all__`` and the ``__init__`` re-exports do
not count: a function or class only they mention is API that nothing uses.

A read of a field is an AST attribute load (``obj.field``) in a package
module, a README block or a ``bench/*.py`` file; tests do not count.  Each
load is keyed on the class of its receiver when that type is known
statically (``_Receivers``; the benchmark's own classes count as classes
there), and then counts for that class only: a field that shares its name
with another class's field is not kept alive by the other's reads.  An
unresolved load counts for every class with a field of that name.  A bare
name, such as the constructor argument that fills the field, is not a read.

An option is a defaulted parameter of a package function.  It must be
passed by a program call, a call in a package module other than
``__init__`` or in a README block, matched to the function by name: by
keyword, by position, or through a ``*`` or ``**`` splat.  Otherwise it
must be a keyword argument of a call in a ``bench/*.py`` file.

A config key that ``harness`` accepts must be read: a ``.get("key")`` or
``["key"]`` in ``harness.py`` or in ``load_space``, which takes the geometry
mapping whole.

One flat engine: a load of ``FlatSpace.kind`` or ``FlatSpace.is_torus`` in
the package, keyed on its receiver as field reads are (an unresolved
receiver counts), must sit in a function that ``KIND_READS_ALLOWED`` lists
with the ROADMAP item that removes it, so no new kind branch lands unnoticed.
"""

import ast
import importlib
import importlib.util
import inspect
import re
import textwrap
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "geoblock"

# name -> why it may stay without a reader
ALLOWED = {
    "word_growth": "caller arrives with ROADMAP item 2",
}
# function.option -> why no program call passes it
OPTIONS_ALLOWED = {
    "main.argv": "tests drive the CLI through it",
}
# function, as its dotted path -> the ROADMAP item that removes its kind read
KIND_READS_ALLOWED = {
    "FlatSpace.is_torus": "item 8: the group decides, and the property goes with its last reader",
    "midpoint_cover": "item 10: a midpoint cover for every flat group",
    "blocking_cost_sampled": "item 10: the ceiling 4|G| on every flat space",
    "cmd_report": "item 8: s_max <= 4, report text (item 10's 4|G|)",
}


def _sources() -> dict[str, str]:
    """The package modules other than ``__init__``, by file name."""
    return {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"}


def _readme_blocks() -> list[str]:
    return re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(), re.M | re.S)


def _ast_reads(source: str) -> set[str]:
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def _bench_text() -> str:
    return "\n".join(_bench_sources())


def _is_read(name: str, names: set[str], bench: str) -> bool:
    """A definition is read: some AST reader names it, the benchmark has the
    word, or the allow-list keeps it."""
    return name in names or re.search(rf"\b{name}\b", bench) is not None or name in ALLOWED


def _definition_reads() -> set[str]:
    names = set()
    for source in list(_sources().values()) + _readme_blocks():
        names |= _ast_reads(source)
    return names


def _definitions(sources: dict[str, str]):
    """(module, owner, name, node) for every def and class at any depth:
    methods, nested helpers and nested classes included.  The owner is the
    dotted path of the enclosing defs and classes, or None at module level."""
    scopes = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for module, source in sources.items():
        stack = [(ast.parse(source), None)]
        while stack:
            node, owner = stack.pop()
            for child in ast.iter_child_nodes(node):
                if isinstance(child, scopes):
                    yield module, owner, child.name, child
                    stack.append((child, f"{owner}.{child.name}" if owner else child.name))
                else:
                    stack.append((child, owner))


def _fields(node: ast.ClassDef) -> list[str]:
    return [s.target.id for s in node.body if isinstance(s, ast.AnnAssign) and isinstance(s.target, ast.Name)]


def _decorators(node) -> set[str]:
    return {d.id for d in node.decorator_list if isinstance(d, ast.Name)}


_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef,
           ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
_CONFLICT = object()


class _Scope:
    """Static types of the names a function, lambda, comprehension or module
    binds.  A type is a frozenset of package class names, ("seq", element
    type), or None when unknown; a name bound to two types is unknown."""

    def __init__(self, parent: "_Scope | None" = None):
        self.parent, self.types = parent, {}

    def bind(self, name: str, typ) -> None:
        if name in self.types and self.types[name] != typ:
            typ = _CONFLICT
        self.types[name] = typ

    def lookup(self, name: str):
        scope = self
        while scope is not None:
            if name in scope.types:
                typ = scope.types[name]
                return None if typ is _CONFLICT else typ
            scope = scope.parent
        return None

    def binds(self, name: str) -> bool:
        return name in self.types or (self.parent is not None and self.parent.binds(name))


class _Receivers:
    """The field loads of the ``readers`` sources, keyed on the class of the
    receiver among the classes the ``defining`` sources declare.

    A receiver's type is known for ``self`` in a method, an annotated
    parameter, a name bound once by assignment, a call to a package class
    or to a function or method whose return is annotated, a chain through a
    field or property annotation, and a ``for`` or comprehension target
    over a ``list[T]``, ``tuple[T, ...]``, ``Sequence[T]`` or
    ``Iterator[T]``; a list comprehension or generator of T is a ``list[T]``.
    """

    SEQUENCES = ("list", "Sequence", "Iterator")

    def __init__(self, defining: list[str], readers: list[str]):
        self.attrs: dict[str, dict[str, ast.expr | None]] = {}  # fields and properties
        self.methods: dict[str, dict[str, ast.expr | None]] = {}  # return annotations
        self.functions: dict[str, ast.expr | None] = {}
        for tree in map(ast.parse, defining):
            for node in ast.walk(tree):
                if isinstance(node, ast.ClassDef):
                    attrs, methods = self.attrs.setdefault(node.name, {}), self.methods.setdefault(node.name, {})
                    for stmt in node.body:
                        if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                            attrs[stmt.target.id] = stmt.annotation
                        elif isinstance(stmt, ast.FunctionDef):
                            (attrs if "property" in _decorators(stmt) else methods)[stmt.name] = stmt.returns
            in_classes = {id(s) for n in ast.walk(tree) if isinstance(n, ast.ClassDef) for s in n.body}
            for node in ast.walk(tree):
                # a function name defined twice with different returns is unknown
                if isinstance(node, ast.FunctionDef) and id(node) not in in_classes:
                    known = self.functions.setdefault(node.name, node.returns)
                    if ast.dump(known or ast.Pass()) != ast.dump(node.returns or ast.Pass()):
                        self.functions[node.name] = None
        self.resolved: dict[str, set[str]] = {}
        self.unresolved: set[str] = set()
        # (receiver classes or None, field, dotted path of the enclosing def or None)
        self.loads: list[tuple[frozenset | None, str, str | None]] = []
        for tree in map(ast.parse, readers):
            self._scope(tree.body, _Scope(), None)

    def annotation(self, node):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            return self.annotation(ast.parse(node.value, mode="eval").body)
        if isinstance(node, ast.Name):
            return frozenset([node.id]) if node.id in self.attrs else None
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
            # X | None reads as X; a union of classes as each of them
            parts = [p for p in (node.left, node.right) if not (isinstance(p, ast.Constant) and p.value is None)]
            return _join([self.annotation(p) for p in parts], union=True)
        if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Name):
            arg = node.slice
            if node.value.id == "tuple":
                if not (isinstance(arg, ast.Tuple) and len(arg.elts) == 2
                        and isinstance(arg.elts[1], ast.Constant) and arg.elts[1].value is Ellipsis):
                    return None
                arg = arg.elts[0]
            elif node.value.id not in self.SEQUENCES:
                return None
            inner = self.annotation(arg)
            return ("seq", inner) if inner is not None else None
        return None

    def type_of(self, node, scope: _Scope):
        if isinstance(node, ast.Name):
            return scope.lookup(node.id)
        if isinstance(node, ast.Attribute):
            owner = self.type_of(node.value, scope)
            if isinstance(owner, frozenset):
                return _join([self.annotation(self.attrs[c].get(node.attr)) for c in owner])
            return None
        if isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Name) and not scope.binds(func.id):
                if func.id in self.attrs:
                    return frozenset([func.id])
                return self.annotation(self.functions.get(func.id))
            if isinstance(func, ast.Attribute):
                if isinstance(func.value, ast.Name) and func.value.id in self.attrs and not scope.binds(func.value.id):
                    owner = frozenset([func.value.id])  # Class.classmethod(...)
                else:
                    owner = self.type_of(func.value, scope)
                if isinstance(owner, frozenset):
                    return _join([self.annotation(self.methods[c].get(func.attr)) for c in owner])
        if isinstance(node, (ast.ListComp, ast.GeneratorExp)):
            inner = self._comprehension(node, scope)
            elt = self.type_of(node.elt, inner)
            return ("seq", elt) if elt is not None else None
        return None

    def _comprehension(self, node, scope: _Scope) -> _Scope:
        inner = _Scope(scope)
        for gen in node.generators:
            self._bind_target(gen.target, self._element(gen.iter, inner), inner)
        return inner

    def _bind_target(self, target, typ, scope: _Scope) -> None:
        if isinstance(target, ast.Name):
            scope.bind(target.id, typ)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._bind_target(elt.value if isinstance(elt, ast.Starred) else elt, None, scope)

    def _element(self, iterable, scope: _Scope):
        typ = self.type_of(iterable, scope)
        return typ[1] if isinstance(typ, tuple) else None

    def _local(self, nodes):
        """The nodes of one scope in source order, nested scopes left out."""
        for node in nodes:
            yield node
            if not isinstance(node, _SCOPES):
                yield from self._local(ast.iter_child_nodes(node))

    def _scope(
        self, body, scope: _Scope, cls: str | None, outer: _Scope | None = None, where: str | None = None
    ) -> None:
        """Bind the names the statements bind, in source order, then record
        their field loads, descending into nested scopes.  ``cls`` names the
        class whose body this is, and functions defined here close over
        ``outer`` (a class body's enclosing scope), by default ``scope``.
        ``where`` is the dotted path of the enclosing defs and classes."""
        outer = outer or scope
        for node in self._local(body):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    self._bind_target(target, self.type_of(node.value, scope), scope)
            elif isinstance(node, ast.AnnAssign):
                typ = self.annotation(node.annotation)
                if typ is None and node.value is not None:
                    typ = self.type_of(node.value, scope)
                self._bind_target(node.target, typ, scope)
            elif isinstance(node, (ast.For, ast.AsyncFor)):
                self._bind_target(node.target, self._element(node.iter, scope), scope)
            elif isinstance(node, (ast.AugAssign, ast.NamedExpr)):
                self._bind_target(node.target, None, scope)
            elif isinstance(node, ast.withitem) and node.optional_vars is not None:
                self._bind_target(node.optional_vars, None, scope)
            elif isinstance(node, ast.ExceptHandler) and node.name:
                scope.bind(node.name, None)
        for node in self._local(body):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                owner = self.type_of(node.value, scope)
                if isinstance(owner, frozenset):
                    for c in owner:
                        self.resolved.setdefault(c, set()).add(node.attr)
                else:
                    owner = None
                    self.unresolved.add(node.attr)
                self.loads.append((owner, node.attr, where))
            elif isinstance(node, ast.ClassDef):
                self._scope(node.body, _Scope(scope), node.name, outer, _dotted(where, node.name))
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                self._function(node, outer, scope, cls, where)
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
                inner = self._comprehension(node, scope)
                parts = [node.key, node.value] if isinstance(node, ast.DictComp) else [node.elt]
                parts += [e for gen in node.generators for e in [gen.iter, *gen.ifs]]
                self._scope([ast.Expr(p) for p in parts], inner, None, where=where)

    def _function(self, node, outer: _Scope, here: _Scope, cls: str | None, where: str | None) -> None:
        """A function or lambda: its parameters bound over ``outer``, and its
        defaults read in ``here``, where it is defined; ``where`` is the
        dotted path it is defined in."""
        inner = _Scope(outer)
        args = node.args
        starred = [a for a in (args.vararg, args.kwarg) if a is not None]
        plain = (
            cls is not None and not isinstance(node, ast.Lambda)
            and not _decorators(node) & {"staticmethod", "classmethod"}
        )
        for i, arg in enumerate(args.posonlyargs + args.args + args.kwonlyargs + starred):
            typ = frozenset([cls]) if plain and i == 0 else None
            if arg.annotation is not None and arg not in starred:
                typ = self.annotation(arg.annotation)
            inner.bind(arg.arg, typ)
        defaults = args.defaults + [d for d in args.kw_defaults if d is not None]
        self._scope([ast.Expr(d) for d in defaults], here, None, where=where)
        body = [ast.Expr(node.body)] if isinstance(node, ast.Lambda) else node.body
        self._scope(body, inner, None, where=where if isinstance(node, ast.Lambda) else _dotted(where, node.name))


def _dotted(owner: str | None, name: str) -> str:
    return f"{owner}.{name}" if owner else name


def _join(types: list, union: bool = False):
    """The one type all of ``types`` share; with ``union`` the classes of
    any of them.  None when one is unknown or they differ."""
    if not types or any(t is None for t in types):
        return None
    if all(t == types[0] for t in types):
        return types[0]
    if union and all(isinstance(t, frozenset) for t in types):
        return frozenset().union(*types)
    return None


def _unread_fields(sources: dict[str, str], readme: list[str], bench: list[str]) -> list[str]:
    """Fields of the classes in ``sources`` with no read (module docstring)."""
    package = list(sources.values())
    # the benchmark's own classes own the fields it reads from them
    runs = [_Receivers(package, package + readme), _Receivers(package + bench, bench)]
    anywhere = set().union(*(r.unresolved for r in runs))
    unread = []
    for module, _, name, node in _definitions(sources):
        if isinstance(node, ast.ClassDef):
            for field in _fields(node):
                if field not in anywhere and not any(field in r.resolved.get(name, ()) for r in runs):
                    unread.append(f"{module}: {name}.{field}")
    return unread


def _bench_sources() -> list[str]:
    return [p.read_text() for p in sorted((ROOT / "bench").glob("*.py"))]


def _calls(sources: list[str]) -> dict[str, list[tuple[int, set[str], bool]]]:
    """Per called name, each call's (positional count, keywords, whether it
    splats): ``f(...)`` and ``obj.f(...)`` alike."""
    calls: dict[str, list] = {}
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute)):
                name = node.func.id if isinstance(node.func, ast.Name) else node.func.attr
                star = any(isinstance(a, ast.Starred) for a in node.args) or any(k.arg is None for k in node.keywords)
                keywords = {k.arg for k in node.keywords if k.arg is not None}
                calls.setdefault(name, []).append((len(node.args), keywords, star))
    return calls


def _options(sources: dict[str, str]):
    """(label, key, position) for every defaulted parameter of a package
    function: label names it for a failure, key for OPTIONS_ALLOWED, and
    position is its index among the positional arguments a call passes
    (None for keyword-only), not counting ``self`` or ``cls``."""
    defs = list(_definitions(sources))
    methods = {id(s) for _, _, _, node in defs if isinstance(node, ast.ClassDef) for s in node.body}
    for module, owner, name, node in defs:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        args = node.args
        positional = args.posonlyargs + args.args
        bound = id(node) in methods and "staticmethod" not in _decorators(node)
        defaulted = [(a, positional.index(a) - bound) for a in positional[len(positional) - len(args.defaults):]]
        defaulted += [(a, None) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
        for arg, position in defaulted:
            label = f"{module}: {owner + '.' if owner else ''}{name}({arg.arg})"
            yield label, f"{name}.{arg.arg}", position


def _passed(key: str, position: int | None, calls: dict, bench_keywords: set[str]) -> bool:
    name, option = key.split(".")
    return option in bench_keywords or any(
        star or option in keywords or (position is not None and count > position)
        for count, keywords, star in calls.get(name, ())
    )


def _unpassed_options() -> dict[str, str]:
    """key -> label of every option no program call passes."""
    sources = _sources()
    calls = _calls(list(sources.values()) + _readme_blocks())
    bench_keywords = {
        k.arg for source in _bench_sources() for k in ast.walk(ast.parse(source))
        if isinstance(k, ast.keyword) and k.arg is not None
    }
    return {
        key: label
        for label, key, position in _options(sources)
        if not _passed(key, position, calls, bench_keywords)
    }


def test_every_definition_is_referenced():
    names, bench = _definition_reads(), _bench_text()
    unread = [
        f"{module}: {owner + '.' if owner else ''}{name}"
        for module, owner, name, _ in _definitions(_sources())
        if not (name.startswith("__") and name.endswith("__")) and not _is_read(name, names, bench)
    ]
    assert not unread


def test_every_field_is_read():
    assert not _unread_fields(_sources(), _readme_blocks(), _bench_sources())


def test_every_option_is_passed():
    unpassed = [label for key, label in _unpassed_options().items() if key not in OPTIONS_ALLOWED]
    assert not unpassed


def _key_reads(source: str) -> set[str]:
    """The strings read as mapping keys: ``m.get("key", ...)`` and ``m["key"]``."""
    keys = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "get":
            key = node.args[0] if node.args else None
        elif isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Load):
            key = node.slice
        else:
            continue
        if isinstance(key, ast.Constant) and isinstance(key.value, str):
            keys.add(key.value)
    return keys


def test_every_config_key_is_read():
    # an accepted key whose reader is deleted would otherwise linger
    from geoblock.flatspace import load_space
    from geoblock.harness import _CONFIG_KEYS
    source = (PACKAGE / "harness.py").read_text()
    reads = _key_reads(source) | _key_reads(textwrap.dedent(inspect.getsource(load_space)))
    unread = [
        f"{section or 'config'}.{key}"
        for section, keys in _CONFIG_KEYS.items()
        for key in sorted(keys)
        if key not in reads
    ]
    assert not unread


def test_field_reads_are_keyed_on_the_owner():
    # Hit.value and Cost.value share a name and only Hit's is read, through
    # a call's return annotation; Cost.pairs is read through a comprehension
    # over list[Cost].  Matching by name would pass Cost.value as read.
    source = """
from dataclasses import dataclass

@dataclass
class Hit:
    value: int

@dataclass
class Cost:
    value: int
    pairs: tuple

def hit() -> Hit:
    return Hit(1)

def total(costs: list[Cost]) -> int:
    return sum(len(c.pairs) for c in costs) + hit().value
"""
    assert "value" in _ast_reads(source)
    assert _unread_fields({"m.py": source}, [], []) == ["m.py: Cost.value"]
    # an unresolved receiver counts for every owner, in the package, the
    # README and the benchmark alike; a resolved one only for its class
    unresolved = "def any_value(x):\n    return x.value\n"
    assert _unread_fields({"m.py": source + unresolved}, [], []) == []
    assert _unread_fields({"m.py": source}, [unresolved], []) == []
    assert _unread_fields({"m.py": source}, [], [unresolved]) == []
    assert _unread_fields({"m.py": source}, ["print(hit().value)\n"], []) == ["m.py: Cost.value"]


def test_allow_list_is_needed():
    # an entry whose name gained a reader or a passing call, or lost its
    # definition or its kind read, goes
    names, bench = _definition_reads(), _bench_text()
    defined = {name for _, _, name, _ in _definitions(_sources())}
    stale = [n for n in ALLOWED if n not in defined or n in names or re.search(rf"\b{n}\b", bench)]
    stale += [key for key in OPTIONS_ALLOWED if key not in _unpassed_options()]
    stale += [where for where in KIND_READS_ALLOWED if where not in {w for _, w in _kind_reads(_sources())}]
    assert not stale


def _kind_reads(sources: dict[str, str]) -> list[tuple[str, str | None]]:
    """(field, enclosing def) of every load of ``FlatSpace.kind`` or
    ``FlatSpace.is_torus`` in ``sources``: its receiver resolves to
    ``FlatSpace`` or does not resolve (module docstring)."""
    package = list(sources.values())
    return [
        (field, where) for owner, field, where in _Receivers(package, package).loads
        if field in ("kind", "is_torus") and (owner is None or "FlatSpace" in owner)
    ]


def test_kind_reads_are_listed():
    stray = [f"{field} in {where}" for field, where in _kind_reads(_sources()) if where not in KIND_READS_ALLOWED]
    assert not stray
    # keyed on the receiver: another class's kind is no flat-space branch
    source = """
class FlatSpace:
    kind: str

class Preset:
    kind: str

class Sampler:
    def draw(self, space: FlatSpace, preset: Preset):
        return space.kind, preset.kind
"""
    assert _kind_reads({"m.py": source}) == [("kind", "Sampler.draw")]


def test_all_names_only_what_the_module_defines():
    stray = []
    for name_, source in _sources().items():
        tree = ast.parse(source)
        defined = set()
        exported: list[str] = []
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    if isinstance(target, ast.Name):
                        defined.add(target.id)
                        if target.id == "__all__":
                            exported = [ast.literal_eval(e) for e in node.value.elts]
        stray += [f"{name_}: {name}" for name in exported if name not in defined]
    assert not stray


# the lint counts the benchmark's words and the README's blocks as reads;
# the tests below keep those readers real


def test_trace_targets_resolve():
    # Tracer.install looks every target up by name, and the counters read
    # these arguments by name
    spec = importlib.util.spec_from_file_location("tracing", ROOT / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    for module, name, _, _ in tracing.TARGETS:
        assert callable(getattr(importlib.import_module(module), name, None)), f"{module}.{name}"
    for module, name in (("geoblock.flatspace", "connecting_family"), ("geoblock.blocker", "blocking_threshold")):
        params = inspect.signature(getattr(importlib.import_module(module), name)).parameters
        assert {"space", "x", "y"} <= set(params), f"{module}.{name}"


def test_trace_targets_are_called():
    # a traced layer whose function no program code calls reads 0 on working
    # code: each target needs an AST call in the package outside its own body
    spec = importlib.util.spec_from_file_location("tracing", ROOT / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    called = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            own = top.name if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef)) else None
            for node in ast.walk(top):
                if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute)):
                    name = node.func.id if isinstance(node.func, ast.Name) else node.func.attr
                    if name != own:
                        called.add(name)
    assert not [f"{module}.{name}" for module, name, _, _ in tracing.TARGETS if name not in called]


@pytest.mark.parametrize("block", _readme_blocks())
def test_readme_examples_run(block):
    exec(compile(block, "README.md", "exec"), {})
