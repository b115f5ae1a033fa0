"""No dead code: every function and class defined in the package is read by
the program itself, by the benchmark or by the README's library examples,
and every field is read as an attribute somewhere.

A read of a definition is an AST name, attribute or ``from ... import`` name
in a package module other than ``__init__`` or in a README python block, or
a word in a ``bench/*.py`` file (the benchmark names functions in strings).
Tests, docstrings, comments, ``__all__`` and the ``__init__`` re-exports do
not count: a function or class only they mention is API that nothing uses.

A read of a field is an AST attribute load (``obj.field``) in the package,
the README blocks or the tests, or ``.field`` in a ``bench/*.py`` file: a
field of a returned record is part of what its function computes, so a test
reading it counts, but a bare name, such as the constructor argument that
fills the field, does not.
"""

import ast
import importlib
import importlib.util
import inspect
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "geoblock"

# name -> why it may stay without a reader
ALLOWED = {
    "word_growth": "caller arrives with ROADMAP item 2",
}


def _modules() -> list[Path]:
    return [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]


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


def _attribute_loads(source: str) -> set[str]:
    return {
        node.attr
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }


def _bench_text() -> str:
    return "\n".join(p.read_text() for p in sorted((ROOT / "bench").glob("*.py")))


def _is_read(name: str, names: set[str], bench: str) -> bool:
    """A definition is read: some AST reader names it, the benchmark has the
    word, or the allow-list keeps it."""
    return name in names or re.search(rf"\b{name}\b", bench) is not None or name in ALLOWED


def _definition_reads() -> set[str]:
    names = set()
    for source in [p.read_text() for p in _modules()] + _readme_blocks():
        names |= _ast_reads(source)
    return names


def _field_reads() -> set[str]:
    sources = [p.read_text() for p in _modules()] + _readme_blocks()
    sources += [p.read_text() for p in sorted((ROOT / "tests").glob("*.py"))]
    attrs = set()
    for source in sources:
        attrs |= _attribute_loads(source)
    return attrs


def _definitions():
    """(module, owner, name, node) for every def and class at any depth:
    methods, nested helpers and nested classes included.  The owner is the
    dotted path of the enclosing defs and classes, or None at module level."""
    scopes = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for path in _modules():
        stack = [(ast.parse(path.read_text()), None)]
        while stack:
            node, owner = stack.pop()
            for child in ast.iter_child_nodes(node):
                if isinstance(child, scopes):
                    yield path.name, owner, child.name, child
                    stack.append((child, f"{owner}.{child.name}" if owner else child.name))
                else:
                    stack.append((child, owner))


def test_every_definition_is_referenced():
    names, bench = _definition_reads(), _bench_text()
    unread = [
        f"{module}: {owner + '.' if owner else ''}{name}"
        for module, owner, name, _ in _definitions()
        if not (name.startswith("__") and name.endswith("__")) and not _is_read(name, names, bench)
    ]
    assert not unread


def test_every_field_is_read():
    # a field counts as read when some reader loads it as an attribute; a
    # name shared with another class's attribute passes unseen
    attrs, bench = _field_reads(), _bench_text()
    unread = []
    for module, _, name, node in _definitions():
        if not isinstance(node, ast.ClassDef):
            continue
        for stmt in node.body:
            if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                field = stmt.target.id
                if field not in attrs and not re.search(rf"\.{field}\b", bench):
                    unread.append(f"{module}: {name}.{field}")
    assert not unread


def test_allow_list_is_needed():
    # an entry whose name gained a reader, or lost its definition, goes
    names, bench = _definition_reads(), _bench_text()
    defined = {name for _, _, name, _ in _definitions()}
    stale = [n for n in ALLOWED if n not in defined or n in names or re.search(rf"\b{n}\b", bench)]
    assert not stale


def test_all_names_only_what_the_module_defines():
    stray = []
    for path in _modules():
        tree = ast.parse(path.read_text())
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
        stray += [f"{path.name}: {name}" for name in exported if name not in defined]
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


@pytest.mark.parametrize("block", _readme_blocks())
def test_readme_examples_run(block):
    exec(compile(block, "README.md", "exec"), {})
