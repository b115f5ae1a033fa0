"""No dead code: every function and class defined in the package is named
somewhere else in the sources, the tests or the benchmark, and every field
of a class is read somewhere."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _texts() -> list[str]:
    return [p.read_text() for d in ("src", "tests", "bench") for p in sorted((ROOT / d).rglob("*.py"))]


def test_every_definition_is_referenced():
    texts = _texts()
    unused = []
    for path in sorted((ROOT / "src" / "geoblock").glob("*.py")):
        for name in re.findall(r"^\s*(?:def|class)\s+(\w+)", path.read_text(), re.M):
            if name.startswith("__") and name.endswith("__"):
                continue
            word = re.compile(rf"\b{name}\b")
            # the definition itself is one occurrence
            if sum(len(word.findall(text)) for text in texts) < 2:
                unused.append(f"{path.name}: {name}")
    assert not unused


def test_every_field_is_read():
    # a field counts as read when some source names it as an attribute; a
    # name shared with another class's attribute passes unseen
    texts = _texts()
    unread = []
    for path in sorted((ROOT / "src" / "geoblock").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.ClassDef):
                continue
            for stmt in node.body:
                if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
                    field = re.compile(rf"\.{stmt.target.id}\b")
                    if not any(field.search(text) for text in texts):
                        unread.append(f"{path.name}: {node.name}.{stmt.target.id}")
    assert not unread
