"""No dead code: every function and class defined in the package is named
somewhere else in the sources, the tests or the benchmark."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_every_definition_is_referenced():
    texts = [p.read_text() for d in ("src", "tests", "bench") for p in sorted((ROOT / d).rglob("*.py"))]
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
