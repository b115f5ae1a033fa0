"""Regenerate bench/reference.json from the program as it is now.

Usage: python3 bench/make_reference.py

Run it only on a commit whose outputs are trusted: the benchmark treats the
values it records as correct.  The billiard verify op draws one extra pair
from ``billiard_pool()``, so every pool pair is recorded here.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import geoblock.cli as cli  # noqa: E402

from checks import parse_block, parse_count, parse_octagon, parse_verify  # noqa: E402
from workloads import BILLIARD_PAIRS, billiard_pool, build_plan  # noqa: E402

PARSERS = {"count": parse_count, "block": parse_block, "verify": parse_verify, "octagon-report": parse_octagon}


def main() -> int:
    reference: dict = {}
    work = Path(tempfile.mkdtemp(prefix="geoblock-reference-", dir=HERE.parent))
    try:
        for workload in ("count-growth", "torus-verify", "billiard-solve"):
            plan = build_plan(workload, 0, work / workload)
            if workload == "billiard-solve":
                cfg = json.loads(Path(plan["configs"][0]).read_text())
                cfg["pairs"] = BILLIARD_PAIRS + billiard_pool()
                Path(plan["configs"][0]).write_text(json.dumps(cfg))
            for op in plan["ops"]:
                ref = op["check"].get("ref")
                if ref is None:
                    continue
                code = cli.main(op["argv"])
                if code != 0:
                    raise SystemExit(f"{op['name']} exited {code}; no reference written")
                reference[ref] = PARSERS[op["kind"]](Path(op["out"]))
                print(f"{op['name']}: {ref}", file=sys.stderr)
    finally:
        shutil.rmtree(work)
    lines = []
    for name in sorted(reference):
        cells = reference[name]
        body = ",\n".join(f"  {json.dumps(k)}: {json.dumps(cells[k])}" for k in sorted(cells))
        lines.append(f"{json.dumps(name)}: {{\n{body}\n }}")
    (HERE / "reference.json").write_text("{\n" + ",\n".join(lines) + "\n}\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
