"""One client process: set up, then run one pass over a workload's ops.

Usage: python3 bench/worker.py PLAN.json setup|run|trace RESULT.json

It imports geoblock from the checkout's ``src``, parses every config of the
plan, prints ``ready`` (the end of set-up), runs the ops one after another
through the ``geoblock`` CLI entry point, and writes the pass result.
``trace`` mode wraps geoblock's layers first (see tracing.py).
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent


def _output_bytes(out: str) -> int:
    if not Path(out).is_dir():
        return 0
    return sum(p.stat().st_size for p in Path(out).rglob("*") if p.is_file())


def main(argv: list[str]) -> int:
    plan_path, mode, result_path = argv
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import geoblock.cli as cli
    from geoblock.harness import ExperimentConfig

    if not Path(cli.__file__).resolve().is_relative_to(src):
        raise SystemExit(f"geoblock imported from {cli.__file__}, not from {src}")
    plan = json.loads(Path(plan_path).read_text())
    for path in plan["configs"]:
        cfg = ExperimentConfig.from_file(path)
        cfg.preset() if cfg.is_fuchsian else cfg.flat_space()
    print("ready", flush=True)
    if mode == "setup":
        return 0

    tracer = None
    main_fn = cli.main
    if mode == "trace":
        from tracing import ROOT as ROOT_SPAN, Tracer

        tracer = Tracer()
        tracer.install()
        main_fn = tracer.wrap(ROOT_SPAN, cli.main)

    ops = []
    pass_start = perf_counter()
    for i, op in enumerate(plan["ops"]):
        if tracer:
            tracer.op = i
        stdout, stderr = io.StringIO(), io.StringIO()
        error = None
        start = perf_counter()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            try:
                code = main_fn(op["argv"])
            except SystemExit as exc:  # argparse usage errors
                code = exc.code
            except Exception:  # an op that raises is a failed op, not a crash
                code, error = None, traceback.format_exc(limit=8)
        seconds = perf_counter() - start
        out = stdout.getvalue()
        ops.append({
            "name": op["name"],
            "code": code,
            "seconds": seconds,
            "error": error,
            "stderr": stderr.getvalue()[-2000:],
            "bytes": _output_bytes(op["out"]) + len(out.encode()),
        })
    wall = perf_counter() - pass_start
    result = {
        "mode": mode,
        "wall_s": wall,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "ops": ops,
        "spans": tracer.spans if tracer else None,
    }
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
