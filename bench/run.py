"""geoblock benchmark: drive the CLI on generated configs, check every
output, and report end-to-end or per-layer metrics.

Usage, from the root of a checkout:

    python3 bench/run.py --workload count-growth --seed 1 --seconds 40 --trace 0

``--workload all`` runs the three workloads one after another.

Each workload is a closed loop: one client runs its ops one after another,
in a fixed order, in one worker process per pass (bench/worker.py).

``--trace 0`` times untraced passes for ``--seconds`` (at least two) and
reports ``setup_s`` (process start until the first op can run; the median
of several start-ups), ``wall_s`` (median pass time), ``peak_rss_mb``
(median peak RSS of the pass process) and ``certified_share`` (result cells
flagged exact, optimal or certified).  Failed ops over attempted ops is the
``failed``/``attempted`` pair of the result line.

``--trace 1`` runs one untraced and two traced passes and reports the
per-layer metrics of tracing.py, the tracing overhead (traced minus
untraced wall time) and the bytes the ops wrote.  Counts must repeat
exactly: between the two traced passes, and between runs of the same seed
on the same source in one checkout (kept in .bench/counters.json).

The last stdout line is one JSON object: correct, attempted, failed,
metrics.  Op outputs go to a temporary directory under .bench/, removed at
exit; the run record (machine, verdicts, metrics, spans) goes to
.bench/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

from checks import check_op  # noqa: E402
from tracing import layer_metrics  # noqa: E402
from workloads import WORKLOADS, build_plan  # noqa: E402

SETUP_SAMPLES = 6
RUN_LIMIT_S = 170.0  # every run must end within 180 s


def source_digest() -> str:
    h = hashlib.sha256()
    for base in (ROOT / "src", HERE):
        for path in sorted(base.rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def machine_info() -> dict:
    commit = None  # a checkout without .git records only the source digest
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    import numpy

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "git_commit": commit,
        "source_digest": source_digest(),
    }


class Runner:
    def __init__(self, plan_path: Path, work: Path, start: float) -> None:
        self.plan_path = plan_path
        self.work = work
        self.start = start
        self.count = 0

    def spawn(self, mode: str) -> tuple[float, dict | None, str]:
        """Start a worker; returns (set-up seconds, pass result or None, error)."""
        self.count += 1
        result_path = self.work / f"pass-{self.count}.json"
        log_path = self.work / f"pass-{self.count}.log"
        budget = RUN_LIMIT_S - (perf_counter() - self.start)
        with open(log_path, "w") as log:
            t0 = perf_counter()
            proc = subprocess.Popen(
                [sys.executable, str(HERE / "worker.py"), str(self.plan_path), mode, str(result_path)],
                cwd=ROOT, stdout=subprocess.PIPE, stderr=log, text=True,
            )
            try:
                ready = proc.stdout.readline().strip() == "ready"
                setup = perf_counter() - t0
                proc.wait(timeout=max(budget - (perf_counter() - t0), 1.0))
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                return perf_counter() - t0, None, f"{mode} pass killed after the {RUN_LIMIT_S:.0f} s run limit"
            finally:
                proc.stdout.close()
        if not ready or proc.returncode != 0:
            return setup, None, f"worker exited {proc.returncode}: {log_path.read_text()[-2000:]}"
        if mode == "setup":
            return setup, None, ""
        return setup, json.loads(result_path.read_text()), ""


def check_pass(plan: dict, result: dict, reference: dict) -> list[dict]:
    verdicts = []
    for op, res in zip(plan["ops"], result["ops"]):
        v = check_op(op, res, reference)
        verdicts.append({"op": op["name"], "status": v.status, "detail": v.detail,
                         "seconds": res["seconds"], "bytes": res["bytes"],
                         "certified": v.certified, "cells": v.cells})
    return verdicts


def check_counters(workload: str, seed: int, digest: str, counts: list[dict]) -> list[str]:
    """Counts must repeat exactly within this run and across runs."""
    errors = [f"{k}: {counts[0][k]} then {c[k]}" for c in counts[1:] for k in c if c[k] != counts[0][k]]
    store = ROOT / ".bench" / "counters.json"
    seen = json.loads(store.read_text()) if store.exists() else {}
    key = f"{workload}|{seed}|{digest}"
    if key in seen:
        errors += [f"{k}: {seen[key][k]} in an earlier run, {v} now"
                   for k, v in counts[0].items() if seen[key].get(k) != v]
    elif not errors:
        seen[key] = counts[0]
        store.write_text(json.dumps(seen, indent=1, sort_keys=True) + "\n")
    return errors


def fmt(value: float) -> str:
    return f"{value:.6g}"


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"],
                    help="a workload, or all of them one after another")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "geoblock" / "cli.py").is_file():
        print(f"no geoblock sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2

    (ROOT / ".bench" / "results").mkdir(parents=True, exist_ok=True)
    code = 0
    for workload in WORKLOADS if args.workload == "all" else [args.workload]:
        work = Path(tempfile.mkdtemp(prefix="run-", dir=ROOT / ".bench"))
        try:
            code = max(code, run(workload, args, work, perf_counter()))
        finally:
            shutil.rmtree(work, ignore_errors=True)
    return code


def run(workload: str, args: argparse.Namespace, work: Path, start: float) -> int:
    reference = json.loads((HERE / "reference.json").read_text())
    plan = build_plan(workload, args.seed, work)
    plan_path = work / "plan.json"
    plan_path.write_text(json.dumps(plan))
    machine = machine_info()
    load_before = os.getloadavg()
    runner = Runner(plan_path, work, start)

    errors: list[str] = []
    runner.spawn("setup")  # warm-up: fills the bytecode and file caches
    setups = []
    for _ in range(SETUP_SAMPLES):
        setup, _, err = runner.spawn("setup")
        errors += [err] if err else []
        setups.append(setup)

    modes = ["run", "trace", "trace"] if args.trace else ["run", "run"]
    passes: list[dict] = []
    pass_seconds: list[float] = []
    t_passes = perf_counter()
    while modes or (not args.trace and perf_counter() - t_passes + statistics.median(pass_seconds) <= args.seconds):
        mode = modes.pop(0) if modes else "run"
        t0 = perf_counter()
        setup, result, err = runner.spawn(mode)
        pass_seconds.append(perf_counter() - t0)
        setups.append(setup)
        if result is None:
            errors.append(err)
            break
        result["verdicts"] = check_pass(plan, result, reference)
        result.pop("ops")
        passes.append(result)
        # the next pass starts from an empty out/, so no stale file can pass a check
        shutil.rmtree(work / "out", ignore_errors=True)
    load_after = os.getloadavg()

    n_ops = len(plan["ops"])
    verdicts = [v for p in passes for v in p["verdicts"]]
    attempted = n_ops * len(pass_seconds)
    failed = sum(v["status"] != "ok" for v in verdicts) + n_ops * (len(pass_seconds) - len(passes))
    unexpected = list(dict.fromkeys(f'{v["op"]}: {"; ".join(v["detail"])}'
                                    for v in verdicts if v["status"] == "fail"))
    correct = not unexpected and not errors and len(passes) == len(pass_seconds)

    plain = [p for p in passes if p["mode"] == "run"]
    traced = [p for p in passes if p["mode"] == "trace"]
    metrics: dict[str, dict] = {}
    record: dict = {"workload": workload, "seed": args.seed, "trace": args.trace,
                    "machine": machine, "loadavg_before": load_before, "loadavg_after": load_after,
                    "setup_samples": setups, "passes": passes}

    def put(name: str, value: float, unit: str) -> None:
        metrics[name] = {"value": value, "unit": unit}

    lines = [f"workload {workload}, seed {args.seed}, trace {args.trace}: "
             f"{len(pass_seconds)} passes, {len(setups)} set-ups",
             "machine: " + ", ".join(f"{k}={v}" for k, v in machine.items()),
             f"load average: before {load_before}, after {load_after}"]
    if passes:
        lines.append(f"{'op':<22}{'verdict':<14}{'seconds':>9}  detail")
        for v in passes[0]["verdicts"]:
            lines.append(f"{v['op']:<22}{v['status']:<14}{v['seconds']:>9.3f}  {'; '.join(v['detail'])[:160]}")
    if not args.trace and plain:
        walls = [p["wall_s"] for p in plain]
        cells = sum(v["cells"] for v in verdicts)
        put("setup_s", statistics.median(setups), "s")
        put("wall_s", statistics.median(walls), "s")
        put("peak_rss_mb", statistics.median(p["peak_rss_kb"] / 1024 for p in plain), "MB")
        put("certified_share", sum(v["certified"] for v in verdicts) / cells if cells else 1.0, "ratio")
        lines += [f"{k:<16}{fmt(m['value']):>12} {m['unit']}" for k, m in metrics.items()]
        lines.append(f"{'':<16}wall_s samples (n={len(walls)}): {', '.join(fmt(w) for w in walls)}")
    if args.trace and plain and traced:
        layers = [layer_metrics(p["spans"]) for p in traced]
        counts = [c for _, c in layers]
        errors += [f"counter does not repeat: {e}" for e in
                   check_counters(workload, args.seed, machine["source_digest"], counts)]
        correct = correct and not errors
        for name in layers[0][0]:
            put(name, statistics.median(t[name] for t, _ in layers), "s")
        for name, value in counts[0].items():
            put(name, value, "ratio" if name.endswith("ratio") else "count")
        put("harness.bytes_written", sum(v["bytes"] for v in traced[0]["verdicts"]), "B")
        traced_wall = statistics.median(p["wall_s"] for p in traced)
        put("trace.overhead_s", traced_wall - plain[0]["wall_s"], "s")
        accounted = sum(layers[0][0].values())
        lines += [f"{k:<36}{fmt(m['value']):>14} {m['unit']}" for k, m in metrics.items()]
        lines.append(f"traced wall {fmt(traced_wall)} s, untraced {fmt(plain[0]['wall_s'])} s; "
                     f"self times sum to {fmt(accounted)} s of the first traced pass "
                     f"({fmt(traced[0]['wall_s'])} s)")
        spans_path = ROOT / ".bench" / "results" / f"{workload}-seed{args.seed}.spans.json"
        spans_path.write_text(json.dumps({"fields": ["name", "start", "end", "parent", "op", "counters"],
                                          "ops": [op["name"] for op in plan["ops"]],
                                          "spans": traced[0]["spans"]}))
        for p in traced:
            p.pop("spans")
        record["spans_file"] = str(spans_path.relative_to(ROOT))
    lines.append(f"{'ops_failed':<16}{fmt(failed / attempted if attempted else 0):>12} ratio "
                 f"({failed}/{attempted}; known defects count as failed)")
    for e in errors + unexpected:
        print(f"ERROR {e}", file=sys.stderr)

    out = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    record["result"] = out
    (ROOT / ".bench" / "results" / f"{workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print("\n".join(lines))
    print(json.dumps(out))
    if any(e.startswith("counter does not repeat") for e in errors):
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
