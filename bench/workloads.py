"""Workload definitions: the configs each workload generates and the CLI ops
it runs over them, in a fixed order, from one client process.

The seed picks the sampled pairs and the config ``seed`` field that drives
``PairSampler``.  The program only ever sees the generated config files.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

# Why each workload is in the benchmark; BENCHMARK.json repeats these.
WORKLOADS = {
    "count-growth": "flatspace enumeration and hyperbolic.orbit_count; never reaches the blocking solver",
    "torus-verify": "blocker as many small torus instances plus one capped t=6 build; intersections dominate",
    "billiard-solve": "blocker as few deep branch-and-bound searches on the billiard; solve_exact dominates",
}

# Mirrors configs/unit_torus.json and configs/billiard.json, embedded so that
# the benchmark's inputs do not change when the shipped examples do.
UNIT_TORUS_PAIRS = [
    [["0", "0"], ["1/2", "0"]],
    [["0", "0"], ["1/2", "1/2"]],
    [["1/8", "1/8"], ["5/8", "3/8"]],
]
BILLIARD_PAIRS = [
    [["1/4", "1/2"], ["3/4", "1/2"]],
    [["1/3", "1/3"], ["2/3", "1/5"]],
]
SKEW_BASIS = ["1", "0", "1/3", "5/4"]
COUNT_PAIR = [["0", "0"], ["1/2", "1/2"]]


def billiard_pool(size: int = 16) -> list[list[list[str]]]:
    """Interior billiard pairs a seed can pick; reference.json holds the exact
    counts and thresholds of every one of them."""
    rng = random.Random(2007)
    pool: list[list[list[str]]] = []
    while len(pool) < size:
        a, b, c, d = (rng.randrange(1, 8) for _ in range(4))
        pair = [[f"{a}/8", f"{b}/8"], [f"{c}/8", f"{d}/8"]]
        if (a, b) != (c, d) and pair not in pool and pair not in BILLIARD_PAIRS:
            pool.append(pair)
    return pool


def seeded_torus_pair(rng: random.Random) -> list[list[str]]:
    """Two distinct points of [0,1)^2 with denominator 8; distinct points of
    the unit square are never lattice translates for SKEW_BASIS."""
    while True:
        a, b, c, d = (rng.randrange(8) for _ in range(4))
        if (a, b) != (c, d):
            return [[f"{a}/8", f"{b}/8"], [f"{c}/8", f"{d}/8"]]


def _op(name: str, kind: str, argv: list[str], out: Path, **check) -> dict:
    return {"name": name, "kind": kind, "argv": argv, "out": str(out), "check": check}


def build_plan(workload: str, seed: int, work: Path) -> dict:
    """Write the workload's configs under ``work`` and return its op list."""
    if workload not in WORKLOADS:
        raise KeyError(workload)
    rng = random.Random(seed)
    cfg_dir = work / "configs"
    cfg_dir.mkdir(parents=True, exist_ok=True)
    out_root = work / "out"
    configs: list[str] = []

    def config(name: str, payload: dict) -> str:
        path = cfg_dir / f"{name}.json"
        path.write_text(json.dumps(payload, indent=2) + "\n")
        configs.append(str(path))
        return str(path)

    def config_op(name: str, command: str, cfg: str, kind: str, **check) -> dict:
        out = out_root / name
        return _op(name, kind, [command, "--config", cfg, "--out", str(out)], out, **check)

    ops: list[dict] = []
    if workload == "count-growth":
        report = config("torus_report", {
            "geometry": {"kind": "torus", "basis": SKEW_BASIS},
            "pairs": [seeded_torus_pair(rng)],
            "t_grid": "2:40:2",
            # below the grid, so the report never calls the blocking solver
            "threshold_t_max": "1",
            "seed": seed,
        })
        count = config("torus_count", {
            "geometry": {"kind": "torus", "basis": SKEW_BASIS},
            "pairs": [COUNT_PAIR],
            "t_grid": "1:16:1/2",
            "seed": seed,
        })
        octagon = config("octagon_report", {
            "geometry": {"kind": "fuchsian", "preset": "octagon_genus2"},
            "t_grid": {"start": "3", "stop": "19/2", "step": "1/4"},
            "orbit": {"bound_mode": "systole", "max_word_len": 24},
            "seed": seed,
        })
        ops.append(config_op("torus-report", "report", report, "flat-report"))
        ops.append(config_op("torus-count", "count", count, "count", ref="torus_count"))
        entropy_out = out_root / "torus-entropy"
        ops.append(_op(
            "torus-entropy", "entropy",
            ["entropy", "--mode", "polynomial", "--in", str(out_root / "torus-count" / "count.csv"),
             "--out", str(entropy_out / "entropy.json")],
            entropy_out,
        ))
        ops.append(config_op("octagon-report", "report", octagon, "octagon-report", ref="octagon_report"))
    elif workload == "torus-verify":
        verify = config("unit_torus_verify", {
            "geometry": {"kind": "torus", "basis": ["1", "0", "0", "1"]},
            "pairs": UNIT_TORUS_PAIRS,
            "t_grid": "1:4:1",
            "seed": seed,
            "sampler": {"count": 8, "denominator": 8},
            "verify": {"recursion": True, "recursion_t_max": "2"},
        })
        block = config("unit_torus_block", {
            "geometry": {"kind": "torus", "basis": ["1", "0", "0", "1"]},
            "pairs": [UNIT_TORUS_PAIRS[2]],
            "t_grid": ["6"],
            "seed": seed,
        })
        ops.append(config_op("torus-verify", "verify", verify, "verify", ref="torus_verify", cells=12))
        ops.append(config_op("torus-block-t6", "block", block, "block", ref="torus_block_t6", cells=1))
    else:
        pool = billiard_pool()
        extra = pool[rng.randrange(len(pool))]
        verify = config("billiard_verify", {
            "geometry": {"kind": "billiard"},
            "pairs": BILLIARD_PAIRS + [extra],
            "t_grid": "1:5/2:1/2",
            "seed": seed,
            "sampler": {"count": 6, "denominator": 8},
        })
        block = config("billiard_block", {
            "geometry": {"kind": "billiard"},
            "pairs": [BILLIARD_PAIRS[1]],
            "t_grid": ["3"],
            "seed": seed,
        })
        recursion = config("billiard_recursion", {
            "geometry": {"kind": "billiard"},
            "pairs": BILLIARD_PAIRS,
            "t_grid": "1:3/2:1/2",
            "seed": seed,
        })
        ops.append(config_op("billiard-verify", "verify", verify, "verify", ref="billiard_verify", cells=12))
        ops.append(config_op("billiard-block-t3", "block", block, "block", ref="billiard_block_t3",
                             cells=1, anchor=10))
        ops.append(config_op("billiard-recursion", "recursion-check", recursion, "recursion"))
    return {"workload": workload, "seed": seed, "configs": configs, "ops": ops}
