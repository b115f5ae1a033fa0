"""Experiment orchestration: counting, blocking, recursion checking, the
inequality suite, and consistency reports.

All outputs are deterministic for a fixed config and seed: cells are
computed in a worker pool but merged in canonical order, floats are printed
with 12 significant digits, and JSON keys are sorted.  Every output records
the seed.
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from fractions import Fraction
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .blocker import (
    CheckRow,
    PairSampler,
    SolverCaps,
    _round_sig,
    blocking_cost_sampled,
    blocking_threshold,
    kappa_from_squares,
    recursion_harness,
)
from .errors import ConfigError, GeoBlockError, InsufficientDataError
from .flatspace import FlatSpace, RationalPoint, _frac, connecting_family, load_space
from .growth import GrowthSeries, rate_estimate
from .hyperbolic import blocking_lower_bound_series, load_preset, orbit_count

__all__ = [
    "ExperimentConfig",
    "VerificationReport",
    "CheckRow",
    "format_sig",
    "cmd_count",
    "cmd_block",
    "cmd_recursion_check",
    "cmd_verify",
    "cmd_report",
]


def format_sig(x: float) -> str:
    """Decimal with 12 significant digits, no exponent notation."""
    if x != x or x in (math.inf, -math.inf):
        return str(x)
    if float(x) == int(x) and abs(x) < 1e15:
        return str(int(x))
    return np.format_float_positional(
        float(x), precision=12, unique=False, fractional=False, trim="-"
    )


def _parse_fraction(v) -> Fraction:
    try:
        return _frac(v)
    except GeoBlockError as exc:
        raise ConfigError(str(exc)) from exc


def parse_t_grid(spec) -> list[Fraction]:
    """Exact rational grid: 'a:b:step', a list of rationals, or a mapping."""
    if isinstance(spec, str):
        parts = spec.split(":")
        if len(parts) != 3:
            raise ConfigError(f"t grid spec {spec!r} is not of the form a:b:step")
        start, stop, step = (_parse_fraction(p) for p in parts)
    elif isinstance(spec, dict):
        try:
            start = _parse_fraction(spec["start"])
            stop = _parse_fraction(spec["stop"])
            step = _parse_fraction(spec["step"])
        except KeyError as exc:
            raise ConfigError(f"t grid mapping missing key {exc}") from None
    elif isinstance(spec, Sequence):
        grid = [_parse_fraction(v) for v in spec]
        if any(t <= 0 for t in grid) or sorted(grid) != grid or len(set(grid)) != len(grid):
            raise ConfigError("t grid must be positive and strictly increasing")
        return grid
    else:
        raise ConfigError(f"unsupported t grid spec {spec!r}")
    if step <= 0 or stop < start or start <= 0:
        raise ConfigError(f"bad t grid bounds {spec!r}")
    grid = []
    t = start
    while t <= stop:
        grid.append(t)
        t += step
    return grid


def _parse_pairs(raw) -> list[tuple[RationalPoint, RationalPoint]]:
    pairs = []
    for entry in raw:
        try:
            (x1, y1), (x2, y2) = entry
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"pair entry {entry!r} is not [[x1,y1],[x2,y2]]") from exc
        pairs.append(
            (
                RationalPoint(_parse_fraction(x1), _parse_fraction(y1)),
                RationalPoint(_parse_fraction(x2), _parse_fraction(y2)),
            )
        )
    return pairs


# the keys a config may use: top level, then per section
_CONFIG_KEYS = {
    None: {"geometry", "t_grid", "pairs", "seed", "workers", "caps", "sampler", "verify",
           "base_points", "threshold_t_max", "orbit", "format"},
    "geometry": {"kind", "basis", "preset"},
    "caps": {"max_candidates", "max_geodesics"},
    "sampler": {"count", "denominator"},
    "verify": {"recursion", "recursion_t_max"},
    "orbit": {"bound_mode", "max_word_len"},
}


def _check_keys(raw) -> None:
    for section, allowed in _CONFIG_KEYS.items():
        table = raw if section is None else raw.get(section, {})
        if not isinstance(table, dict):
            raise ConfigError(f"{section or 'config'} must be a mapping")
        unknown = sorted(set(table) - allowed)
        if unknown:
            where = f" in {section!r}" if section else ""
            raise ConfigError(f"unknown config key{where}: {', '.join(map(repr, unknown))}")


@dataclass
class ExperimentConfig:
    geometry: dict
    t_grid: list[Fraction]
    pairs: list[tuple[RationalPoint, RationalPoint]] = field(default_factory=list)
    seed: int = 42
    workers: int = 1
    caps: SolverCaps = field(default_factory=SolverCaps)
    sampler_count: int = 8
    sampler_denominator: int = 8
    verify_recursion: bool = False
    recursion_t_sq_cap: Fraction | None = None
    threshold_t_sq_cap: Fraction = Fraction(16)  # blocking solves stay desk-scale
    base_points: tuple[complex, complex] = (0.03 + 0.97j, 0.03 + 0.97j)
    bound_mode: str = "systole"
    max_word_len: int = 24
    out_format: str = "csv"

    @property
    def is_fuchsian(self) -> bool:
        return self.geometry.get("kind") == "fuchsian"

    def flat_space(self) -> FlatSpace:
        try:
            return load_space(self.geometry)
        except GeoBlockError as exc:
            raise ConfigError(str(exc)) from exc

    def preset(self):
        name = self.geometry.get("preset")
        if not name:
            raise ConfigError("fuchsian geometry needs a 'preset' name or path")
        try:
            return load_preset(name)
        except GeoBlockError as exc:
            raise ConfigError(str(exc)) from exc

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        _check_keys(raw)
        try:
            geometry = raw["geometry"]
            t_grid = parse_t_grid(raw["t_grid"])
        except KeyError as exc:
            raise ConfigError(f"config missing required key {exc}") from None
        if not isinstance(geometry, dict) or "kind" not in geometry:
            raise ConfigError("geometry must be a mapping with a 'kind'")
        pairs = _parse_pairs(raw.get("pairs", []))
        caps_raw = raw.get("caps", {})
        caps = SolverCaps(
            max_candidates=int(caps_raw.get("max_candidates", 5000)),
            max_geodesics=int(caps_raw.get("max_geodesics", 2000)),
        )
        sampler = raw.get("sampler", {})
        verify = raw.get("verify", {})
        base_raw = raw.get("base_points")
        if base_raw:
            base = (
                complex(float(base_raw[0][0]), float(base_raw[0][1])),
                complex(float(base_raw[1][0]), float(base_raw[1][1])),
            )
        else:
            base = (0.03 + 0.97j, 0.03 + 0.97j)
        rec_cap = verify.get("recursion_t_max")
        thr_cap = raw.get("threshold_t_max", 4)
        return cls(
            geometry=geometry,
            t_grid=t_grid,
            pairs=pairs,
            seed=int(raw.get("seed", 42)),
            workers=max(1, int(raw.get("workers", 1))),
            caps=caps,
            sampler_count=int(sampler.get("count", 8)),
            sampler_denominator=int(sampler.get("denominator", 8)),
            verify_recursion=bool(verify.get("recursion", False)),
            recursion_t_sq_cap=_parse_fraction(rec_cap) ** 2 if rec_cap is not None else None,
            threshold_t_sq_cap=_parse_fraction(thr_cap) ** 2,
            base_points=base,
            bound_mode=raw.get("orbit", {}).get("bound_mode", "systole"),
            max_word_len=int(raw.get("orbit", {}).get("max_word_len", 24)),
            out_format=raw.get("format", "csv"),
        )

    @classmethod
    def from_file(cls, path: str | Path) -> "ExperimentConfig":
        try:
            raw = json.loads(Path(path).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        return cls.from_dict(raw)


def _map_cells(fn: Callable, cells: list, workers: int) -> list:
    """Apply fn to cells, preserving input order regardless of worker count."""
    if workers <= 1:
        return [fn(c) for c in cells]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, cells))


def _write_text(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="\n") as fh:
        fh.write(text)


def _json_text(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _t_float(t_sq: Fraction) -> float:
    return math.sqrt(float(t_sq))


def cmd_count(cfg: ExperimentConfig, out_dir: Path) -> int:
    """Counting series per pair; writes count.csv (and count.json when asked)."""
    rows: list[dict] = []
    if cfg.is_fuchsian:
        preset = cfg.preset()
        grid = [float(t) for t in cfg.t_grid]
        if grid:
            res = orbit_count(
                preset, cfg.base_points[0], cfg.base_points[1], grid,
                max_word_len=cfg.max_word_len, strict=False,
            )
            for (t, c), cert in zip(res.ball.count_series, res.certified):
                rows.append(
                    {
                        "pair": 0,
                        "x": str(cfg.base_points[0]),
                        "y": str(cfg.base_points[1]),
                        "t": t,
                        "n": c,
                        "m": "",
                        "status": "certified" if cert else "heuristic",
                    }
                )
    else:
        space = cfg.flat_space()
        if not cfg.pairs:
            raise ConfigError("flat counting needs a 'pairs' list")
        cells = [
            (pi, t) for pi in range(len(cfg.pairs)) for t in cfg.t_grid
        ]

        def work(cell):
            pi, t = cell
            x, y = cfg.pairs[pi]
            fam = connecting_family(space, x, y, t * t)
            return {
                "pair": pi,
                "x": str(x),
                "y": str(y),
                "t": float(t),
                "n": fam.n,
                "m": fam.m,
                "status": "exact" if fam.corner_rejected == 0 else f"corner-rejected={fam.corner_rejected}",
            }

        rows = _map_cells(work, cells, cfg.workers)
        rows.sort(key=lambda r: (r["pair"], r["t"]))

    header = "pair,x,y,t,n,m,status"
    lines = [header]
    for r in rows:
        lines.append(
            f'{r["pair"]},"{r["x"]}","{r["y"]}",{format_sig(r["t"])},{r["n"]},{r["m"]},{r["status"]}'
        )
    _write_text(out_dir / "count.csv", "\n".join(lines) + "\n")
    if cfg.out_format == "json":
        _write_text(out_dir / "count.json", _json_text({"seed": cfg.seed, "rows": rows}))
    return 0


def cmd_block(cfg: ExperimentConfig, out_dir: Path) -> int:
    """Blocking thresholds per (pair, t); writes block.csv."""
    if cfg.is_fuchsian:
        raise ConfigError("blocking thresholds are computed on flat geometries only")
    space = cfg.flat_space()
    if not cfg.pairs:
        raise ConfigError("blocking needs a 'pairs' list")
    cells = [(pi, t) for pi in range(len(cfg.pairs)) for t in cfg.t_grid]

    def work(cell):
        pi, t = cell
        x, y = cfg.pairs[pi]
        res = blocking_threshold(space, x, y, t * t, cfg.caps)
        return {
            "pair": pi,
            "x": str(x),
            "y": str(y),
            "t": float(t),
            "s": res.value,
            "optimal": int(res.certified),
            "midpoint_upper": res.midpoint_upper if res.midpoint_upper is not None else "",
        }

    rows = _map_cells(work, cells, cfg.workers)
    rows.sort(key=lambda r: (r["pair"], r["t"]))
    lines = ["pair,x,y,t,s,optimal,midpoint_upper"]
    for r in rows:
        lines.append(
            f'{r["pair"]},"{r["x"]}","{r["y"]}",{format_sig(r["t"])},{r["s"]},{r["optimal"]},{r["midpoint_upper"]}'
        )
    _write_text(out_dir / "block.csv", "\n".join(lines) + "\n")
    if cfg.out_format == "json":
        _write_text(out_dir / "block.json", _json_text({"seed": cfg.seed, "rows": rows}))
    return 0


def cmd_recursion_check(cfg: ExperimentConfig, out_dir: Path) -> int:
    """Halving-decomposition reports per (pair, t); writes recursion.json."""
    if cfg.is_fuchsian:
        raise ConfigError("the recursion check runs on flat geometries only")
    space = cfg.flat_space()
    if not cfg.pairs:
        raise ConfigError("the recursion check needs a 'pairs' list")
    reports = []
    failed = False
    for pi, (x, y) in enumerate(cfg.pairs):
        for t in cfg.t_grid:
            rep = recursion_harness(space, x, y, t * t, cfg.caps)
            reports.append({"pair": pi, "t": _round_sig(float(t)), "report": rep.to_json()})
            failed = failed or not rep.passed
    _write_text(out_dir / "recursion.json", _json_text({"seed": cfg.seed, "reports": reports}))
    return 1 if failed else 0


@dataclass
class VerificationReport:
    seed: int
    geometry: dict
    checks: list[CheckRow]
    notes: list[str]

    @property
    def hard_failures(self) -> int:
        return sum(1 for c in self.checks if c.hard and c.passed is False)

    def summary(self) -> dict:
        return {
            "pass": sum(1 for c in self.checks if c.passed is True),
            "fail": sum(1 for c in self.checks if c.passed is False),
            "skipped": sum(1 for c in self.checks if c.passed is None),
            "hard_failures": self.hard_failures,
        }

    def to_json(self) -> dict:
        return {
            "seed": self.seed,
            "geometry": self.geometry,
            "summary": self.summary(),
            "notes": self.notes,
            "checks": [c.to_json() for c in self.checks],
        }


def _sampled_cost_fn(cfg: ExperimentConfig, space: FlatSpace):
    """Sampled blocking cost by squared threshold, cached; a lower bound for
    the true sup over pairs."""
    cache: dict[Fraction, int] = {}
    sampler = PairSampler(cfg.seed, cfg.sampler_count, cfg.sampler_denominator)

    def cost(t_sq: Fraction) -> int:
        if t_sq not in cache:
            # near-pair enrichment keeps the lower bound informative at the
            # halved thresholds the transform visits
            cache[t_sq] = blocking_cost_sampled(
                space, t_sq, sampler, cfg.caps, include_near=True
            ).value
        return cache[t_sq]

    return cost


def _sampled_transform(cost, t_sq: Fraction, delta_sq: Fraction) -> int:
    """Product of the sampled cost at t, t/2, ..., down to the injectivity
    radius (the halving transform of the sampled cost function)."""
    k = kappa_from_squares(t_sq, delta_sq)
    total = 1
    cur = Fraction(t_sq)
    for _ in range(k):
        total *= cost(cur)
        cur /= 4
    return total


def cmd_verify(cfg: ExperimentConfig, out_dir: Path) -> int:
    """Evaluate the full inequality suite on computed data; writes verify.json.

    Exit code 0 iff no hard check failed; rows depending on the sampled cost
    carry a caveat (the sampled sup is a lower bound for the true sup, so a
    failure there is a finding, not a refutation) and do not fail the run.
    """
    if cfg.is_fuchsian:
        raise ConfigError("the inequality suite runs on flat geometries; use 'report' for presets")
    space = cfg.flat_space()
    if not cfg.pairs:
        raise ConfigError("verification needs a 'pairs' list")
    delta_sq = space.delta_sq
    cost = _sampled_cost_fn(cfg, space)
    checks: list[CheckRow] = []
    notes = [
        "delta convention: " + (
            "torus delta^2 = shortest^2/4" if space.is_torus else FlatSpace.BILLIARD_DELTA_CONVENTION
        ),
        "S(t) is built from a sampled blocking cost; sampled sup <= true sup",
    ]

    cells = [(pi, t) for pi in range(len(cfg.pairs)) for t in cfg.t_grid]

    def work(cell):
        pi, t = cell
        x, y = cfg.pairs[pi]
        thr = blocking_threshold(space, x, y, t * t, cfg.caps)
        fam = thr.instance.family
        return pi, t, fam.n, fam.m, thr.value, thr.certified

    results = _map_cells(work, cells, cfg.workers)
    for pi, t, n, m, s, certified in sorted(results, key=lambda r: (r[0], r[1])):
        t_sq = t * t
        ctx = {
            "pair": pi,
            "x": str(cfg.pairs[pi][0]),
            "y": str(cfg.pairs[pi][1]),
            "t": _round_sig(_t_float(t_sq)),
            "seed": cfg.seed,
        }
        caveat_s = None if certified else "threshold not certified (solver cap)"
        checks.append(
            CheckRow("chain-lower", "s_t(x,y) <= m_t(x,y)", s, m, s <= m, True, caveat_s, ctx)
        )
        checks.append(
            CheckRow("chain-upper", "m_t(x,y) <= n_t(x,y)", m, n, m <= n, True, None, ctx)
        )
        # counting vs blocked-counting envelope; meaningful from t >= 2*delta
        if t_sq >= 4 * delta_sq:
            ok = 4 * delta_sq * n <= t_sq * m
            rhs = float(t_sq * m / (4 * delta_sq))
            checks.append(
                CheckRow(
                    "count-envelope",
                    "n_t <= (t^2/(4*delta^2)) * m_t",
                    n,
                    rhs,
                    ok,
                    True,
                    None,
                    ctx,
                )
            )
        else:
            checks.append(
                CheckRow(
                    "count-envelope",
                    "n_t <= (t^2/(4*delta^2)) * m_t",
                    n,
                    math.nan,
                    None,
                    True,
                    "skipped: t < 2*delta",
                    ctx,
                )
            )
        S = _sampled_transform(cost, t_sq, delta_sq)
        # m <= (2t/delta) S  <=>  m^2 delta^2 <= 4 t^2 S^2 (exact squares)
        ok_m = m * m * delta_sq <= 4 * t_sq * S * S
        rhs_m = 2.0 * _t_float(t_sq) / _t_float(delta_sq) * S
        checks.append(
            CheckRow(
                "blocked-count-vs-cost",
                "m_t <= (2t/delta) * S(t)",
                m,
                rhs_m,
                ok_m,
                False,
                "sampled-sup",
                ctx,
            )
        )
        # n <= (t^3/(2 delta^3)) S  <=>  4 n^2 delta^6 <= t^6 S^2
        ok_n = 4 * n * n * delta_sq**3 <= t_sq**3 * S * S
        rhs_n = float(_t_float(t_sq) ** 3 / (2.0 * _t_float(delta_sq) ** 3)) * S
        checks.append(
            CheckRow(
                "count-vs-cost",
                "n_t <= (t^3/(2*delta^3)) * S(t)",
                n,
                rhs_n,
                ok_n,
                False,
                "sampled-sup",
                ctx,
            )
        )

    if cfg.verify_recursion:
        for pi, (x, y) in enumerate(cfg.pairs):
            for t in cfg.t_grid:
                t_sq = t * t
                if cfg.recursion_t_sq_cap is not None and t_sq > cfg.recursion_t_sq_cap:
                    continue
                rep = recursion_harness(space, x, y, t_sq, cfg.caps)
                ctx = {"pair": pi, "t": _round_sig(_t_float(t_sq)), "seed": cfg.seed}
                checks.extend(
                    replace(
                        c,
                        name="recursion:" + c.name,
                        caveat=None if rep.certified else "sub-solve not certified",
                        context={**ctx, **c.context},
                    )
                    for c in rep.checks
                )

    report = VerificationReport(cfg.seed, cfg.geometry, checks, notes)
    _write_text(out_dir / "verify.json", _json_text(report.to_json()))
    return 1 if report.hard_failures else 0


def _try_rate(pairs: list[tuple[float, float]]) -> float | None:
    """Tail exponential rate, or None when the series is too short (partial)."""
    if len(pairs) < 2:
        return None
    try:
        return rate_estimate(GrowthSeries.from_pairs(pairs), "exponential").parameter
    except InsufficientDataError:
        return None


def cmd_report(cfg: ExperimentConfig, out_dir: Path) -> int:
    """Link measured rates to the expected growth laws; writes report.json.

    Verdicts are desk-scale consistency statements computed from fitted
    rates, never proofs.
    """
    payload: dict = {"seed": cfg.seed, "geometry": cfg.geometry}
    if cfg.is_fuchsian:
        preset = cfg.preset()
        grid = [float(t) for t in cfg.t_grid]
        bounds = blocking_lower_bound_series(
            preset,
            cfg.base_points[0],
            cfg.base_points[1],
            grid,
            bound_mode=cfg.bound_mode,
            max_word_len=cfg.max_word_len,
            strict=False,
        )
        counts = [(b.t, b.count) for b in bounds]
        positive = [(t, c) for t, c in counts if c > 0]
        rate_n = _try_rate(positive)
        lb_rate = _try_rate([(b.t, b.value) for b in bounds if b.value > 0])
        exceeds = [b.t for b in bounds if b.certified and b.value > 1.0]
        ratio = (lb_rate / rate_n) if (lb_rate is not None and rate_n) else None
        verdict = "partial"
        if rate_n is not None and lb_rate is not None:
            consistent = bool(exceeds) and ratio is not None and ratio >= 0.3
            verdict = (
                "consistent with exponential blocking growth at desk scale"
                if consistent
                else "inconsistent with exponential blocking growth at desk scale"
            )
        payload.update(
            {
                "rate_of_counts": _round_sig(rate_n) if rate_n is not None else None,
                "lower_bound_rate": _round_sig(lb_rate) if lb_rate is not None else None,
                "rate_ratio": _round_sig(ratio) if ratio is not None else None,
                "first_certified_t_exceeding_1": _round_sig(min(exceeds)) if exceeds else None,
                "bound_mode": cfg.bound_mode,
                "verdict": verdict,
                "series": [
                    {
                        "t": _round_sig(b.t),
                        "count": b.count,
                        "lower_bound": _round_sig(b.value),
                        "certified": b.certified,
                    }
                    for b in bounds
                ],
            }
        )
    else:
        space = cfg.flat_space()
        if not cfg.pairs:
            raise ConfigError("the flat report needs a 'pairs' list")
        n_by_t: dict[float, int] = {}
        s_max = 0
        for x, y in cfg.pairs:
            for t in cfg.t_grid:
                # blocking solves are quadratic in the family size; keep them
                # on the capped prefix of the grid
                if t * t <= cfg.threshold_t_sq_cap:
                    thr = blocking_threshold(space, x, y, t * t, cfg.caps)
                    s_max = max(s_max, thr.value)
                    fam = thr.instance.family
                else:
                    fam = connecting_family(space, x, y, t * t)
                tf = float(t)
                n_by_t[tf] = max(n_by_t.get(tf, 0), fam.n)
        pos = [(t, n) for t, n in sorted(n_by_t.items()) if n > 0]
        h_est = _try_rate(pos)
        verdict = "partial"
        if h_est is not None:
            flat_ok = h_est <= 0.05 and (not space.is_torus or s_max <= 4)
            verdict = (
                "consistent with zero entropy and uniform security at desk scale"
                if flat_ok
                else "inconsistent with zero entropy and uniform security at desk scale"
            )
        payload.update(
            {
                "h_est": _round_sig(h_est) if h_est is not None else None,
                "threshold_max": s_max,
                "verdict": verdict,
            }
        )
    _write_text(out_dir / "report.json", _json_text(payload))
    return 0
