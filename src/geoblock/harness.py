"""Experiment orchestration: counting, blocking, recursion checking, the
inequality suite, and consistency reports.

All outputs are deterministic for a fixed config and seed: each command
runs one loop over its (pair, t) cells in canonical order (pairs as listed,
t increasing), floats are printed with 12 significant digits, and JSON keys
are sorted.  Every output records the seed.

On a flat geometry every command reads its cells from ``_cells``, which
enumerates each pair once, at the grid's largest t: a cell reads that one
family restricted to its t, the counts by ``counts_at`` and the families it
solves by ``within``.
"""

from __future__ import annotations

import functools
import json
import math
import re
from dataclasses import dataclass, replace
from fractions import Fraction
from pathlib import Path
from typing import Iterator, Sequence

from .blocker import (
    CheckRow,
    PairSampler,
    SolverCaps,
    _family_threshold,
    _round_sig,
    blocking_cost_sampled,
    recursion_harness,
)
from .errors import ConfigError, GeoBlockError, InsufficientDataError
from .flatspace import FlatSpace, GeodesicFamily, RationalPoint, _frac, connecting_family, load_space
from .growth import GrowthSeries, classify_growth, format_sig, rate_estimate, transform
# loaded by every command (bench/tracing.py wraps its functions); numpy is
# imported only inside the hyperbolic functions that use it
from .hyperbolic import blocking_lower_bound_series, load_preset, orbit_count

__all__ = [
    "ExperimentConfig",
    "cmd_count",
    "cmd_block",
    "cmd_recursion_check",
    "cmd_verify",
    "cmd_report",
]


def _parse_fraction(v) -> Fraction:
    try:
        return _frac(v)
    except GeoBlockError as exc:
        raise ConfigError(str(exc)) from exc


# digits of a t value's numerator or denominator: t = 10^400 still reaches
# the flat enumeration's box budget, while parsing 1e3000000 alone takes seconds
_MAX_T_DIGITS = 1000
_MAX_T_POINTS = 10**4  # points of an a:b:step grid
_EXPONENT = re.compile(r"[eE]([-+]?[0-9_]+)\s*$")


def _parse_t(v) -> Fraction:
    """A t value whose numerator and denominator have at most
    ``_MAX_T_DIGITS`` digits.  A string is measured before it is parsed, as
    Fraction builds 10^n for an exponent n: its length and exponent bound
    the digits that parsing it builds."""
    if isinstance(v, str):
        exponent = _EXPONENT.search(v)
        if len(v) > 3 * _MAX_T_DIGITS or exponent and abs(int(exponent[1])) > 2 * _MAX_T_DIGITS:
            raise ConfigError(f"t value {v!r:.40} has more than {_MAX_T_DIGITS} digits")
    t = _parse_fraction(v)
    if max(abs(t.numerator), t.denominator) >= 10**_MAX_T_DIGITS:
        raise ConfigError(f"t value {v!r:.40} has more than {_MAX_T_DIGITS} digits")
    return t


def parse_t_grid(spec) -> list[Fraction]:
    """Exact rational grid: 'a:b:step', a list of rationals, or a mapping.
    Each value has at most ``_MAX_T_DIGITS`` digits, and a:b:step at most
    ``_MAX_T_POINTS`` points."""
    if isinstance(spec, str):
        parts = spec.split(":")
        if len(parts) != 3:
            raise ConfigError(f"t grid spec {spec!r} is not of the form a:b:step")
        start, stop, step = (_parse_t(p) for p in parts)
    elif isinstance(spec, dict):
        try:
            start = _parse_t(spec["start"])
            stop = _parse_t(spec["stop"])
            step = _parse_t(spec["step"])
        except KeyError as exc:
            raise ConfigError(f"t grid mapping missing key {exc}") from None
    elif isinstance(spec, Sequence):
        grid = [_parse_t(v) for v in spec]
        if not grid:
            raise ConfigError("t grid must be nonempty")
        if any(t <= 0 for t in grid) or sorted(grid) != grid or len(set(grid)) != len(grid):
            raise ConfigError("t grid must be positive and strictly increasing")
        return grid
    else:
        raise ConfigError(f"unsupported t grid spec {spec!r}")
    if step <= 0 or stop < start or start <= 0:
        raise ConfigError(f"bad t grid bounds {spec!r}")
    if (stop - start) // step >= _MAX_T_POINTS:
        raise ConfigError(f"t grid {spec!r} has more than {_MAX_T_POINTS} points")
    grid = []
    t = start
    while t <= stop:
        grid.append(t)
        t += step
    return grid


def _parse_pairs(raw) -> list[tuple[RationalPoint, RationalPoint]]:
    if not isinstance(raw, list):
        raise ConfigError(f"pairs must be a list of [[x1,y1],[x2,y2]] entries, got {raw!r}")
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
    None: {"geometry", "t_grid", "pairs", "seed", "caps", "sampler", "verify",
           "base_points", "threshold_t_max", "orbit", "format"},
    "caps": {"max_candidates", "max_geodesics"},
    "sampler": {"count", "denominator"},
    "verify": {"recursion", "recursion_t_max"},
    "orbit": {"bound_mode", "max_word_len"},
}
# the geometry keys each kind reads
_GEOMETRY_KEYS = {"torus": {"kind", "basis"}, "billiard": {"kind"}, "fuchsian": {"kind", "preset"}}
FORMATS = ("csv", "json")


def _config_int(name: str, value, least: int | None = None) -> int:
    """A JSON integer (not a bool, float or string), at least ``least``."""
    if not isinstance(value, int) or isinstance(value, bool) or (least is not None and value < least):
        bound = f" >= {least}" if least is not None else ""
        raise ConfigError(f"{name} must be an integer{bound}, got {value!r}")
    return value


def _config_t_sq(name: str, value) -> Fraction:
    """The square of a non-negative exact rational t."""
    t = _parse_t(value)
    if t < 0:
        raise ConfigError(f"{name} must be non-negative, got {value!r}")
    return t * t


def _base_point(value) -> complex:
    """An [re, im] pair of finite numbers with im > 0 (upper half-plane)."""
    numbers = isinstance(value, list) and len(value) == 2 and all(
        isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v) for v in value
    )
    if not numbers or value[1] <= 0:
        raise ConfigError(f"base point {value!r} is not [re, im] with finite numbers and im > 0")
    return complex(value[0], value[1])


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
    """A validated experiment; ``from_dict`` builds it and holds the default
    of every optional key."""

    geometry: dict
    t_grid: list[Fraction]
    pairs: list[tuple[RationalPoint, RationalPoint]]
    seed: int
    caps: SolverCaps
    sampler_count: int
    sampler_denominator: int
    verify_recursion: bool
    recursion_t_sq_cap: Fraction | None
    threshold_t_sq_cap: Fraction
    base_points: tuple[complex, complex]
    max_word_len: int
    out_format: str

    @property
    def is_fuchsian(self) -> bool:
        return self.geometry.get("kind") == "fuchsian"

    def flat_space(self) -> FlatSpace:
        """The flat geometry of a command that runs over (pair, t) cells,
        checked to take every point of every pair as an endpoint."""
        if self.is_fuchsian:
            raise ConfigError("this command runs on flat geometries only; presets take count or report")
        try:
            space = load_space(self.geometry)
            for pair in self.pairs:
                for p in pair:
                    space.validate_point(p)
        except GeoBlockError as exc:
            raise ConfigError(str(exc)) from exc
        if not self.pairs:
            raise ConfigError("flat geometries need a 'pairs' list")
        return space

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
        kind = geometry["kind"]
        if not isinstance(kind, str) or kind not in _GEOMETRY_KEYS:
            raise ConfigError(f"geometry kind {kind!r} is not one of {', '.join(_GEOMETRY_KEYS)}")
        unused = sorted(set(geometry) - _GEOMETRY_KEYS[kind])
        if unused:
            raise ConfigError(f"unknown config key in 'geometry' for kind {kind!r}: {', '.join(map(repr, unused))}")
        pairs = _parse_pairs(raw.get("pairs", []))
        # the caps the config leaves out keep the SolverCaps defaults
        caps = SolverCaps(**{
            name: _config_int(f"caps.{name}", value, 1) for name, value in raw.get("caps", {}).items()
        })
        sampler = raw.get("sampler", {})
        verify = raw.get("verify", {})
        recursion = verify.get("recursion", False)
        if not isinstance(recursion, bool):
            raise ConfigError(f"verify.recursion must be true or false, got {recursion!r}")
        base_raw = raw.get("base_points", [[0.03, 0.97], [0.03, 0.97]])
        if not isinstance(base_raw, list) or len(base_raw) != 2:
            raise ConfigError(f"base_points must be two [re, im] pairs, got {base_raw!r}")
        orbit = raw.get("orbit", {})
        # the systole packing bound is the only uniform count bound
        if orbit.get("bound_mode", "systole") != "systole":
            raise ConfigError(f"orbit.bound_mode {orbit['bound_mode']!r} is not 'systole'")
        out_format = raw.get("format", "csv")
        if out_format not in FORMATS:
            raise ConfigError(f"format {out_format!r} is not one of {FORMATS}")
        rec_cap = verify.get("recursion_t_max")
        return cls(
            geometry=geometry,
            t_grid=t_grid,
            pairs=pairs,
            seed=_config_int("seed", raw.get("seed", 42)),
            caps=caps,
            sampler_count=_config_int("sampler.count", sampler.get("count", 8), 1),
            sampler_denominator=_config_int("sampler.denominator", sampler.get("denominator", 8), 2),
            verify_recursion=recursion,
            recursion_t_sq_cap=None if rec_cap is None else _config_t_sq("verify.recursion_t_max", rec_cap),
            # blocking solves in report stay desk-scale
            threshold_t_sq_cap=_config_t_sq("threshold_t_max", raw.get("threshold_t_max", 4)),
            base_points=(_base_point(base_raw[0]), _base_point(base_raw[1])),
            max_word_len=_config_int("orbit.max_word_len", orbit.get("max_word_len", 24), 1),
            out_format=out_format,
        )

    @classmethod
    def from_file(cls, path: str | Path) -> "ExperimentConfig":
        try:
            raw = json.loads(Path(path).read_text(encoding="utf-8"))
        except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        return cls.from_dict(raw)


def _write_text(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="\n") as fh:
        fh.write(text)


def _json_text(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _write_table(cfg: ExperimentConfig, out_dir: Path, name: str, header: str, rows: list[dict]) -> None:
    """<name>.csv with the points quoted and t printed by format_sig, and
    <name>.json as well when the config asks for json."""

    def cell(key: str, value) -> str:
        if key in ("x", "y"):
            return f'"{value}"'
        return format_sig(value) if key == "t" else str(value)

    keys = header.split(",")
    lines = [header] + [",".join(cell(k, r[k]) for k in keys) for r in rows]
    _write_text(out_dir / f"{name}.csv", "\n".join(lines) + "\n")
    if cfg.out_format == "json":
        _write_text(out_dir / f"{name}.json", _json_text({"seed": cfg.seed, "rows": rows}))


def _t_float(t_sq: Fraction) -> float:
    return math.sqrt(float(t_sq))


def _cells(
    cfg: ExperimentConfig, space: FlatSpace
) -> Iterator[tuple[int, RationalPoint, RationalPoint, Fraction, GeodesicFamily]]:
    """The (pair index, x, y, t, family) cells in canonical order: pairs as
    listed, then t increasing (parse_t_grid guarantees it).

    Each pair is enumerated once, at the grid's largest t, and every cell of
    the pair gets that one family; the cell reads it restricted to its t.
    """
    for pi, (x, y) in enumerate(cfg.pairs if cfg.t_grid else ()):
        family = connecting_family(space, space.key(x), space.key(y), cfg.t_grid[-1] ** 2)
        for t in cfg.t_grid:
            yield pi, x, y, t, family


def cmd_count(cfg: ExperimentConfig, out_dir: Path) -> int:
    """Counting series per pair; writes count.csv (and count.json when asked).

    A flat pair is enumerated once, at its largest t, so a grid costs about
    as much as its largest t.
    """
    rows: list[dict] = []
    if cfg.is_fuchsian:
        preset = cfg.preset()
        res = orbit_count(
            preset, cfg.base_points[0], cfg.base_points[1], [float(t) for t in cfg.t_grid],
            max_word_len=cfg.max_word_len,
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
        for pi, x, y, t, family in _cells(cfg, space):
            n, m, rejected = family.counts_at(t * t)
            rows.append(
                {
                    "pair": pi,
                    "x": str(x),
                    "y": str(y),
                    "t": float(t),
                    "n": n,
                    "m": m,
                    "status": "exact" if rejected == 0 else f"corner-rejected={rejected}",
                }
            )
    _write_table(cfg, out_dir, "count", "pair,x,y,t,n,m,status", rows)
    return 0


def cmd_block(cfg: ExperimentConfig, out_dir: Path) -> int:
    """Blocking thresholds per (pair, t); writes block.csv."""
    space = cfg.flat_space()
    rows = []
    for pi, x, y, t, family in _cells(cfg, space):
        res = _family_threshold(family.within(t * t), cfg.caps)
        rows.append(
            {
                "pair": pi,
                "x": str(x),
                "y": str(y),
                "t": float(t),
                "s": res.value,
                "optimal": int(res.certified),
                "midpoint_upper": res.midpoint_upper if res.midpoint_upper is not None else "",
            }
        )
    _write_table(cfg, out_dir, "block", "pair,x,y,t,s,optimal,midpoint_upper", rows)
    return 0


def cmd_recursion_check(cfg: ExperimentConfig, out_dir: Path) -> int:
    """Halving-decomposition reports per (pair, t); writes recursion.json."""
    space = cfg.flat_space()
    reports = []
    failed = False
    for pi, _, _, t, family in _cells(cfg, space):
        rep = recursion_harness(family.within(t * t), cfg.caps)
        reports.append({"pair": pi, "t": _round_sig(float(t)), "report": rep.to_json()})
        failed = failed or not rep.passed
    _write_text(out_dir / "recursion.json", _json_text({"seed": cfg.seed, "reports": reports}))
    return 1 if failed else 0


def cmd_verify(cfg: ExperimentConfig, out_dir: Path) -> int:
    """Evaluate the full inequality suite on computed data; writes verify.json.

    Exit code 0 iff no hard check failed; rows depending on the sampled cost
    carry a caveat (the sampled sup is a lower bound for the true sup, so a
    failure there is a finding, not a refutation) and do not fail the run.
    """
    space = cfg.flat_space()
    delta_sq = space.delta_sq

    @functools.cache
    def sampled() -> list[tuple[RationalPoint, RationalPoint]]:
        """The sample, drawn once per run when S(t) first needs it."""
        try:
            return PairSampler(cfg.seed, cfg.sampler_count, cfg.sampler_denominator).pairs(space)
        except GeoBlockError as exc:
            raise ConfigError(
                f"sampler.count = {cfg.sampler_count} distinct pairs cannot be drawn with "
                f"sampler.denominator = {cfg.sampler_denominator}: {exc}"
            ) from exc

    @functools.cache
    def families() -> list[GeodesicFamily]:
        """The sampled pairs' families at the grid's largest t, enumerated
        once per run; every t the transform asks for reads them within it."""
        return [connecting_family(space, space.key(p), space.key(q), cfg.t_grid[-1] ** 2) for p, q in sampled()]

    @functools.cache
    def cost(t_sq: Fraction) -> int:
        """Sampled blocking cost at t_sq, a lower bound for the true sup over pairs."""
        return blocking_cost_sampled(space, t_sq, sampled(), cfg.caps, families=families()).value

    checks: list[CheckRow] = []
    notes = [
        "delta convention: " + space.delta_note,
        "S(t) is built from a sampled blocking cost; sampled sup <= true sup",
    ]

    # the chain rows and the recursion rows below read the same cells
    cells = list(_cells(cfg, space))
    for pi, x, y, t, family in cells:
        t_sq = t * t
        thr = _family_threshold(family.within(t_sq), cfg.caps)
        n, m, s = thr.family.n, thr.family.m, thr.value
        ctx = {
            "pair": pi,
            "x": str(x),
            "y": str(y),
            "t": _round_sig(_t_float(t_sq)),
            "seed": cfg.seed,
        }
        caveat_s = None if thr.certified else "threshold not certified (solver cap)"
        checks.append(
            CheckRow("chain-lower", "s_t(x,y) <= m_t(x,y)", s, m, s <= m, True, caveat_s, ctx)
        )
        checks.append(
            CheckRow("chain-upper", "m_t(x,y) <= n_t(x,y)", m, n, m <= n, True, None, ctx)
        )
        # counting vs blocked-counting envelope; meaningful from t >= 2*delta
        env = t_sq >= 4 * delta_sq
        checks.append(
            CheckRow(
                "count-envelope",
                "n_t <= (t^2/(4*delta^2)) * m_t",
                n,
                float(t_sq * m / (4 * delta_sq)) if env else math.nan,
                4 * delta_sq * n <= t_sq * m if env else None,
                True,
                None if env else "skipped: t < 2*delta",
                ctx,
            )
        )
        # the halving transform of the sampled cost: its product at t, t/2, ... above delta
        S = transform(lambda u: cost(u * u), delta_sq, t)
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
        for pi, _, _, t, family in cells:
            t_sq = t * t
            if cfg.recursion_t_sq_cap is not None and t_sq > cfg.recursion_t_sq_cap:
                continue
            rep = recursion_harness(family.within(t_sq), cfg.caps)
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

    hard_failures = sum(1 for c in checks if c.hard and c.passed is False)
    summary = {
        "pass": sum(1 for c in checks if c.passed is True),
        "fail": sum(1 for c in checks if c.passed is False),
        "skipped": sum(1 for c in checks if c.passed is None),
        "hard_failures": hard_failures,
    }
    payload = {
        "seed": cfg.seed,
        "geometry": cfg.geometry,
        "summary": summary,
        "notes": notes,
        "checks": [c.to_json() for c in checks],
    }
    _write_text(out_dir / "verify.json", _json_text(payload))
    return 1 if hard_failures else 0


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
    rates, never proofs.  On a flat geometry the counts come from one
    enumeration per pair, at its largest t, and the blocking thresholds are
    solved only up to ``threshold_t_max``.
    """
    payload: dict = {"seed": cfg.seed, "geometry": cfg.geometry}
    if cfg.is_fuchsian:
        preset = cfg.preset()
        grid = [float(t) for t in cfg.t_grid]
        bounds = blocking_lower_bound_series(preset, *cfg.base_points, grid, max_word_len=cfg.max_word_len)
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
                "bound_mode": "systole",
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
        n_by_t: dict[float, int] = {}
        s_max = 0
        for _, _, _, t, family in _cells(cfg, space):
            # blocking solves are quadratic in the family size; keep them
            # on the capped prefix of the grid
            if t * t <= cfg.threshold_t_sq_cap:
                s_max = max(s_max, _family_threshold(family.within(t * t), cfg.caps).value)
            n_by_t[float(t)] = max(n_by_t.get(float(t), 0), family.counts_at(t * t)[0])
        pos = [(t, n) for t, n in sorted(n_by_t.items()) if n > 0]
        h_est = _try_rate(pos)
        verdict = "partial"
        if h_est is not None:
            # the exponential slope of c*t^2 is about 2/t, so on a short grid
            # h_est alone cannot tell zero entropy; the growth class can
            growth = classify_growth(GrowthSeries.from_pairs(pos)).kind
            flat_ok = growth not in ("exponential", "super-exponential") and (
                not space.is_torus or s_max <= 4
            )
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
