"""Orbit counting for discrete isometry groups of the hyperbolic plane.

Upper half-plane model throughout, binary64 floats; rounding error grows
linearly in word length and is budgeted at 1e-9.  Cocompact orbits are
deduplicated by orbit point: distinct elements of a torsion-free group move
a base point at least one systole apart, and orbit_count refuses a cutoff
at which that gap, seen in the disc centred at x, would not clear the
budget.  Orbit balls realize the exponential counting regime, and packing
bounds on orbit counts turn them into certified lower bounds on blocking
thresholds (count at t over twice the uniform count bound at t/2).
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import (
    BudgetExceededError,
    DomainError,
    UnsupportedInputError,
)
from .growth import GrowthClass, GrowthSeries, rate_estimate

__all__ = [
    "MobiusMatrix",
    "FuchsianPreset",
    "OrbitBall",
    "OrbitCountResult",
    "UniformBound",
    "BlockingBound",
    "hyp_distance",
    "load_preset",
    "builtin_presets",
    "orbit_count",
    "entropy_estimate",
    "uniform_count_bound",
    "certified_blocking_lower_bound",
    "blocking_lower_bound_series",
    "word_growth",
]

# float-error budget of a word evaluation: bounds the relator check and the
# smallest orbit-point gap the cocompact dedup may rely on
_FLOAT_ERR = 1e-9
# the uniform_count_bound variants, and the base-point pairs "empirical" samples
BOUND_MODES = ("rigorous", "systole", "empirical")
_EMPIRICAL_PAIRS = 3


def hyp_distance(z: complex, w: complex) -> float:
    """Hyperbolic distance in the upper half-plane.

    Uses d = 2*asinh(|z-w| / (2*sqrt(Im z * Im w))), equivalent to
    cosh d = 1 + |z-w|^2 / (2 Im z Im w) but stable near zero.
    """
    if z.imag <= 0 or w.imag <= 0:
        raise DomainError("points must have positive imaginary part")
    return 2.0 * math.asinh(abs(z - w) / (2.0 * math.sqrt(z.imag * w.imag)))


@dataclass(frozen=True)
class MobiusMatrix:
    """Real 2x2 matrix acting on the upper half-plane, det = 1, identified
    with its negation."""

    a: float
    b: float
    c: float
    d: float

    def __post_init__(self) -> None:
        det = self.a * self.d - self.b * self.c
        if abs(det - 1.0) > 1e-9:
            raise DomainError(f"determinant must be 1, got {det}")

    def apply(self, z: complex) -> complex:
        return (self.a * z + self.b) / (self.c * z + self.d)

    def inverse(self) -> "MobiusMatrix":
        return MobiusMatrix(self.d, -self.b, -self.c, self.a)

    def compose(self, other: "MobiusMatrix") -> "MobiusMatrix":
        return MobiusMatrix(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    @property
    def trace(self) -> float:
        return self.a + self.d

    def as_array(self) -> np.ndarray:
        return np.array([[self.a, self.b], [self.c, self.d]], dtype=float)

    def close_to(self, other: "MobiusMatrix", tol: float) -> bool:
        """Equality up to sign within Frobenius tolerance."""
        s = self.as_array()
        o = other.as_array()
        return min(np.abs(s - o).max(), np.abs(s + o).max()) <= tol

    def isometric_circle(self) -> tuple[float, float]:
        """(center, radius) on the real line; requires c != 0."""
        if self.c == 0:
            raise DomainError("isometric circle undefined for c == 0")
        return (-self.d / self.c, 1.0 / abs(self.c))


@dataclass(frozen=True)
class FuchsianPreset:
    """A validated generating set for a discrete group of hyperbolic-plane
    isometries.

    ``diameter`` and ``area`` are quotient-surface metadata used by the
    rigorous counting bounds (cocompact presets only); ``systole`` is a
    lower bound on the shortest translation length and is valid for both
    kinds.
    """

    name: str
    kind: str  # "schottky" | "cocompact"
    generators: tuple[MobiusMatrix, ...]
    generator_names: tuple[str, ...]
    relator: str | None
    diameter: float | None
    area: float | None
    systole: float | None

    def gens_with_inverses(self) -> list[tuple[str, MobiusMatrix]]:
        out = []
        for name, g in zip(self.generator_names, self.generators):
            out.append((name, g))
            out.append((name.upper(), g.inverse()))
        return out

    def evaluate_word(self, word: str) -> MobiusMatrix:
        table = {name: g for name, g in self.gens_with_inverses()}
        acc = MobiusMatrix(1.0, 0.0, 0.0, 1.0)
        for token in word.split():
            if token not in table:
                raise DomainError(f"unknown generator token {token!r}")
            acc = acc.compose(table[token])
        return acc

    def validate(self) -> None:
        for name, g in zip(self.generator_names, self.generators):
            det = g.a * g.d - g.b * g.c
            if abs(det - 1.0) > 1e-9:
                raise DomainError(f"generator {name}: determinant {det} != 1")
            if abs(g.trace) <= 2.0:
                raise DomainError(f"generator {name} is not hyperbolic (|trace| <= 2)")
        if self.kind == "cocompact":
            if not self.relator:
                raise DomainError("cocompact preset needs a relator word")
            r = self.evaluate_word(self.relator)
            ident = MobiusMatrix(1.0, 0.0, 0.0, 1.0)
            if not r.close_to(ident, _FLOAT_ERR):
                raise DomainError("relator does not evaluate to +-identity")
            if self.diameter is None or self.area is None:
                raise DomainError("cocompact preset needs diameter and area metadata")
            # orbit_count's dedup rests on it
            if not isinstance(self.systole, (int, float)) or not self.systole > 0:
                raise DomainError("cocompact preset needs a positive systole")
        elif self.kind == "schottky":
            # ping-pong certificate: isometric circles of all generators and
            # inverses pairwise disjoint
            circles = []
            for name, g in self.gens_with_inverses():
                center, radius = g.isometric_circle()
                circles.append((name, center, radius))
            for i in range(len(circles)):
                for j in range(i + 1, len(circles)):
                    _, c1, r1 = circles[i]
                    _, c2, r2 = circles[j]
                    if abs(c1 - c2) <= r1 + r2:
                        raise DomainError(
                            f"isometric circles of {circles[i][0]} and {circles[j][0]} overlap"
                        )
        else:
            raise DomainError(f"unknown preset kind {self.kind!r}")

    @classmethod
    def from_json(cls, data: dict) -> "FuchsianPreset":
        gens = tuple(MobiusMatrix(*[float(v) for v in row]) for row in data["generators"])
        names = tuple(data.get("generator_names") or _default_names(len(gens)))
        preset = cls(
            name=data["name"],
            kind=data["kind"],
            generators=gens,
            generator_names=names,
            relator=data.get("relator"),
            diameter=data.get("D"),
            area=data.get("A"),
            systole=data.get("systole"),
        )
        preset.validate()
        return preset


def _default_names(n: int) -> list[str]:
    if n == 4:
        return ["a1", "b1", "a2", "b2"]
    return [f"g{i+1}" for i in range(n)]


def builtin_presets() -> list[str]:
    pkg = resources.files("geoblock.presets")
    return sorted(p.name[:-5] for p in pkg.iterdir() if p.name.endswith(".json"))


def load_preset(name_or_path: str | Path) -> FuchsianPreset:
    """Load and validate a preset from the built-in set or a JSON file.

    A file that cannot be read, is not JSON, lacks a key or holds a
    malformed generator row raises DomainError naming the file.
    """
    path = Path(name_or_path)
    if path.suffix != ".json" or not path.exists():
        path = resources.files("geoblock.presets") / f"{name_or_path}.json"
    try:
        return FuchsianPreset.from_json(json.loads(path.read_text()))
    except FileNotFoundError:
        raise DomainError(
            f"unknown preset {name_or_path!r}; built-ins: {builtin_presets()}"
        ) from None
    except DomainError:
        raise
    except (OSError, KeyError, TypeError, ValueError) as exc:
        raise DomainError(f"cannot load preset {path}: {type(exc).__name__}: {exc}") from exc


@dataclass(frozen=True)
class OrbitBall:
    """Group elements g with d(x, g y) <= t_max, the largest grid value, as
    reduced words plus matrices, with the count series over the grid."""

    x: complex
    y: complex
    words: tuple[str, ...]
    matrices: np.ndarray  # (N, 2, 2)
    displacements: np.ndarray  # (N,), sorted ascending
    count_series: tuple[tuple[float, int], ...]


@dataclass(frozen=True)
class OrbitCountResult:
    ball: OrbitBall
    series: GrowthSeries
    certified: tuple[bool, ...]
    certified_t: float

    @property
    def fully_certified(self) -> bool:
        return all(self.certified)


def _claim(cells: dict[tuple[int, int], complex], w: complex, h: float) -> bool:
    """Store w unless a stored point lies within h of it; True iff stored.

    Cells are h-squares.  Stored points are at least 2h apart, so a cell
    holds one of them and any point within h sits in the 3x3 block around
    w's cell.
    """
    i, j = math.floor(w.real / h), math.floor(w.imag / h)
    for di in (-1, 0, 1):
        for dj in (-1, 0, 1):
            v = cells.get((i + di, j + dj))
            if v is not None and abs(v - w) <= h:
                return False
    cells[(i, j)] = w
    return True


def _gen_arrays(preset: FuchsianPreset) -> tuple[list[str], np.ndarray, np.ndarray]:
    """Generator letters, their matrices, and the index of each inverse."""
    letters, mats = [], []
    for name, g in preset.gens_with_inverses():
        letters.append(name)
        mats.append(g.as_array())
    inv_index = np.empty(len(letters), dtype=int)
    for i in range(0, len(letters), 2):
        inv_index[i] = i + 1
        inv_index[i + 1] = i
    return letters, np.stack(mats), inv_index


def _apply_batch(mats: np.ndarray, z: complex) -> np.ndarray:
    num = mats[:, 0, 0] * z + mats[:, 0, 1]
    den = mats[:, 1, 0] * z + mats[:, 1, 1]
    return num / den


def _distances(x: complex, pts: np.ndarray) -> np.ndarray:
    return 2.0 * np.arcsinh(np.abs(pts - x) / (2.0 * np.sqrt(pts.imag * x.imag)))


def orbit_count(
    preset: FuchsianPreset,
    x: complex,
    y: complex,
    t_grid: Sequence[float],
    max_word_len: int = 24,
    slack: float | None = None,
    strict: bool = True,
) -> OrbitCountResult:
    """Exact count of distinct group elements with displacement <= t.

    Breadth-first expansion over reduced words; a word is expanded only
    while its displacement stays within t_max + slack, where slack defaults
    to the maximal generator displacement at the base point.  Completeness
    at the word budget is certified by the final frontier: every unexpanded
    word must already exceed t_max.  With ``strict`` a failed certificate
    raises; otherwise the result carries per-grid-point flags.

    Schottky presets need no deduplication: ping-pong makes distinct
    reduced words distinct elements.  Cocompact presets are deduplicated by
    orbit point.  Their groups are torsion-free, so distinct elements g, h
    give d(g y, h y) >= systole.  In the disc centred at x, w = (z - x) /
    (z - conj x), every kept point has |w| <= tanh(cutoff/2), and there two
    such points lie at least systole * sech^2(cutoff/2) / 2 apart.  Points
    within half that gap are one element.  When half the gap is not above
    the 1e-9 float-error budget (octagon at the default base point: t_max
    about 18.8) the count raises BudgetExceededError before any expansion.
    """
    if x.imag <= 0 or y.imag <= 0:
        raise DomainError("base points must lie in the upper half-plane")
    t_grid = [float(t) for t in t_grid]
    if not t_grid:
        raise DomainError("t grid must be nonempty")
    if sorted(t_grid) != t_grid:
        raise DomainError("t grid must be sorted ascending")
    t_max = t_grid[-1]

    letters, gen_mats, inv_index = _gen_arrays(preset)
    if slack is None:
        slack = float(max(hyp_distance(y, MobiusMatrix(*m.reshape(4)).apply(y)) for m in gen_mats))
    cutoff = t_max + slack

    cells: dict[tuple[int, int], complex] | None = None
    if preset.kind == "cocompact":
        # half the gap systole * sech^2(cutoff/2) / 2, written without overflow
        h = preset.systole * math.exp(-cutoff) / (1.0 + math.exp(-cutoff)) ** 2
        if h <= _FLOAT_ERR:
            raise BudgetExceededError(
                f"cutoff {cutoff:.6g} too large for the orbit-point dedup: its "
                f"tolerance {h:.3g} is within the float-error budget {_FLOAT_ERR:g}"
            )
        cells = {}
        _claim(cells, (y - x) / (y - x.conjugate()), h)

    # element i is element all_parent[i] followed by generator all_last[i];
    # kept children lie within the cutoff, so the frontier is the elements
    # from lo on, and only the identity may start out unexpandable
    all_parent, all_last = [-1], [-1]
    all_mats: list[np.ndarray] = [np.eye(2)]
    all_disp = [hyp_distance(x, y)]
    lo = 0 if all_disp[0] <= cutoff else 1
    level = 0
    certified_t = math.inf
    while lo < len(all_mats):
        if level >= max_word_len:
            certified_t = min(all_disp[lo:])
            break
        level += 1

        hi, n_g = len(all_mats), len(letters)
        children = np.einsum("fij,gjk->fgik", np.array(all_mats[lo:]), gen_mats)
        # no immediate backtracking: skip the inverse of the last letter
        mask = np.ones((hi - lo, n_g), dtype=bool)
        frontier_last = np.array(all_last[lo:])
        has_last = frontier_last >= 0
        mask[np.nonzero(has_last)[0], inv_index[frontier_last[has_last]]] = False

        keep_f, keep_g = np.nonzero(mask)
        children = children[keep_f, keep_g]
        pts = _apply_batch(children, y)
        d = _distances(x, pts)
        disc = (pts - x) / (pts - x.conjugate())
        for idx in range(len(children)):
            if d[idx] > cutoff:
                continue
            if cells is not None and not _claim(cells, complex(disc[idx]), h):
                continue
            all_parent.append(lo + int(keep_f[idx]))
            all_last.append(int(keep_g[idx]))
            all_mats.append(children[idx])
            all_disp.append(float(d[idx]))
        lo = hi

    if strict and certified_t <= t_max:
        raise BudgetExceededError(
            f"word budget {max_word_len} exhausted; counts certified only for "
            f"t < {certified_t:.6g}"
        )

    def word(i: int) -> str:
        out = []
        while i > 0:
            out.append(letters[all_last[i]])
            i = all_parent[i]
        return " ".join(reversed(out))

    order = np.argsort(all_disp, kind="stable")
    disp_sorted = np.array(all_disp)[order]
    mats_sorted = np.array(all_mats)[order]

    in_ball = disp_sorted <= t_max
    counts = [int(np.searchsorted(disp_sorted, t, side="right")) for t in t_grid]
    series_pairs = tuple((t, c) for t, c in zip(t_grid, counts))
    ball = OrbitBall(
        x=x,
        y=y,
        words=tuple(word(int(i)) for i in order[in_ball]),
        matrices=mats_sorted[in_ball],
        displacements=disp_sorted[in_ball],
        count_series=series_pairs,
    )
    certified = tuple(t < certified_t for t in t_grid)
    # zero counts and t = 0 cannot live on a log scale; the raw series keeps them
    positive = [(t, c) for t, c in series_pairs if c > 0 and t > 0]
    if not positive:
        positive = [(max(t_max, 1e-9), 1)]
    series = GrowthSeries.from_pairs(positive, monotone=True)
    return OrbitCountResult(ball, series, certified, certified_t)


def entropy_estimate(series: GrowthSeries, window: float = 0.5) -> GrowthClass:
    """Exponential growth rate of a count series (the entropy proxy)."""
    return rate_estimate(series, "exponential", window)


@dataclass(frozen=True)
class UniformBound:
    """Upper bound on orbit counts uniform over base-point pairs."""

    value: float
    certified: bool


def uniform_count_bound(
    preset: FuchsianPreset,
    r: float,
    mode: str = "rigorous",
    seed: int = 0,
) -> UniformBound:
    """Bound sup over base-point pairs of the orbit count at radius r.

    rigorous: area comparison; orbit points of any pair lie within r + 2D of
    a fixed point, one fundamental domain each, so
    U = 2*pi*(cosh(r + 2D) - 1)/A.  Cocompact presets only.

    systole: packing bound; orbit points are pairwise at least the systole
    apart, so balls of half that radius around them are disjoint inside a
    ball of radius r + systole/2.  Valid for both kinds and much sharper at
    desk scale.

    empirical: max orbit count over a seeded sample of base-point pairs,
    flagged heuristic.

    All variants are floored at 1 (the identity always counts).
    """
    if r < 0:
        raise DomainError("radius must be nonnegative")
    if mode == "rigorous":
        if preset.kind != "cocompact" or preset.area is None or preset.diameter is None:
            raise UnsupportedInputError(
                "rigorous mode needs a cocompact preset with diameter and area"
            )
        raw = 2.0 * math.pi * (math.cosh(r + 2.0 * preset.diameter) - 1.0) / preset.area
        return UniformBound(max(raw, 1.0), True)
    if mode == "systole":
        if not preset.systole or preset.systole <= 0:
            raise UnsupportedInputError("systole mode needs a positive systole bound")
        h = preset.systole / 2.0
        raw = (math.cosh(r + h) - 1.0) / (math.cosh(h) - 1.0)
        return UniformBound(max(raw, 1.0), True)
    if mode == "empirical":
        rng = random.Random(seed)
        worst = 1
        for _ in range(_EMPIRICAL_PAIRS):
            zx = complex(rng.uniform(-0.5, 0.5), rng.uniform(0.8, 1.3))
            zy = complex(rng.uniform(-0.5, 0.5), rng.uniform(0.8, 1.3))
            res = orbit_count(preset, zx, zy, [r], strict=False)
            worst = max(worst, res.ball.count_series[0][1])
        return UniformBound(float(worst), False)
    raise DomainError(f"unknown mode {mode!r}, expected one of {BOUND_MODES}")


@dataclass(frozen=True)
class BlockingBound:
    """Lower bound on the blocking threshold at radius t.

    value = N(t) / (2 * U(t/2)); the numerator counts all homotopy classes
    (classes through an endpoint are not excluded; for generic base points
    none occur).
    """

    t: float
    value: float
    certified: bool
    count: int


def certified_blocking_lower_bound(
    preset: FuchsianPreset,
    x: complex,
    y: complex,
    t: float,
    bound_mode: str = "systole",
    orbit: OrbitCountResult | None = None,
) -> BlockingBound:
    """Certified lower bound on the blocking threshold at radius t.

    Splitting every connecting class at a blocking point shows the count at
    t is at most 2 * s_t * sup-count at t/2, so s_t >= N(t) / (2 U(t/2)).
    Certified only when the count at t is certified and U is one of the
    rigorous modes.
    """
    if orbit is None:
        orbit = orbit_count(preset, x, y, [t], strict=False)
    n_t = int(np.searchsorted(orbit.ball.displacements, t, side="right"))
    count_certified = t < orbit.certified_t
    u = uniform_count_bound(preset, t / 2.0, mode=bound_mode)
    value = n_t / (2.0 * u.value)
    return BlockingBound(t, value, count_certified and u.certified, n_t)


def blocking_lower_bound_series(
    preset: FuchsianPreset,
    x: complex,
    y: complex,
    t_grid: Sequence[float],
    bound_mode: str = "systole",
    max_word_len: int = 24,
    strict: bool = True,
) -> list[BlockingBound]:
    orbit = orbit_count(preset, x, y, t_grid, max_word_len=max_word_len, strict=strict)
    return [
        certified_blocking_lower_bound(preset, x, y, t, bound_mode=bound_mode, orbit=orbit)
        for t in t_grid
    ]


def word_growth(kind: str, rank: int, n: int) -> int:
    """Ball sizes in word metrics: free groups and free abelian groups.

    free: 1 + sum over lengths i of 2k(2k-1)^(i-1) reduced words.
    abelian: integer points with l1 norm at most n.
    """
    if rank < 1:
        raise DomainError("rank must be >= 1")
    if n < 0:
        raise DomainError("n must be >= 0")
    if kind == "free":
        total = 1
        for i in range(1, n + 1):
            total += 2 * rank * (2 * rank - 1) ** (i - 1)
        return total
    if kind == "abelian":
        total = 0
        for i in range(0, min(rank, n) + 1):
            total += 2**i * math.comb(rank, i) * math.comb(n, i)
        return total
    raise DomainError(f"unknown kind {kind!r}")
