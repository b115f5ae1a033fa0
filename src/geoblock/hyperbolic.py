"""Orbit counting for discrete isometry groups of the hyperbolic plane.

Upper half-plane model throughout, binary64 floats; rounding error grows
linearly in word length and is budgeted at 1e-9.  A cocompact orbit search
is complete by a tile-chain argument: with F a fundamental polygon of
centre c and circumradius R whose sides the generators pair, the path
c -> x -> g y -> g c crosses side-adjacent tiles from F to g F, each
holding a point of the path, so every g with d(x, g y) <= t is reached
through elements within max(d(x, c), t + d(y, c)) + R + d(y, c).
Cocompact orbits are deduplicated by orbit point: distinct elements of a
torsion-free group move a base point at least one systole apart, and
orbit_count refuses a cutoff at which that gap, seen in the disc centred at
x, would not clear the budget.  Orbit balls realize the exponential
counting regime, and packing bounds on orbit counts turn them into
certified lower bounds on blocking thresholds (count at t over twice the
uniform count bound at t/2).
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
# frontier elements expanded per batch of the orbit BFS: bounds the memory
# of one level's children
_SLICE = 4096


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
    kinds.  Cocompact presets also carry the ``centre`` of a fundamental
    polygon whose sides the generators pair, and an upper bound on its
    ``circumradius``; orbit_count's search cutoff rests on them.
    """

    name: str
    kind: str  # "schottky" | "cocompact"
    generators: tuple[MobiusMatrix, ...]
    generator_names: tuple[str, ...]
    relator: str | None
    diameter: float | None
    area: float | None
    systole: float | None
    centre: complex | None
    circumradius: float | None

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
        # MobiusMatrix has already checked each determinant
        for name, g in zip(self.generator_names, self.generators):
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
            # and its search cutoff on these
            if self.centre is None or not isinstance(self.circumradius, (int, float)):
                raise DomainError("cocompact preset needs its polygon centre and circumradius")
            if not self.centre.imag > 0 or not self.circumradius > 0:
                raise DomainError("polygon centre must lie in the upper half-plane, circumradius > 0")
            # the side neighbours g F of the polygon F touch F
            for name, g in self.gens_with_inverses():
                if hyp_distance(self.centre, g.apply(self.centre)) > 2.0 * self.circumradius:
                    raise DomainError(
                        f"generator {name} moves the polygon centre more than twice the circumradius"
                    )
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
            centre=complex(*data["centre"]) if "centre" in data else None,
            circumradius=data.get("circumradius"),
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
    """The group elements g with d(x, g y) <= t_max, the largest grid value,
    as their displacements d(x, g y), with the count series over the grid."""

    displacements: np.ndarray  # (N,), sorted ascending
    count_series: tuple[tuple[float, int], ...]


@dataclass(frozen=True)
class OrbitCountResult:
    """The ball, and per grid point whether its count is certified: the
    counts are exact below ``certified_t``."""

    ball: OrbitBall
    certified: tuple[bool, ...]
    certified_t: float


def _gen_arrays(preset: FuchsianPreset) -> tuple[np.ndarray, np.ndarray]:
    """The generators and their inverses as matrices, and the index of each
    one's inverse."""
    mats = np.stack([g.as_array() for _, g in preset.gens_with_inverses()])
    inv_index = np.arange(len(mats)) ^ 1
    return mats, inv_index


def _apply_batch(mats: np.ndarray, z: complex) -> np.ndarray:
    num = mats[:, 0, 0] * z + mats[:, 0, 1]
    den = mats[:, 1, 0] * z + mats[:, 1, 1]
    return num / den


def _distances(x: complex, pts: np.ndarray) -> np.ndarray:
    return 2.0 * np.arcsinh(np.abs(pts - x) / (2.0 * np.sqrt(pts.imag * x.imag)))


def _products(mats: np.ndarray, gen_mats: np.ndarray) -> np.ndarray:
    """mats[f] @ gen_mats[g] for every pair, shape (F, G, 2, 2).

    Each entry is rounded as np.einsum("fij,gjk->fgik") rounds it: the two
    products added to a zero-initialised sum in binary64, with no fused
    multiply-add (a test checks the two agree bit for bit).
    """
    m, g = mats.reshape(-1, 4), gen_mats.reshape(-1, 4)
    out = np.empty((len(m), len(g), 2, 2))
    for i in range(2):
        for k in range(2):
            out[:, :, i, k] = (0.0 + np.multiply.outer(m[:, 2 * i], g[:, k])) + np.multiply.outer(
                m[:, 2 * i + 1], g[:, 2 + k]
            )
    return out


def _claimed(
    keys: np.ndarray, pts: np.ndarray, store_keys: np.ndarray, store_pts: np.ndarray,
    h: float, width: int, rank: np.ndarray | None = None,
) -> np.ndarray:
    """True where a stored point lies within h of the point.

    Cells are h-squares keyed row * width + column, and the store is sorted
    by key.  Stored points are at least 2h apart, so a cell holds one of
    them and any point within h sits in the 3x3 block around the point's
    cell: per row of that block, the first three stored keys from the
    block's left cell on.  With ``rank`` only stored points of lower rank
    than the point's own index count.
    """
    out = np.zeros(len(keys), dtype=bool)
    n = len(store_keys)
    if not n:
        return out
    for row in (-width, 0, width):
        left = keys + (row - 1)
        pos = np.searchsorted(store_keys, left)
        for step in range(3):
            q = np.minimum(pos + step, n - 1)
            k = store_keys[q]
            near = (k >= left) & (k <= left + 2) & (np.abs(store_pts[q] - pts) <= h)
            if rank is not None:
                near &= rank[q] < np.arange(len(keys))
            out |= near
    return out


def orbit_count(
    preset: FuchsianPreset,
    x: complex,
    y: complex,
    t_grid: Sequence[float],
    max_word_len: int = 24,
) -> OrbitCountResult:
    """Exact count of distinct group elements with displacement <= t.

    Breadth-first expansion over reduced words, one level per word length;
    a word is expanded only while its displacement stays within a cutoff.
    Only the frontier's matrices and last letters are kept, and each level's
    displacements within t_max.  When the word budget runs out before the
    frontier does, the unexpanded words may still reach the ball: the
    counts are certified only below the least displacement of that final
    frontier, ``certified_t``, and each grid point carries its flag.

    Cocompact cutoff, from tile chains.  Let F be the preset's polygon with
    centre c and circumradius R, and let d(x, g y) <= t_max.  The path
    c -> x -> g y -> g c crosses a chain of side-adjacent tiles from F to
    g F (around a vertex it passes the tiles sharing that vertex), and
    consecutive tiles differ by one generator.  Each tile g_i F of the chain
    holds a point p of the path, so d(x, g_i y) <= d(x, p) + R + d(y, c),
    and d(x, p) <= max(d(x, c), t_max + d(y, c)).  Every element of the
    ball is thus reached through elements within
    max(d(x, c), t_max + d(y, c)) + R + d(y, c).  Schottky presets expand
    within t_max plus the largest generator displacement at y.

    Schottky presets need no deduplication: ping-pong makes distinct
    reduced words distinct elements.  Cocompact presets are deduplicated by
    orbit point.  Their groups are torsion-free, so distinct elements g, h
    give d(g y, h y) >= systole.  In the disc centred at x, w = (z - x) /
    (z - conj x), every kept point has |w| <= tanh(cutoff/2), and there two
    such points lie at least systole * sech^2(cutoff/2) / 2 apart.  Points
    within half that gap are one element; within a level the first in
    (parent, generator) order is kept.  When half the gap is not above the
    1e-9 float-error budget (octagon at the default base point: t_max about
    19.3) the count raises BudgetExceededError before any expansion.
    """
    if x.imag <= 0 or y.imag <= 0:
        raise DomainError("base points must lie in the upper half-plane")
    t_grid = [float(t) for t in t_grid]
    if not t_grid:
        raise DomainError("t grid must be nonempty")
    if sorted(t_grid) != t_grid:
        raise DomainError("t grid must be sorted ascending")
    t_max = t_grid[-1]

    gen_mats, inv_index = _gen_arrays(preset)
    dedup = preset.kind == "cocompact"
    if dedup:
        r_y = hyp_distance(y, preset.centre)
        cutoff = max(hyp_distance(x, preset.centre), t_max + r_y) + preset.circumradius + r_y
        # half the gap systole * sech^2(cutoff/2) / 2, written without overflow
        h = preset.systole * math.exp(-cutoff) / (1.0 + math.exp(-cutoff)) ** 2
        if h <= _FLOAT_ERR:
            raise BudgetExceededError(
                f"cutoff {cutoff:.6g} too large for the orbit-point dedup: its "
                f"tolerance {h:.3g} is within the float-error budget {_FLOAT_ERR:g}"
            )
        # |w| < 1, so cell coordinates lie within +-(1/h + 1) and keys fit int64
        offset = int(1.0 / h) + 2
        width = 2 * offset + 1

        def cell_keys(w: np.ndarray) -> np.ndarray:
            i = np.floor(w.real / h).astype(np.int64) + offset
            j = np.floor(w.imag / h).astype(np.int64) + offset
            return i * width + j

        store_pts = np.array([(y - x) / (y - x.conjugate())])
        store_keys = cell_keys(store_pts)
    else:
        cutoff = t_max + max(hyp_distance(y, g.apply(y)) for _, g in preset.gens_with_inverses())

    # the frontier is the last level, as matrices, displacements and last
    # letters, or nothing when the identity lies beyond the cutoff; every
    # level keeps its displacements within t_max
    mats, disp, last = np.eye(2)[None], np.array([hyp_distance(x, y)]), np.array([-1])
    kept = [disp[disp <= t_max]]
    if disp[0] > cutoff:
        mats = mats[:0]
    level = 0
    certified_t = math.inf
    while len(mats):
        if level >= max_word_len:
            certified_t = float(disp.min())
            break
        level += 1

        # no immediate backtracking: skip the inverse of the last letter
        forbid = np.where(last >= 0, inv_index[last], -1)
        parts = []
        for lo in range(0, len(mats), _SLICE):
            children = _products(mats[lo:lo + _SLICE], gen_mats)
            keep_f, keep_g = np.nonzero(np.arange(len(gen_mats)) != forbid[lo:lo + _SLICE, None])
            children = children[keep_f, keep_g]
            pts = _apply_batch(children, y)
            d = _distances(x, pts)
            sel = np.nonzero(d <= cutoff)[0]
            part = [children[sel], d[sel], keep_g[sel]]
            if dedup:
                w = (pts[sel] - x) / (pts[sel] - x.conjugate())
                keys = cell_keys(w)
                new = ~_claimed(keys, w, store_keys, store_pts, h, width)
                part = [a[new] for a in part] + [keys[new], w[new]]
            parts.append(part)
        mats, disp, last, *rest = (np.concatenate(a) for a in zip(*parts))

        if dedup:
            keys, w = rest
            # the first child in each cell has the cell's lowest index; a
            # child is new iff no lower-indexed child lies within h of it
            order = np.argsort(keys, kind="stable")
            first = order[np.nonzero(np.diff(keys[order], prepend=-1))[0]]
            new = ~_claimed(keys, w, keys[first], w[first], h, width, rank=first)
            mats, disp, last = mats[new], disp[new], last[new]
            keys, w = keys[new], w[new]
            order = np.argsort(keys)
            at = np.searchsorted(store_keys, keys[order])
            store_keys = np.insert(store_keys, at, keys[order])
            store_pts = np.insert(store_pts, at, w[order])

        kept.append(disp[disp <= t_max])

    disp = np.sort(np.concatenate(kept))
    counts = tuple((t, int(np.searchsorted(disp, t, side="right"))) for t in t_grid)
    certified = tuple(t < certified_t for t in t_grid)
    return OrbitCountResult(OrbitBall(disp, counts), certified, certified_t)


@dataclass(frozen=True)
class UniformBound:
    """Upper bound on orbit counts uniform over base-point pairs."""

    value: float
    certified: bool


def uniform_count_bound(
    preset: FuchsianPreset,
    r: float,
    mode: str = "rigorous",
) -> UniformBound:
    """Bound sup over base-point pairs of the orbit count at radius r.

    rigorous: area comparison; orbit points of any pair lie within r + 2D of
    a fixed point, one fundamental domain each, so
    U = 2*pi*(cosh(r + 2D) - 1)/A.  Cocompact presets only.

    systole: packing bound; orbit points are pairwise at least the systole
    apart, so balls of half that radius around them are disjoint inside a
    ball of radius r + systole/2.  Valid for both kinds and much sharper at
    desk scale.

    empirical: max orbit count over a fixed sample of base-point pairs (seed
    0), flagged heuristic.

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
        rng = random.Random(0)
        worst = 1
        for _ in range(_EMPIRICAL_PAIRS):
            zx = complex(rng.uniform(-0.5, 0.5), rng.uniform(0.8, 1.3))
            zy = complex(rng.uniform(-0.5, 0.5), rng.uniform(0.8, 1.3))
            res = orbit_count(preset, zx, zy, [r])
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
        orbit = orbit_count(preset, x, y, [t])
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
) -> list[BlockingBound]:
    orbit = orbit_count(preset, x, y, t_grid, max_word_len=max_word_len)
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
