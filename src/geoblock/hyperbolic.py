"""Orbit counting for surface groups: cocompact, torsion-free groups of
hyperbolic-plane isometries.

Upper half-plane model throughout, binary64 floats; rounding error grows
linearly in word length and is budgeted at 1e-9.  An orbit search is
complete by a Voronoi-chain argument: loading certifies that the
generators' bisector polygon F about the preset's centre c is the
Dirichlet domain at c, the Voronoi cell of c in its orbit, so the path
c -> x -> g y -> g c crosses side-adjacent tiles from F to g F whose
centres lie no farther from the path than c or g c do, and every g with
d(x, g y) <= t is reached through elements within
max(d(x, c) + d(y, c), t + 2 d(y, c)).
Orbits are deduplicated by orbit point: distinct elements of a
torsion-free group move a base point at least one systole apart, and
orbit_count refuses a cutoff at which half that gap, seen in the disc
centred at x, is within nine budgets.  Orbit balls realize the exponential
counting regime, and packing bounds on orbit counts turn them into
certified lower bounds on blocking thresholds (count at t over twice the
uniform count bound at t/2).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import TYPE_CHECKING, Sequence

from .errors import BudgetExceededError, DomainError

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "MobiusMatrix",
    "FuchsianPreset",
    "OrbitBall",
    "OrbitCountResult",
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
# smallest orbit-point gap the orbit-point dedup may rely on
_FLOAT_ERR = 1e-9
# k in the orbit-point dedup's guard h > k * _FLOAT_ERR (orbit_count derives it)
_DEDUP_BUDGETS = 9
# frontier elements expanded per batch of the orbit BFS: bounds the memory
# of one level's children
_SLICE = 4096
# the keys a preset file may use
_PRESET_KEYS = {"name", "generators", "generator_names", "relator", "systole", "centre"}


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
    with its negation.  Loading a preset checks each generator's determinant
    (``FuchsianPreset.validate``); products and inverses keep it up to
    rounding, which an absolute check would mistake for a wrong matrix."""

    a: float
    b: float
    c: float
    d: float

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
        import numpy as np
        return np.array([[self.a, self.b], [self.c, self.d]], dtype=float)

    def close_to(self, other: "MobiusMatrix", tol: float) -> bool:
        """Equality up to sign within Frobenius tolerance."""
        s = self.as_array()
        o = other.as_array()
        return min(abs(s - o).max(), abs(s + o).max()) <= tol


@dataclass(frozen=True)
class FuchsianPreset:
    """A validated generating set for a surface group, with the ``relator``
    that closes its fundamental polygon.

    ``systole`` is a positive lower bound on the shortest translation
    length: the uniform count bound rests on it, and so does the
    orbit-point dedup.  The ``centre`` c is the polygon's: loading
    certifies that the bisector half-planes of c and s c, s a generator or
    inverse, cut out the Dirichlet domain at c, on which orbit_count's
    search cutoff rests, by comparing its area with the ``surface_area``
    that the relator fixes.  Any other key is refused.
    """

    name: str
    generators: tuple[MobiusMatrix, ...]
    generator_names: tuple[str, ...]
    relator: str
    systole: float
    centre: complex | None

    @property
    def surface_area(self) -> float:
        """4 pi (g - 1): the area of the genus-g surface, 4g the relator's length."""
        return math.pi * (len(self.relator.split()) - 4)

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
        # one name per generator, distinct from every other name and every
        # inverse token name.upper(), its own included
        names = self.generator_names
        tokens = {*names, *(n.upper() for n in names)}
        if len(names) != len(self.generators) or len(tokens) != 2 * len(names):
            raise DomainError(
                f"generator_names {list(names)} must name each of the {len(self.generators)} generators once, "
                "and no name may equal an inverse token name.upper()"
            )
        for name, g in zip(names, self.generators):
            det = g.a * g.d - g.b * g.c
            if abs(det - 1.0) > _FLOAT_ERR:
                raise DomainError(f"generator {name} has determinant {det}; the determinant must be 1")
            if abs(g.trace) <= 2.0:
                raise DomainError(f"generator {name} is not hyperbolic (|trace| <= 2)")
        # the uniform count bound and the orbit-point dedup rest on it; each
        # generator is a group element, so the systole is at most its
        # translation length 2 arccosh(|tr g| / 2)
        shortest = min((2.0 * math.acosh(abs(g.trace) / 2.0) for g in self.generators), default=math.inf)
        if type(self.systole) not in (int, float) or not 0 < self.systole <= shortest * (1.0 + _FLOAT_ERR) < math.inf:
            raise DomainError(f"preset needs a positive systole, at most the shortest generator translation "
                              f"length {shortest:.12g}")
        if not self.relator:
            raise DomainError("preset needs a relator word")
        r = self.evaluate_word(self.relator)
        ident = MobiusMatrix(1.0, 0.0, 0.0, 1.0)
        if not r.close_to(ident, _FLOAT_ERR):
            raise DomainError("relator does not evaluate to +-identity")
        # orbit_count's search cutoff rests on the Dirichlet domain at the centre
        if self.centre is None:
            raise DomainError("preset needs its polygon centre")
        if not self.centre.imag > 0:
            raise DomainError("polygon centre must lie in the upper half-plane")
        # the Dirichlet domain lies inside the bisector polygon and has
        # the surface's area: equal areas make the two equal
        polygon = _bisector_polygon(self.centre, self.gens_with_inverses())
        area = (len(polygon) - 2) * math.pi - sum(angle for _, angle in polygon)
        surface = self.surface_area
        if abs(area - surface) > _FLOAT_ERR:
            raise DomainError(
                f"the generators' bisector polygon about the centre has area {area:.12g}, "
                f"not the surface's {surface:.12g}: it is not the Dirichlet domain there"
            )

    @classmethod
    def from_json(cls, data: dict) -> "FuchsianPreset":
        unknown = sorted(set(data) - _PRESET_KEYS)
        if unknown:
            raise DomainError(f"unknown preset key: {', '.join(map(repr, unknown))}")
        gens = tuple(MobiusMatrix(*[float(v) for v in row]) for row in data["generators"])
        names = data.get("generator_names", _default_names(len(gens)))
        if not isinstance(names, list) or not all(isinstance(n, str) for n in names):
            raise DomainError(f"generator_names must be a list of strings, got {names!r}")
        relator = data.get("relator")
        if not isinstance(relator, str):
            raise DomainError(f"relator must be a string of generator tokens, got {relator!r}")
        preset = cls(
            name=data["name"],
            generators=gens,
            generator_names=tuple(names),
            relator=relator,
            systole=data.get("systole"),
            centre=complex(*data["centre"]) if "centre" in data else None,
        )
        preset.validate()
        return preset


def _bisector_polygon(
    centre: complex, gens: Sequence[tuple[str, MobiusMatrix]]
) -> list[tuple[complex, float]]:
    """The polygon of the half-planes {p : d(p, c) <= d(p, s c)}, s over
    ``gens``, as its vertices in the Klein disc centred at c with their
    interior angles, counterclockwise.

    In that disc the half-plane of s is k . u <= h, with u the direction of
    s c and h = tanh(d(c, s c) / 2).  Sorted by direction, consecutive lines
    meet at the vertices, where cos(angle) = -(u1 . u2 - h1 h2) /
    sqrt((1 - h1^2)(1 - h2^2)).  Raises DomainError unless consecutive
    directions turn by less than pi and every vertex lies inside the disc
    and strictly inside every other half-plane: then the polygon is compact
    and each s bounds exactly one side.
    """
    lines = []
    for name, s in gens:
        z = s.apply(centre)
        w = (z - centre) / (z - centre.conjugate())  # Poincare disc: |w| = h
        lines.append((math.atan2(w.imag, w.real), w / abs(w), abs(w), name))
    lines.sort(key=lambda line: line[0])
    polygon = []
    for (_, u1, h1, n1), (_, u2, h2, n2) in zip(lines, lines[1:] + lines[:1]):
        # the sine of the turn from u1 to u2
        turn = u1.real * u2.imag - u1.imag * u2.real
        vertex = math.inf
        if turn > 0:
            vertex = complex(h1 * u2.imag - h2 * u1.imag, h2 * u1.real - h1 * u2.real) / turn
        if not abs(vertex) < 1 or any(
            n not in (n1, n2) and not vertex.real * u.real + vertex.imag * u.imag < h
            for _, u, h, n in lines
        ):
            raise DomainError(
                f"the bisectors of {n1} and {n2} about the polygon centre meet at no vertex "
                "of a compact polygon: it is not the Dirichlet domain there"
            )
        cos_angle = -(u1.real * u2.real + u1.imag * u2.imag - h1 * h2) / math.sqrt(
            (1.0 - h1 * h1) * (1.0 - h2 * h2)
        )
        polygon.append((vertex, math.acos(cos_angle)))
    return polygon


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
    except (OSError, KeyError, TypeError, ValueError, RecursionError) as exc:
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
    import numpy as np
    mats = np.stack([g.as_array() for _, g in preset.gens_with_inverses()])
    inv_index = np.arange(len(mats)) ^ 1
    return mats, inv_index


def _apply_batch(mats: np.ndarray, z: complex) -> np.ndarray:
    num = mats[:, 0, 0] * z + mats[:, 0, 1]
    den = mats[:, 1, 0] * z + mats[:, 1, 1]
    return num / den


def _distances(x: complex, pts: np.ndarray) -> np.ndarray:
    import numpy as np
    return 2.0 * np.arcsinh(np.abs(pts - x) / (2.0 * np.sqrt(pts.imag * x.imag)))


def _products(mats: np.ndarray, gen_mats: np.ndarray) -> np.ndarray:
    """mats[n] @ gen_mats[n] for every n, shape (N, 2, 2).

    Each entry is rounded as np.einsum("fij,gjk->fgik") rounds it: the two
    products added to a zero-initialised sum in binary64, with no fused
    multiply-add (a test checks the two agree bit for bit).
    """
    import numpy as np
    m, g = mats.reshape(-1, 4), gen_mats.reshape(-1, 4)
    out = np.empty((len(m), 2, 2))
    for i in range(2):
        for k in range(2):
            out[:, i, k] = (0.0 + m[:, 2 * i] * g[:, k]) + m[:, 2 * i + 1] * g[:, 2 + k]
    return out


def _gram_margin(cutoff: float) -> float:
    """Relative slack of the Gram prune at the cutoff.  As |w| = tanh(d/2),
    moving a disc point by the float-error budget moves d by at most
    2 cosh^2(d/2) = 1 + cosh d times the budget, and 2 cosh d by at most
    that fraction of itself."""
    return (1.0 + math.cosh(cutoff)) * _FLOAT_ERR


def _frames(mats: np.ndarray, x: complex, y: complex) -> tuple[np.ndarray, ...]:
    """The entries (a, b, c, d) of A_x^-1 g A_y for every matrix g, where
    A_z = [[sqrt v, u / sqrt v], [0, 1 / sqrt v]] maps i to z = u + iv.
    A_x^-1 and A_y are triangular, so the entries come from g's
    elementwise, with no stacked 2x2 product."""
    p, q, s, t = mats.reshape(-1, 4).T
    rx, ry = math.sqrt(x.imag), math.sqrt(y.imag)
    # the rows of A_x^-1 g, then times A_y
    a, b, c, d = (p - x.real * s) / rx, (q - x.real * t) / rx, rx * s, rx * t
    return a * ry, (a * y.real + b) / ry, c * ry, (c * y.real + d) / ry


def _gen_form(gen_mats: np.ndarray, y: complex) -> np.ndarray:
    """The generators' coefficients in ``_gram_norms``, shape (3, G)."""
    import numpy as np
    s0, s1, s2, s3 = _frames(gen_mats, y, y)
    return np.stack([s0 * s0 + s1 * s1, 2.0 * (s0 * s2 + s1 * s3), s2 * s2 + s3 * s3])


def _gram_norms(mats: np.ndarray, x: complex, y: complex, gen_form: np.ndarray) -> np.ndarray:
    """|A_x^-1 g s A_y|_F^2 = 2 cosh d(x, g s y) for every frontier matrix g
    and generator s, shape (F, G).  With (a, b, c, d) = A_x^-1 g A_y and
    (s0, s1, s2, s3) = A_y^-1 s A_y (``_frames``) it is the parent's Gram form
    (a^2 + c^2, ab + cd, b^2 + d^2) against the generator's
    (s0^2 + s1^2, 2 (s0 s2 + s1 s3), s2^2 + s3^2)."""
    import numpy as np
    a, b, c, d = _frames(mats, x, y)
    return np.stack([a * a + c * c, a * b + c * d, b * b + d * d], axis=1) @ gen_form


def _cells(w: np.ndarray, h: float) -> tuple[np.ndarray, np.ndarray]:
    """The keys, row * width + column, of the h/2-cells that hold disc
    points, and of those that hold the corners of the square of half-side
    2 ``_FLOAT_ERR`` about each, shape (N, 4): the cells the square meets.
    |w| < 1, so cell coordinates lie within +-(2/h + 1)."""
    import numpy as np
    offset = int(2.0 / h) + 2
    width = 2 * offset + 1
    # cell coordinates, shifted positive so that truncation floors them
    u, v = w.real / (h / 2.0) + offset, w.imag / (h / 2.0) + offset
    s = 4.0 * _FLOAT_ERR / h
    rows = np.stack([u - s, u, u + s]).astype(np.int64) * width
    cols = np.stack([v - s, v, v + s]).astype(np.int64)
    return rows[1] + cols[1], (rows[::2, None] + cols[None, ::2]).reshape(4, -1).T


def _is_stored(own: np.ndarray, square: np.ndarray, store: np.ndarray) -> np.ndarray:
    """True where a key of the sorted, nonempty ``store`` is one of the
    cells a point's square meets: its own cell, when the square lies in it."""
    import numpy as np

    def found(keys: np.ndarray) -> np.ndarray:
        return store[np.minimum(np.searchsorted(store, keys), len(store) - 1)] == keys

    out = found(own)
    e = np.nonzero(square[:, 0] != square[:, 3])[0]
    out[e] = found(square[e]).any(axis=1)
    return out


def _is_first(own: np.ndarray, square: np.ndarray) -> np.ndarray:
    """True where no lower-indexed point's own cell is one its square meets:
    where the square lies in one cell, the cell's first point."""
    import numpy as np
    order = np.argsort(own, kind="stable")
    first = order[np.nonzero(np.diff(own[order], prepend=-1))[0]]
    cells = own[first]
    out = np.zeros(len(own), dtype=bool)
    out[first] = True
    e = np.nonzero(square[:, 0] != square[:, 3])[0]
    at = np.minimum(np.searchsorted(cells, square[e]), len(cells) - 1)
    out[e] = ~((cells[at] == square[e]) & (first[at] < e[:, None])).any(axis=1)
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

    The cutoff, from Voronoi chains.  Loading certified the preset's
    polygon F about its centre c as the Dirichlet domain D_c: the points
    no farther from c than from any other point of the orbit G c.  Let
    r_y = d(y, c) and d(x, g y) = t <= t_max, and follow the path
    c -> x -> g y -> g c.  Every tile h F holding a point p of the path has
    d(p, h c) <= d(p, k c) for every k; so on [c, x], with k = 1,
    d(x, h y) <= d(x, p) + d(p, c) + r_y = d(x, c) + r_y, and on
    [x, g y] and [g y, g c], with k = g, d(x, h y) <= d(x, p) + d(p, g c)
    + r_y <= t + 2 r_y.  The path crosses a chain of such tiles from F to
    g F; where it passes a vertex, every tile around the vertex holds it.
    Consecutive tiles share a side, and the tile across the side of h F on
    the bisector of (h c, h s c) is h s F, one generator s to the right, as
    _products multiplies.  Every element of the ball is thus reached
    through elements within max(d(x, c) + r_y, t_max + 2 r_y), and so is
    the identity, as d(x, y) <= d(x, c) + r_y.

    Elements are deduplicated by orbit point.  The group is torsion-free,
    so distinct elements g, k give d(g y, k y) >= systole (Katok, *Fuchsian
    Groups*, 1992).  In the disc centred at x, w = (z - x) / (z - conj x),
    every kept point has |w| <= tanh(cutoff/2), and there two such points
    lie at least systole * sech^2(cutoff/2) / 2 = 2h apart: computed ones
    at least 2h - e, e the float-error budget ``_FLOAT_ERR``, and two
    copies of one element within e of each other.

    The dedup reads integer keys of cells of side h/2 only (``_cells``).
    With S the square of half-side 2e about a child (e for a copy, e for
    rounding), the child is a copy of a stored element iff a stored key is
    a cell S meets (``_is_stored``), and new in its level iff no
    lower-indexed child's own cell is one S meets (``_is_first``): the
    first copy in (parent, generator) order is kept.  A copy lies in S,
    so its cell meets S; a point of a cell that meets S lies within
    sqrt(2) (h/2 + 2e) of the child, below 2h - e once
    h > (1 + 2 sqrt 2) / (2 - sqrt(2)/2) e, about 2.96 e: it is a copy.
    S meets only the cells of its four corners when its side 4e is below
    the cell side h/2: h > 8e, with room for the rounding of the corners'
    coordinates, below 1e-15.  So k = 9: the count raises
    BudgetExceededError before any expansion when h <= 9e (octagon at the
    default base point: t_max about 19.56); below it the certified flags
    rest on that budget.  Keys stay below (4/h + 5)^2 < 2e17, in int64.
    A square inside one cell is decided by that cell's key alone; only a
    square that crosses a cell side looks up its corners' cells.

    Children are pruned before they are formed.  With A_z mapping i to z
    (``_frames``), 2 cosh d(x, g s y) = |A_x^-1 g s A_y|_F^2, a quadratic
    form in the parent's Gram matrix and the generator's (``_gram_norms``).
    A pair is multiplied out only when that norm is within 2 cosh(cutoff)
    by the relative margin ``_gram_margin``, far above the relative 3e-11
    by which the two evaluations differ within cutoff 12 on the octagon.
    The kept children are then rounded, placed and measured as before and
    held to the same ``d <= cutoff`` test, so the pruned children are ones
    that test drops, and every output is the unpruned search's bit for bit.
    """
    import numpy as np
    if x.imag <= 0 or y.imag <= 0:
        raise DomainError("base points must lie in the upper half-plane")
    t_grid = [float(t) for t in t_grid]
    if not t_grid:
        raise DomainError("t grid must be nonempty")
    if sorted(t_grid) != t_grid:
        raise DomainError("t grid must be sorted ascending")
    t_max = t_grid[-1]

    gen_mats, inv_index = _gen_arrays(preset)
    r_y = hyp_distance(y, preset.centre)
    cutoff = max(hyp_distance(x, preset.centre) + r_y, t_max + 2.0 * r_y)
    # half the gap systole * sech^2(cutoff/2) / 2, written without overflow
    h = preset.systole * math.exp(-cutoff) / (1.0 + math.exp(-cutoff)) ** 2
    if h <= _DEDUP_BUDGETS * _FLOAT_ERR:
        raise BudgetExceededError(
            f"cutoff {cutoff:.6g} too large for the orbit-point dedup: its tolerance {h:.3g} "
            f"is within {_DEDUP_BUDGETS} times the float-error budget {_FLOAT_ERR:g}"
        )
    store = _cells(np.array([(y - x) / (y - x.conjugate())]), h)[0]

    gen_form = _gen_form(gen_mats, y)
    bound = 2.0 * math.cosh(cutoff) * (1.0 + _gram_margin(cutoff))

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
            frontier = mats[lo:lo + _SLICE]
            near = _gram_norms(frontier, x, y, gen_form) <= bound
            keep_f, keep_g = np.nonzero(near & (np.arange(len(gen_mats)) != forbid[lo:lo + _SLICE, None]))
            children = _products(frontier[keep_f], gen_mats[keep_g])
            pts = _apply_batch(children, y)
            d = _distances(x, pts)
            sel = np.nonzero(d <= cutoff)[0]
            own, square = _cells((pts[sel] - x) / (pts[sel] - x.conjugate()), h)
            new = ~_is_stored(own, square, store)
            sel = sel[new]
            parts.append([children[sel], d[sel], keep_g[sel], own[new], square[new]])
        mats, disp, last, own, square = (np.concatenate(a) for a in zip(*parts))

        new = _is_first(own, square)
        mats, disp, last, own = mats[new], disp[new], last[new], np.sort(own[new])
        store = np.insert(store, np.searchsorted(store, own), own)

        kept.append(disp[disp <= t_max])

    disp = np.sort(np.concatenate(kept))
    counts = tuple((t, int(np.searchsorted(disp, t, side="right"))) for t in t_grid)
    certified = tuple(t < certified_t for t in t_grid)
    return OrbitCountResult(OrbitBall(disp, counts), certified, certified_t)


def uniform_count_bound(preset: FuchsianPreset, r: float) -> float:
    """Bound sup over base-point pairs of the orbit count at radius r.

    Packing bound: orbit points are pairwise at least the systole apart, so
    balls of radius h = systole/2 around them are disjoint inside a ball of
    radius r + h, and U = (cosh(r + h) - 1)/(cosh h - 1), floored at 1 (the
    identity always counts).
    """
    if r < 0:
        raise DomainError("radius must be nonnegative")
    h = preset.systole / 2.0
    return max((math.cosh(r + h) - 1.0) / (math.cosh(h) - 1.0), 1.0)


@dataclass(frozen=True)
class BlockingBound:
    """Lower bound on the blocking threshold at radius t.

    value = N(t) / (2 * U(t/2)); the numerator counts all homotopy classes
    (classes through an endpoint are not excluded; for generic base points
    none occur).  ``certified`` is the count's flag: U is always an upper
    bound.
    """

    t: float
    value: float
    certified: bool
    count: int


def certified_blocking_lower_bound(
    preset: FuchsianPreset,
    orbit: OrbitCountResult,
    t: float,
) -> BlockingBound:
    """Certified lower bound on the blocking threshold at radius t, from the
    orbit count of the base points (``orbit_count`` over a grid reaching t).

    Splitting every connecting class at a blocking point shows the count at
    t is at most 2 * s_t * sup-count at t/2, so s_t >= N(t) / (2 U(t/2)),
    with U the systole packing bound.  Certified when the count at t is.
    The orbit's ball holds the displacements up to its grid's largest t
    only, so a larger t raises DomainError.
    """
    t_max = orbit.ball.count_series[-1][0]
    if t > t_max:
        raise DomainError(f"t = {t} lies past the orbit's grid, which ends at {t_max}")
    n_t = int(orbit.ball.displacements.searchsorted(t, side="right"))
    value = n_t / (2.0 * uniform_count_bound(preset, t / 2.0))
    return BlockingBound(t, value, t < orbit.certified_t, n_t)


def blocking_lower_bound_series(
    preset: FuchsianPreset,
    x: complex,
    y: complex,
    t_grid: Sequence[float],
    max_word_len: int = 24,
) -> list[BlockingBound]:
    orbit = orbit_count(preset, x, y, t_grid, max_word_len=max_word_len)
    return [certified_blocking_lower_bound(preset, orbit, t) for t in t_grid]


def word_growth(kind: str, rank: int, n: int) -> int:
    """Ball sizes in word metrics: surface groups and free abelian groups.

    surface: the genus-``rank`` surface group on its 2g standard generators,
    whose spheres have Cannon and Wagreich's rational growth series
    (1 + 2z + ... + 2z^(2g-1) + z^(2g)) / (1 - (4g-2)(z + ... + z^(2g-1)) + z^(2g)).
    abelian: integer points with l1 norm at most n.
    """
    if rank < 1:
        raise DomainError("rank must be >= 1")
    if n < 0:
        raise DomainError("n must be >= 0")
    if kind == "surface":
        # the series' denominator times the sphere sizes is its numerator
        two_g = 2 * rank
        numerator = [1] + [2] * (two_g - 1) + [1]
        spheres: list[int] = []
        for i in range(n + 1):
            size = numerator[i] if i <= two_g else 0
            size += (2 * two_g - 2) * sum(spheres[max(i - two_g + 1, 0):i])
            if i >= two_g:
                size -= spheres[i - two_g]
            spheres.append(size)
        return sum(spheres)
    if kind == "abelian":
        total = 0
        for i in range(0, min(rank, n) + 1):
            total += 2**i * math.comb(rank, i) * math.comb(n, i)
        return total
    raise DomainError(f"unknown kind {kind!r}")
