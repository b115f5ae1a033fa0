"""Exact enumeration and classification of connecting geodesics on flat
2-tori and the unit-square billiard table.

Everything is exact rational arithmetic: lengths are only ever handled as
squared lengths, incidence (does this point lie on that geodesic interior?) is
an integer yes/no from the first-mark lemma (``_first_mark``), one gcd and one
Bezout pair per segment, and enumeration is complete by integer row bounds.
Both geometries are one construction: the plane modulo a lattice and a group
of axis sign flips preserving it.  A torus has the identity as its only flip;
the billiard is the torus R^2/(2Z)^2 folded by all four flips (unfolding), so
its trajectories are straight segments from x to the images g*y + lambda.
Trajectories whose interior hits a point fixed by the half-turn (a corner of
the table) are rejected: the flow is undefined there.

Keys inside, points at the edge.  The one point type inside is the folded
integer key (``FlatSpace._fold_key``): families and ``blocker``'s instances,
solutions and recursion levels hold keys.  A segment is plain integers on its
family: a family is its origin and its connecting displacements
(``GeodesicFamily``), and ``key_at``, ``_passes_through`` and
``intersection_candidates`` take the family and a displacement.  ``count``,
``blocking_threshold``, the pair sampler and the config parse take
``RationalPoint``s and fold each endpoint once
(``FlatSpace.validate_point``); ``FlatSpace._key_point`` makes points again
only for printed output and error messages.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, replace
from fractions import Fraction
from math import isqrt
from typing import Callable, Iterable

from .errors import BudgetExceededError, DomainError, UnsupportedInputError

Vec = tuple[Fraction, Fraction]
Flip = tuple[int, int]
Key = tuple[int, int, int]  # a folded point as integer lattice coordinates (i/d, j/d)
Disp = tuple[int, int]  # a segment's displacement g*y + lambda - x, lattice coordinates over its family's D
_MAX_BOX_POINTS = 10**6  # the largest enumeration box walked; the shipped configs and bench need < 10^4

__all__ = [
    "RationalPoint",
    "FlatSpace",
    "GeodesicFamily",
    "shortest_vector",
    "connecting_family",
    "count",
    "intersection_candidates",
    "load_space",
]


def _frac(x) -> Fraction:
    """Parse exact rationals; strings like '3/4' are accepted."""
    if isinstance(x, float):
        raise DomainError(f"exact rational required, got float {x!r}")
    try:
        return Fraction(x)
    except (ValueError, ZeroDivisionError, TypeError) as exc:
        raise DomainError(f"not an exact rational: {x!r}") from exc


@dataclass(frozen=True, order=True)
class RationalPoint:
    x: Fraction
    y: Fraction

    @classmethod
    def of(cls, x, y) -> "RationalPoint":
        return cls(_frac(x), _frac(y))

    def __str__(self) -> str:
        return f"({self.x},{self.y})"


def _sq(a: Vec) -> Fraction:
    return a[0] * a[0] + a[1] * a[1]


def _cross(a: Vec, b: Vec) -> Fraction:
    return a[0] * b[1] - a[1] * b[0]


@dataclass(frozen=True)
class FlatSpace:
    """A flat geometry: the plane modulo a lattice and a group of axis sign
    flips that preserves it.

    The torus has the identity as its only flip.  The unit-square billiard
    table is the lattice (2Z)^2 with all four flips; its fundamental domain
    is the table, and the points fixed by the half-turn (-1,-1) are its
    corners.  The flips act on lattice coordinates by the same signs, which
    holds because the only non-trivial group comes with a diagonal basis.

    delta_sq is the squared injectivity radius: a quarter of the shortest
    nonzero lattice vector's squared length for the torus.  For the billiard
    table only the inequality verifier consumes delta; the conservative
    convention delta = 1/4 is used.  delta_note states it for reports.
    """

    kind: str  # "torus" | "billiard"
    b1: Vec
    b2: Vec
    delta_sq: Fraction
    delta_note: str
    _inv: tuple[int, int, int, int, int]  # rows of B^-1 as integers over the last entry, > 0
    group: tuple[Flip, ...]
    _scaled: tuple[int, int, int, int, int]  # (L, L*b1, L*b2) with L*b1, L*b2 integral
    _flips: tuple[bool, bool]  # whether the group flips each axis; it is the product of these sign sets

    @classmethod
    def _quotient(cls, kind: str, b1, b2, group: tuple[Flip, ...]) -> "FlatSpace":
        b1 = (_frac(b1[0]), _frac(b1[1]))
        b2 = (_frac(b2[0]), _frac(b2[1]))
        det = _cross(b1, b2)
        if det == 0:
            raise DomainError("lattice basis is degenerate (zero determinant)")
        inv = (b2[1] / det, -b2[0] / det, -b1[1] / det, b1[0] / det)
        d = math.lcm(*(c.denominator for c in inv))
        inv = (*(int(c * d) for c in inv), d)
        L = math.lcm(*(c.denominator for c in b1 + b2))
        scaled = (L, *(int(c * L) for c in b1 + b2))
        flips = tuple(any(g[k] < 0 for g in group) for k in (0, 1))
        return cls(kind, b1, b2, Fraction(0), "", inv, group, scaled, flips)

    @classmethod
    def torus(cls, b1, b2) -> "FlatSpace":
        space = cls._quotient("torus", b1, b2, ((1, 1),))
        _, sq = shortest_vector(space)
        return replace(space, delta_sq=sq / 4, delta_note="torus delta^2 = shortest^2/4")

    @classmethod
    def unit_torus(cls) -> "FlatSpace":
        return cls.torus((1, 0), (0, 1))

    @classmethod
    def square_billiard(cls) -> "FlatSpace":
        space = cls._quotient("billiard", (2, 0), (0, 2), ((1, 1), (1, -1), (-1, 1), (-1, -1)))
        note = "delta=1/4 (conservative; shortest unfolded closed displacement is 2)"
        return replace(space, delta_sq=Fraction(1, 16), delta_note=note)

    @property
    def is_torus(self) -> bool:
        return self.kind == "torus"

    def _lattice_ints(self, p: RationalPoint) -> tuple[tuple[int, int], int]:
        """Lattice coordinates of the point as integers over their least
        common denominator."""
        m0, m1, m2, m3, d = self._inv
        # the point is (a, c)/q with a, c integers
        q = math.lcm(p.x.denominator, p.y.denominator)
        a, c = p.x.numerator * (q // p.x.denominator), p.y.numerator * (q // p.y.denominator)
        i, j = m0 * a + m1 * c, m2 * a + m3 * c
        g = math.gcd(d * q, i, j)
        return (i // g, j // g), d * q // g

    def _fold_key(self, n1: int, n2: int, den: int) -> Key:
        """The point (n1/den, n2/den) in lattice coordinates, den > 0, reduced
        mod the lattice, then to its least group image, then by gcd(i, j, den):
        equal points get equal keys.  The group is a product of per-axis sign
        sets, so its least image is the least image on each axis."""
        flip1, flip2 = self._flips
        i, j = n1 % den, n2 % den
        i, j = min(i, den - i) if flip1 else i, min(j, den - j) if flip2 else j
        g = math.gcd(i, j, den)
        return i // g, j // g, den // g

    def _key_plane(self, key: Key) -> tuple[int, int, int]:
        """The key's point in the plane as (X/D, Y/D), integers with D > 0."""
        i, j, den = key
        L, b1x, b1y, b2x, b2y = self._scaled
        return i * b1x + j * b2x, i * b1y + j * b2y, den * L

    def _key_point(self, key: Key) -> RationalPoint:
        X, Y, D = self._key_plane(key)
        return RationalPoint(Fraction(X, D), Fraction(Y, D))

    def key(self, p: RationalPoint) -> Key:
        """The point's key: its lattice coordinates, folded by ``_fold_key``."""
        (n1, n2), den = self._lattice_ints(p)
        return self._fold_key(n1, n2, den)

    def reduce_point(self, p: RationalPoint) -> RationalPoint:
        """Canonical fundamental-domain representative of a point."""
        return self._key_point(self.key(p))

    def admits_endpoint(self, key: Key) -> bool:
        """Whether the point with this key can be a segment endpoint: no flip
        fixes it mod the lattice, 0 < 2i < den on every flipped axis (a folded
        key has 2i <= den).  Any torus point; a billiard point off the walls."""
        return all(0 < 2 * c < key[2] for c, flip in zip(key, self._flips) if flip)

    def _endpoint(self, key: Key) -> Key:
        """The key, checked to be admitted as an endpoint."""
        if not self.admits_endpoint(key):
            point = self._key_point(key)
            raise UnsupportedInputError(f"billiard endpoints must be interior table points, got {point}")
        return key

    def validate_point(self, p: RationalPoint) -> Key:
        """The key of endpoint p, which must lie in the fundamental domain,
        0 <= 2n <= den for its lattice numerators n on every flipped axis (the
        fold would carry a point off it onto it), and be admitted."""
        (n1, n2), den = self._lattice_ints(p)
        if not all(0 <= 2 * n <= den for n, flip in zip((n1, n2), self._flips) if flip):
            raise UnsupportedInputError(f"billiard endpoints must be interior table points, got {p}")
        return self._endpoint(self._fold_key(n1, n2, den))


def shortest_vector(space: FlatSpace) -> tuple[Vec, Fraction]:
    """A nonzero lattice vector of minimal squared length.

    Two-dimensional Lagrange-Gauss reduction; minimality is certified by an
    exhaustive scan over small coefficients of the reduced basis.
    """
    u, v = space.b1, space.b2
    if _sq(u) > _sq(v):
        u, v = v, u
    while True:
        mu = round((u[0] * v[0] + u[1] * v[1]) / _sq(u))
        v = (v[0] - mu * u[0], v[1] - mu * u[1])
        if _sq(v) < _sq(u):
            u, v = v, u
        else:
            break
    best, best_sq = u, _sq(u)
    for i in range(-2, 3):
        for j in range(-2, 3):
            if i == 0 and j == 0:
                continue
            w = (i * u[0] + j * v[0], i * u[1] + j * v[1])
            if _sq(w) < best_sq:
                best, best_sq = w, _sq(w)
    if best[0] < 0 or (best[0] == 0 and best[1] < 0):
        best = (-best[0], -best[1])
    return best, best_sq


def _ray(a1: int, a2: int) -> tuple[int, int, int, int, int]:
    """(g, p1, p2, u, v) for a displacement a != 0: a = g*p with
    g = gcd(a1, a2), so p is primitive, and a Bezout pair u*p1 + v*p2 = 1."""
    g = math.gcd(a1, a2)
    p1, p2 = a1 // g, a2 // g
    u = pow(p1, -1, abs(p2)) if p2 else p1  # p2 = 0 leaves p1 = +-1
    return g, p1, p2, u, ((1 - u * p1) // p2 if p2 else 0)


def _first_mark(ray: tuple[int, int, int, int, int], c1: int, c2: int, den: int) -> int:
    """The least j > 0 with j*p = c (mod den) on the ``_ray`` g*p, or 0 if
    there is none: the first mark of offset c on the ray.

    The first-mark lemma: some s in (0, 1) has s*a = c (mod den) iff
    0 < first mark < g.  Proof: such an s*a is integral and p is primitive, so
    s = j/g with j*p = c; and j*p = c forces j = j*(u*p1 + v*p2) = u*c1 + v*c2,
    one residue mod den, which solves it iff j*p = c holds for it.
    """
    _, p1, p2, u, v = ray
    j = (u * c1 + v * c2) % den
    if (j * p1 - c1) % den or (j * p2 - c2) % den:
        return 0
    return j or den


def _passes_through(family: GeodesicFamily, a: Disp, z: Key) -> bool:
    """Whether the interior of the family's segment with displacement a
    passes through the point with key z: s*a - (g*z - x) is a lattice vector
    for some s in (0,1) and flip g.  The flips and lattice vectors range over
    groups, so every representative of the point gives the same answer."""
    x1, x2, den = family.origin
    z1, z2, zden = z
    q = math.lcm(den, zden)
    f, fz = q // den, q // zden
    ray = _ray(a[0] * f, a[1] * f)
    return any(0 < _first_mark(ray, s1 * z1 * fz - x1 * f, s2 * z2 * fz - x2 * f, q) < ray[0]
               for s1, s2 in family.space.group)


def _enumerate(
    space: FlatSpace, x: Key, y: Key, t_sq: Fraction
) -> tuple[tuple[int, int, int], list[Disp], tuple[Disp, ...], tuple[tuple[int, ...], ...], int]:
    """The origin, x as (X1, X2, D) over the common denominator D of x and
    y; the joining segments' displacements in order of their plane vectors,
    and the connecting ones; the family's ``sq_lengths``; and their scale.

    Rows are bounded by the integral box: a_k/D is row_k(B^-1) . v with rows
    m/d, so |v| <= t gives |a_k| <= isqrt(floor(D^2 |m_k|^2 t^2 / d^2)).  A
    row, scaled plane vectors base + j*step, is walked over its exact
    interval |A*j + B| <= isqrt(floor(A*t^2*scale^2) - C^2), A = |step|^2,
    B = base . step, C = base x step (Lagrange: B^2 - A*|base|^2 = -C^2).

    ``_first_mark`` classifies: x's translates and a segment's own coset are
    hit iff g > D (first marks D and g mod D), so on a torus that is the whole
    test; corners, 2*(x + s*a) = 0 (mod D), hit iff 0 < mark of -2x < 2g.
    """
    (x1, x2, dx), (y1, y2, dy) = x, y
    den = math.lcm(dx, dy)
    x1, x2, y1, y2 = x1 * (den // dx), x2 * (den // dx), y1 * (den // dy), y2 * (den // dy)
    L, b1x, b1y, b2x, b2y = space._scaled
    scale = L * den
    m0, m1, m2, m3, d = space._inv
    reach_num, reach_den = den * den * t_sq.numerator, d * d * t_sq.denominator
    X1, X2 = ((m * m + n * n) * reach_num // reach_den for m, n in ((m0, m1), (m2, m3)))
    # log10 of the box's |G| (2 sqrt(X1)/D + 1)(2 sqrt(X2)/D + 1) points; an isqrt of a huge X can take minutes
    sides = [math.log10(4 * X) / 2 - math.log10(den) if X else -math.inf for X in (X1, X2)]
    box = math.log10(len(space.group)) + sum(max(e, 0) + math.log10(1 + 10 ** -abs(e)) for e in sides)
    if box > math.log10(_MAX_BOX_POINTS):
        t = (math.log10(t_sq.numerator) - math.log10(t_sq.denominator)) / 2
        t, box = (f"{10 ** (e % 1):.3f}e{int(e // 1):+d}" for e in (t, box))
        raise BudgetExceededError(f"t = {t} needs a box of about {box} points, over the limit {_MAX_BOX_POINTS}")
    w1 = isqrt(X1)
    step_x, step_y = den * b2x, den * b2y
    A = step_x * step_x + step_y * step_y
    reach = A * t_sq.numerator * scale * scale // t_sq.denominator
    # the offsets of x's and y's images mod D, other than x's translates
    marks = {((s1 * z1 - x1) % den, (s2 * z2 - x2) % den) for z1, z2 in ((x1, x2), (y1, y2))
             for s1, s2 in space.group} - {(0, 0)}
    half_turn = (-1, -1) in space.group

    found, rejected = [], []
    for s1, s2 in space.group:
        # lattice coordinates of g*y - x + (i, j), over den
        c1, c2 = s1 * y1 - x1, s2 * y2 - x2
        others = [(o1, o2) for o1, o2 in marks if (o1, o2) != (c1 % den, c2 % den)]
        for i in range(-((w1 + c1) // den), (w1 - c1) // den + 1):
            a1 = c1 + i * den
            base_x = a1 * b1x + c2 * b2x
            base_y = a1 * b1y + c2 * b2y
            cross = base_x * step_y - base_y * step_x
            if cross * cross > reach:
                continue
            r = isqrt(reach - cross * cross)
            dot = base_x * step_x + base_y * step_y
            for j in range(-((r + dot) // A), (r - dot) // A + 1):
                vx, vy, a2 = base_x + j * step_x, base_y + j * step_y, c2 + j * den
                if vx == 0 and vy == 0:
                    continue
                sq_scaled = vx * vx + vy * vy
                if not (half_turn or others):
                    found.append((vx, vy, sq_scaled, (a1, a2), math.gcd(a1, a2) <= den))
                    continue
                ray = _ray(a1, a2)
                g = ray[0]
                if half_turn and 0 < _first_mark(ray, -2 * x1, -2 * x2, den) < 2 * g:
                    rejected.append(sq_scaled)
                    continue
                hits = g > 1 and any(0 < _first_mark(ray, o1, o2, den) < g for o1, o2 in others)
                found.append((vx, vy, sq_scaled, (a1, a2), g <= den and not hits))
    # every displacement is (vx, vy)/scale with one scale > 0, and distinct: sort on (vx, vy)
    found.sort()
    sq_lengths = tuple(tuple(sorted(q)) for q in ([r[2] for r in found], [r[2] for r in found if r[4]], rejected))
    return (x1, x2, den), [r[3] for r in found], tuple(r[3] for r in found if r[4]), sq_lengths, scale * scale


def _positive_t_sq(t_sq) -> Fraction:
    t_sq = _frac(t_sq)
    if t_sq <= 0:
        raise DomainError(f"t^2 must be positive, got {t_sq}")
    return t_sq


@dataclass(frozen=True)
class GeodesicFamily:
    """The connecting geodesics Gamma between the endpoints with keys x and
    y, counted with all joining geodesics G.

    A segment is its displacement a = g*y + lambda - x in lattice
    coordinates over ``origin``'s D: ``origin`` is x as (X1, X2, D), over
    the common denominator of x and y, and ``connecting`` holds the
    connecting displacements in the order of their plane vectors.
    ``sq_lengths`` holds the sorted squared lengths of the joining, the
    connecting and the corner-rejected segments, as integers over
    ``sq_scale``: enough to count the family at any smaller t, since whether
    a segment connects or is corner-rejected does not depend on t.
    """

    space: FlatSpace
    x: Key
    y: Key
    t_sq: Fraction
    origin: tuple[int, int, int]
    connecting: tuple[Disp, ...]
    sq_lengths: tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]
    sq_scale: int

    @property
    def n(self) -> int:
        return len(self.sq_lengths[0])

    @property
    def m(self) -> int:
        return len(self.connecting)

    def key_at(self, a: Disp, p: int, q: int) -> Key:
        """The key of the point at parameter p/q, q > 0, on the segment with
        displacement a."""
        x1, x2, den = self.origin
        return self.space._fold_key(x1 * q + p * a[0], x2 * q + p * a[1], den * q)

    def counts_at(self, t_sq) -> tuple[int, int, int]:
        """(n, m, corner_rejected) of the family at t_sq <= self.t_sq: the
        segments of squared length at most t_sq."""
        t_sq = _positive_t_sq(t_sq)
        if t_sq > self.t_sq:
            raise DomainError(f"t^2 = {t_sq} exceeds the family's t^2 = {self.t_sq}")
        bound = t_sq.numerator * self.sq_scale // t_sq.denominator
        return tuple(bisect_right(lengths, bound) for lengths in self.sq_lengths)

    def within(self, t_sq) -> "GeodesicFamily":
        """The family at t_sq <= self.t_sq, equal to a fresh enumeration there:
        the connecting displacements of squared length at most t_sq, in their
        order."""
        counts = self.counts_at(t_sq)
        t_sq = _positive_t_sq(t_sq)
        bound = t_sq.numerator * self.sq_scale // t_sq.denominator
        _, b1x, b1y, b2x, b2y = self.space._scaled
        return replace(
            self,
            t_sq=t_sq,
            connecting=tuple(
                (a1, a2) for a1, a2 in self.connecting
                if (a1 * b1x + a2 * b2x) ** 2 + (a1 * b1y + a2 * b2y) ** 2 <= bound
            ),
            sq_lengths=tuple(lengths[:c] for lengths, c in zip(self.sq_lengths, counts)),
        )


def connecting_family(space: FlatSpace, x: Key, y: Key, t_sq) -> GeodesicFamily:
    """The family between the endpoints x and y at t_sq.  They are keys, or
    any lattice coordinates (i, j, den) with den > 0, which are folded; each
    must be admitted (``FlatSpace.admits_endpoint``).  A joining segment
    through an endpoint is counted in ``sq_lengths`` and kept nowhere else."""
    t_sq = _positive_t_sq(t_sq)
    x, y = space._endpoint(space._fold_key(*x)), space._endpoint(space._fold_key(*y))
    origin, _, connecting, sq_lengths, scale = _enumerate(space, x, y, t_sq)
    return GeodesicFamily(space, x, y, t_sq, origin, connecting, sq_lengths, scale)


def count(space: FlatSpace, x: RationalPoint, y: RationalPoint, t_sq) -> tuple[int, int]:
    """(n, m): all joining geodesics, and those not passing through x or y."""
    return connecting_family(space, space.validate_point(x), space.validate_point(y), t_sq).counts_at(t_sq)[:2]


def _point_order(space: FlatSpace, keys: Iterable[Key]) -> Callable[[Key], object]:
    """A sort key giving the exact point order on ``keys``.

    It is the correctly rounded float coordinates when they are exact:
    distinct coordinates over denominators at most D differ by at least
    1/D^2, more than rounding can close while D^2 * |coordinate| < 2^51.
    Otherwise it is the exact coordinates.
    """
    L, b1x, b1y, b2x, b2y = space._scaled
    top = L * max((key[2] for key in keys), default=1)
    if top * top * max(abs(b1x) + abs(b2x), abs(b1y) + abs(b2y)) >= L << 51:

        def exact(key: Key) -> tuple[Fraction, Fraction]:
            X, Y, D = space._key_plane(key)
            return Fraction(X, D), Fraction(Y, D)

        return exact

    def approx(key: Key) -> tuple[float, float]:
        i, j, den = key
        return (i * b1x + j * b2x) / (den * L), (i * b1y + j * b2y) / (den * L)

    return approx


def intersection_candidates(family: GeodesicFamily, a: Disp, b: Disp) -> list[tuple[Key, int, int, int]]:
    """Transversal crossings in both interiors of the family's segments with
    distinct displacements a and b, as (key_at(a, sn, sd), sn, sd, un), one
    per crossing and unsorted: ``build_instance`` merges them by key.

    Solves x + u*b = h*(x + s*a) + lambda over the flips h, in integer
    lattice coordinates: u*B - s*h*A = (h*X - X) + D*k with k integral.  A
    crossing is at s = sn/sd, u = un/sd, sd > 0.  A flip making the two
    parallel yields nothing: connecting segments never overlap (``blocker``).

    Crossings cost about their hits: sn and un are affine in k, so each k1
    row of the box solves for the k2 interval that keeps one of them in
    (0, sd) and tests only the k2 in it.
    """
    if a == b:
        raise DomainError("segments must be distinct")
    x1, x2, den = family.origin
    (a1, a2), (b1, b2) = a, b
    fold = family.space._fold_key
    hits = []
    for s1, s2 in family.space.group:
        h1, h2 = s1 * a1, s2 * a2
        cross = b1 * h2 - b2 * h1
        if not cross:
            continue
        c1, c2 = s1 * x1 - x1, s2 * x2 - x2
        # r1 = c1 + k1*den = u*b1 - s*h1 over s, u in (0, 1) lies in (lo, hi)
        lo, hi = (b1, 0) if b1 < 0 else (0, b1)
        lo, hi = (lo - h1, hi) if h1 > 0 else (lo, hi - h1)
        k1_lo, k1_hi = (lo - c1) // den + 1, (hi - 1 - c1) // den
        # s = (r1 E2 - r2 E1)/sd, u = (r1 F2 - r2 F1)/sd over sd = |cross|,
        # with (E, F) = ±(B, H), so that the fold sees den > 0; on a k1 row
        # sn = sn0 + ds*k2 and un = un0 + du*k2, and the next row adds dsr, dur
        sd, e1, e2, f1, f2 = (cross, b1, b2, h1, h2) if cross > 0 else (-cross, -b1, -b2, -h1, -h2)
        ds, du, dsr, dur = -e1 * den, -f1 * den, e2 * den, f2 * den
        r1 = c1 + k1_lo * den
        sn0, un0 = r1 * e2 - c2 * e1, r1 * f2 - c2 * f1
        # step through the k2 interval where the steeper of sn, un lies in
        # (0, sd), keeping the points where the other does too
        a, r, b = (sn0, dsr, ds) if b1 * b1 >= h1 * h1 else (un0, dur, du)
        if b < 0:
            a, r, b = sd - a, -r, -b
        for _ in range(k1_hi - k1_lo + 1):
            k2_lo, k2_hi = -a // b + 1, (sd - 1 - a) // b
            if k2_lo <= k2_hi:
                sn, un = sn0 + k2_lo * ds, un0 + k2_lo * du
                for _ in range(k2_hi - k2_lo + 1):
                    if 0 < sn < sd and 0 < un < sd:
                        hits.append((fold(x1 * sd + sn * a1, x2 * sd + sn * a2, den * sd), sn, sd, un))
                    sn, un = sn + ds, un + du
            sn0, un0, a = sn0 + dsr, un0 + dur, a + r
    return hits


def load_space(cfg: dict) -> FlatSpace:
    """Build a flat geometry from a config mapping.

    Torus: {"kind": "torus", "basis": ["1", "0", "0", "1"]} with rationals
    given as p/q strings or integers.  Billiard: {"kind": "billiard"}.
    """
    kind = cfg.get("kind")
    if kind == "billiard":
        return FlatSpace.square_billiard()
    if kind == "torus":
        basis = cfg.get("basis")
        if not isinstance(basis, list) or len(basis) != 4:
            raise DomainError(f"torus config needs 'basis' as a list [b1x, b1y, b2x, b2y], got {basis!r}")
        vals = [_frac(v) for v in basis]
        return FlatSpace.torus((vals[0], vals[1]), (vals[2], vals[3]))
    raise DomainError(f"unknown flat geometry kind {kind!r}")
