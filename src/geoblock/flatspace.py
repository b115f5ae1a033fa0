"""Exact enumeration and classification of connecting geodesics on flat
2-tori and the unit-square billiard table.

Everything is exact rational arithmetic: lengths are only ever handled as
squared lengths, incidence (does this point lie on that geodesic interior?) is
an integer yes/no from one linear congruence per flip (``_affine_hits``), and
enumeration completeness comes from integer bounding boxes.  Both geometries
are one construction: the plane modulo a lattice and a group of axis sign
flips preserving it.  A torus has the identity as its only flip; the billiard
is the torus R^2/(2Z)^2 folded by all four flips (unfolding), so its
trajectories are straight segments from x to the images g*y + lambda.
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
from typing import Callable, Iterable, Sequence

from .errors import DomainError, UnsupportedInputError

Vec = tuple[Fraction, Fraction]
Flip = tuple[int, int]
Key = tuple[int, int, int]  # a folded point as integer lattice coordinates (i/d, j/d)
Disp = tuple[int, int]  # a segment's displacement g*y + lambda - x, lattice coordinates over its family's D

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


def _affine_hits(a1: int, a2: int, c1: int, c2: int, den: int = 1) -> bool:
    """Whether some s in (0,1) makes (s*a1 - c1)/den and (s*a2 - c2)/den both
    integers.

    The inputs are integers, den > 0 and (a1, a2) != (0, 0); a zero component
    turns its congruence into a plain integrality condition on c.  The
    conditions read s*aj = cj (mod den); the first parametrizes
    s = (c1 + i*den)/a1 and the second becomes a linear congruence in i, so
    the answer is whether its least solution past the open interval's lower
    end is below its upper end: integer work, independent of |a1|.
    """
    if a1 == 0 and a2 == 0:
        raise DomainError("degenerate direction in incidence solve")
    if a1 == 0:
        a1, a2, c1, c2 = a2, a1, c2, c1

    # second condition: i * (den a2) = c2 a1 - c1 a2  (mod |den a1|)
    mod = abs(den * a1)
    rhs = (c2 * a1 - c1 * a2) % mod
    coef = (den * a2) % mod
    g = math.gcd(coef, mod)
    if rhs % g:
        return False
    step = mod // g
    if coef == 0:
        i0 = 0  # rhs == 0 here and step == 1: every i solves the congruence
    else:
        i0 = (rhs // g * pow(coef // g, -1, step)) % step

    # s in (0,1): c1 + i den strictly between 0 and a1 (orientation by sign),
    # which holds for exactly the i in [i_min, i_max]
    lo, hi = (0, a1) if a1 > 0 else (a1, 0)
    i_min = (lo - c1) // den + 1
    i_max = -((-(hi - c1)) // den) - 1
    return i_min + (i0 - i_min) % step <= i_max


def _passes_through(family: GeodesicFamily, a: Disp, z: Key) -> bool:
    """Whether the interior of the family's segment with displacement a
    passes through the point with key z: s*a - (g*z - x) is a lattice vector
    for some s in (0,1) and flip g.  The flips and lattice vectors range over
    groups, so every representative of the point gives the same answer."""
    x1, x2, den = family.origin
    a1, a2 = a
    z1, z2, zden = z
    q = math.lcm(den, zden)
    f, fz = q // den, q // zden
    return any(
        _affine_hits(a1 * f, a2 * f, s1 * z1 * fz - x1 * f, s2 * z2 * fz - x2 * f, q)
        for s1, s2 in family.space.group
    )


def _enumerate(
    space: FlatSpace, x: Key, y: Key, t_sq: Fraction
) -> tuple[tuple[int, int, int], list[Disp], list[int], list[int], int, list[Disp]]:
    """The origin, x as (X1, X2, D) over the common denominator D of x and
    y; the joining segments' displacements in order of their plane vectors;
    their squared lengths and those of the corner-rejected segments, as
    integers over one scale; that scale; and the endpoint offsets g*x - x and
    g*y - x in lattice coordinates over D.

    The box is integral: a displacement's lattice coordinate a_k/den is
    row_k(B^-1) . v and the rows are integers m over d, so when |v| <= t the
    integer a_k has |a_k| <= isqrt(floor(den^2 |m_k|^2 t^2 / d^2)) = w_k.
    """
    (x1, x2, dx), (y1, y2, dy) = x, y
    den = math.lcm(dx, dy)
    x1, x2, y1, y2 = x1 * (den // dx), x2 * (den // dx), y1 * (den // dy), y2 * (den // dy)
    origin = (x1, x2, den)
    L, b1x, b1y, b2x, b2y = space._scaled
    scale = L * den
    bound_num = t_sq.numerator * scale * scale
    bound_den = t_sq.denominator
    m0, m1, m2, m3, d = space._inv
    reach_num, reach_den = den * den * t_sq.numerator, d * d * bound_den
    w1 = isqrt((m0 * m0 + m1 * m1) * reach_num // reach_den)
    w2 = isqrt((m2 * m2 + m3 * m3) * reach_num // reach_den)
    half_turn = (-1, -1) in space.group
    step_x, step_y = den * b2x, den * b2y

    found = []
    rejected = []
    for s1, s2 in space.group:
        # lattice coordinates of g*y - x + (i, j), over den
        c1, c2 = s1 * y1 - x1, s2 * y2 - x2
        # a1 = c1 + i*den and a2 = c2 + j*den within [-w, w]
        for i in range(-((w1 + c1) // den), (w1 - c1) // den + 1):
            a1 = c1 + i * den
            base_x = a1 * b1x + c2 * b2x
            base_y = a1 * b1y + c2 * b2y
            for j in range(-((w2 + c2) // den), (w2 - c2) // den + 1):
                vx = base_x + j * step_x
                vy = base_y + j * step_y
                if vx == 0 and vy == 0:
                    continue
                sq_scaled = vx * vx + vy * vy
                if sq_scaled * bound_den > bound_num:
                    continue
                a2 = c2 + j * den
                # points fixed by the half-turn have 2*(lattice coordinates) integral
                if half_turn and _affine_hits(2 * a1, 2 * a2, -2 * x1, -2 * x2, den):
                    rejected.append(sq_scaled)
                    continue
                found.append((vx, vy, sq_scaled, (a1, a2)))
    # every displacement is (vx, vy)/scale with one scale > 0: sort on (vx, vy)
    found.sort(key=lambda r: (r[0], r[1]))
    ends = [(s1 * z1 - x1, s2 * z2 - x2) for z1, z2 in ((x1, x2), (y1, y2)) for s1, s2 in space.group]
    return origin, [r[3] for r in found], [r[2] for r in found], rejected, scale * scale, ends


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
    origin, joining, lengths, rejected, scale, ends = _enumerate(space, x, y, t_sq)
    den = origin[2]
    keep = [not any(_affine_hits(a1, a2, c1, c2, den) for c1, c2 in ends) for a1, a2 in joining]
    connecting = tuple(a for a, kept in zip(joining, keep) if kept)
    sq_lengths = (
        tuple(sorted(lengths)), tuple(sorted(q for q, kept in zip(lengths, keep) if kept)), tuple(sorted(rejected))
    )
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
        if not isinstance(basis, Sequence) or len(basis) != 4:
            raise DomainError("torus config needs basis: [b1x, b1y, b2x, b2y]")
        vals = [_frac(v) for v in basis]
        return FlatSpace.torus((vals[0], vals[1]), (vals[2], vals[3]))
    raise DomainError(f"unknown flat geometry kind {kind!r}")
