"""Exact enumeration and classification of connecting geodesics on flat
2-tori and the unit-square billiard table.

Everything is exact rational arithmetic: lengths are only ever handled as
squared lengths, incidence questions (does this point lie on that geodesic
interior?) are solved over the rationals, and enumeration completeness comes
from integer bounding boxes.  Both geometries are one construction: the plane
modulo a lattice and a group of axis sign flips preserving it.  A torus has
the identity as its only flip; the billiard is the torus R^2/(2Z)^2 folded by
all four flips (unfolding), so its trajectories are straight segments from x
to the images g*y + lambda.  Trajectories whose interior hits a point fixed
by the half-turn (a corner of the table) are rejected: the flow is undefined
there.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, replace
from fractions import Fraction
from math import isqrt
from typing import Sequence

from .errors import DomainError, UnsupportedInputError

Vec = tuple[Fraction, Fraction]
Flip = tuple[int, int]
Key = tuple[int, int, int]  # a folded point as integer lattice coordinates (i/d, j/d)

__all__ = [
    "RationalPoint",
    "FlatSpace",
    "GeodesicSegment",
    "IntersectionHit",
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


def rat_sqrt_upper(q: Fraction) -> Fraction:
    """A rational upper bound on sqrt(q) for q >= 0."""
    if q < 0:
        raise DomainError("negative value has no real square root")
    n, d = q.numerator, q.denominator
    return Fraction(isqrt(n * d) + 1, d)


def _ceil(q: Fraction) -> int:
    return -((-q.numerator) // q.denominator)


def _floor(q: Fraction) -> int:
    return q.numerator // q.denominator


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
    convention delta = 1/4 is used and recorded in reports.
    """

    kind: str  # "torus" | "billiard"
    b1: Vec
    b2: Vec
    delta_sq: Fraction
    _inv: tuple[int, int, int, int, int]  # rows of B^-1 as integers over the last entry, > 0
    group: tuple[Flip, ...]
    _scaled: tuple[int, int, int, int, int]  # (L, L*b1, L*b2) with L*b1, L*b2 integral
    _flips: tuple[bool, bool]  # whether the group flips each axis; it is the product of these sign sets

    BILLIARD_DELTA_CONVENTION = "delta=1/4 (conservative; shortest unfolded closed displacement is 2)"

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
        return cls(kind, b1, b2, Fraction(0), inv, group, scaled, flips)

    @classmethod
    def torus(cls, b1, b2) -> "FlatSpace":
        space = cls._quotient("torus", b1, b2, ((1, 1),))
        _, sq = shortest_vector(space)
        return replace(space, delta_sq=sq / 4)

    @classmethod
    def unit_torus(cls) -> "FlatSpace":
        return cls.torus((1, 0), (0, 1))

    @classmethod
    def square_billiard(cls) -> "FlatSpace":
        space = cls._quotient("billiard", (2, 0), (0, 2), ((1, 1), (1, -1), (-1, 1), (-1, -1)))
        # shortest periodic unfolded closed displacement is 2
        return replace(space, delta_sq=Fraction(1, 16))

    @property
    def is_torus(self) -> bool:
        return self.kind == "torus"

    def from_lattice(self, i: Fraction, j: Fraction) -> Vec:
        return (i * self.b1[0] + j * self.b2[0], i * self.b1[1] + j * self.b2[1])

    def _lattice_ints(self, *points: RationalPoint) -> tuple[list[tuple[int, int]], int]:
        """Lattice coordinates of the points as integers over their least
        common denominator."""
        m0, m1, m2, m3, d = self._inv
        # each point is (a, c)/q with a, c integers
        q = math.lcm(*(c.denominator for p in points for c in (p.x, p.y)))
        ac = [(p.x.numerator * (q // p.x.denominator), p.y.numerator * (q // p.y.denominator)) for p in points]
        ints = [(m0 * a + m1 * c, m2 * a + m3 * c) for a, c in ac]
        g = math.gcd(d * q, *(n for ij in ints for n in ij))
        return [(i // g, j // g) for i, j in ints], d * q // g

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
        [(n1, n2)], den = self._lattice_ints(p)
        return self._fold_key(n1, n2, den)

    def reduce_point(self, p: RationalPoint) -> RationalPoint:
        """Canonical fundamental-domain representative of a point."""
        return self._key_point(self.key(p))

    def admits_endpoint(self, p: RationalPoint) -> bool:
        """Whether p can be a segment endpoint: any point of a torus, an
        interior point of the billiard table."""
        return self.kind != "billiard" or (0 < p.x < 1 and 0 < p.y < 1)

    def validate_point(self, p: RationalPoint) -> None:
        if not self.admits_endpoint(p):
            raise UnsupportedInputError(
                f"billiard endpoints must be interior table points, got {p}"
            )


def shortest_vector(space: FlatSpace) -> tuple[Vec, Fraction]:
    """A nonzero lattice vector of minimal squared length.

    Two-dimensional Lagrange-Gauss reduction; minimality is certified by an
    exhaustive scan over small coefficients of the reduced basis.
    """
    if not space.is_torus:
        raise DomainError("shortest_vector is defined for the torus kind only")
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


@dataclass(frozen=True)
class GeodesicSegment:
    """One oriented connecting segment, from x to an image g*y + lambda of y
    under a flip g and a lattice vector lambda.

    ``origin`` is x in lattice coordinates as (X1, X2, D), meaning
    (X1/D, X2/D), and ``lattice`` is the displacement g*y + lambda - x in
    lattice coordinates over the same D.
    """

    space: FlatSpace
    x: RationalPoint
    y: RationalPoint
    origin: tuple[int, int, int]
    lattice: tuple[int, int]

    def key_at(self, p: int, q: int) -> Key:
        """The key of the point at parameter p/q, q > 0."""
        x1, x2, den = self.origin
        a1, a2 = self.lattice
        return self.space._fold_key(x1 * q + p * a1, x2 * q + p * a2, den * q)


def _affine_hits(a1: int, a2: int, c1: int, c2: int, den: int = 1) -> list[Fraction]:
    """All s in (0,1) with (s*a1 - c1)/den and (s*a2 - c2)/den both integers.

    The inputs are integers, den > 0 and (a1, a2) != (0, 0); a zero component
    turns its congruence into a plain integrality condition on c.  The
    conditions read s*aj = cj (mod den); the first parametrizes
    s = (c1 + i*den)/a1 and the second becomes a linear congruence in i, so the
    work is proportional to the number of hits, not to |a1|.
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
        return []
    step = mod // g
    if coef == 0:
        i0 = 0  # rhs == 0 here and step == 1: every i solves the congruence
    else:
        i0 = (rhs // g * pow(coef // g, -1, step)) % step

    # s in (0,1): c1 + i den strictly between 0 and a1 (orientation by sign)
    lo, hi = (0, a1) if a1 > 0 else (a1, 0)
    # lo < c1 + i den < hi
    i_min = (lo - c1) // den + 1
    i_max = -((-(hi - c1)) // den) - 1
    first = i_min + (i0 - i_min) % step
    hits = []
    for i in range(first, i_max + 1, step):
        val = c1 + i * den
        if lo < val < hi:
            hits.append(Fraction(val, a1))
    hits.sort()
    return hits


def _segment_hits(segment: GeodesicSegment, z: Key) -> list[Fraction]:
    """Interior parameters where the segment passes through the point with
    key z: s*a - (g*z - x) is a lattice vector for some flip g.  The flips
    and lattice vectors range over groups, so every representative of the
    point gives the same parameters."""
    x1, x2, den = segment.origin
    a1, a2 = segment.lattice
    z1, z2, zden = z
    q = math.lcm(den, zden)
    f, fz = q // den, q // zden
    hits: set[Fraction] = set()
    for s1, s2 in segment.space.group:
        hits.update(_affine_hits(a1 * f, a2 * f, s1 * z1 * fz - x1 * f, s2 * z2 * fz - x2 * f, q))
    return sorted(hits)


def _enumerate(
    space: FlatSpace, x: RationalPoint, y: RationalPoint, t_sq: Fraction
) -> tuple[list[GeodesicSegment], list[int], list[int], int, list[tuple[int, int]]]:
    """Joining segments; their squared lengths and those of the
    corner-rejected segments, as integers over one scale; that scale; and the
    endpoint offsets g*x - x and g*y - x in lattice coordinates over the
    segments' common denominator."""
    space.validate_point(x)
    space.validate_point(y)
    [(x1, x2), (y1, y2)], den = space._lattice_ints(x, y)
    origin = (x1, x2, den)
    L, b1x, b1y, b2x, b2y = space._scaled
    scale = L * den
    bound_num = t_sq.numerator * scale * scale
    bound_den = t_sq.denominator
    # a lattice coordinate of a displacement v is row_k(B^-1) . v, bounded by |row_k| t
    m0, m1, m2, m3, d = space._inv
    reach1 = rat_sqrt_upper(Fraction(m0 * m0 + m1 * m1, d * d) * t_sq)
    reach2 = rat_sqrt_upper(Fraction(m2 * m2 + m3 * m3, d * d) * t_sq)
    half_turn = (-1, -1) in space.group
    step_x, step_y = den * b2x, den * b2y

    found = []
    rejected = []
    for s1, s2 in space.group:
        # lattice coordinates of g*y - x + (i, j), over den
        c1, c2 = s1 * y1 - x1, s2 * y2 - x2
        off1, off2 = Fraction(c1, den), Fraction(c2, den)
        for i in range(_ceil(-reach1 - off1), _floor(reach1 - off1) + 1):
            a1 = c1 + i * den
            base_x = a1 * b1x + c2 * b2x
            base_y = a1 * b1y + c2 * b2y
            for j in range(_ceil(-reach2 - off2), _floor(reach2 - off2) + 1):
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
                found.append((vx, vy, sq_scaled, GeodesicSegment(space, x, y, origin, (a1, a2))))
    # every displacement is (vx, vy)/scale with one scale > 0: sort on (vx, vy)
    found.sort(key=lambda r: (r[0], r[1]))
    ends = [(s1 * z1 - x1, s2 * z2 - x2) for z1, z2 in ((x1, x2), (y1, y2)) for s1, s2 in space.group]
    return [r[3] for r in found], [r[2] for r in found], rejected, scale * scale, ends


def _positive_t_sq(t_sq) -> Fraction:
    t_sq = _frac(t_sq)
    if t_sq <= 0:
        raise DomainError(f"t^2 must be positive, got {t_sq}")
    return t_sq


@dataclass(frozen=True)
class GeodesicFamily:
    """All joining geodesics G plus the connecting subfamily Gamma.

    ``sq_lengths`` holds the sorted squared lengths of the joining, the
    connecting and the corner-rejected segments, as integers over
    ``sq_scale``: enough to count the family at any smaller t, since whether
    a segment connects or is corner-rejected does not depend on t.
    """

    space: FlatSpace
    x: RationalPoint
    y: RationalPoint
    t_sq: Fraction
    segments: tuple[GeodesicSegment, ...]
    connecting: tuple[int, ...]
    sq_lengths: tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]
    sq_scale: int

    @property
    def n(self) -> int:
        return len(self.segments)

    @property
    def m(self) -> int:
        return len(self.connecting)

    def connecting_segments(self) -> list[GeodesicSegment]:
        return [self.segments[i] for i in self.connecting]

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
        the segments of squared length at most t_sq, in their order."""
        counts = self.counts_at(t_sq)
        top = self.sq_lengths[0][counts[0] - 1] if counts[0] else -1
        index: dict[int, int] = {}
        for k, seg in enumerate(self.segments):
            vx, vy, _ = self.space._key_plane((*seg.lattice, seg.origin[2]))
            if vx * vx + vy * vy <= top:
                index[k] = len(index)
        return replace(
            self,
            t_sq=_positive_t_sq(t_sq),
            segments=tuple(self.segments[k] for k in index),
            connecting=tuple(index[k] for k in self.connecting if k in index),
            sq_lengths=tuple(lengths[:c] for lengths, c in zip(self.sq_lengths, counts)),
        )


def connecting_family(space: FlatSpace, x: RationalPoint, y: RationalPoint, t_sq) -> GeodesicFamily:
    t_sq = _positive_t_sq(t_sq)
    segments, lengths, rejected, scale, ends = _enumerate(space, x, y, t_sq)
    connecting = tuple(
        k for k, seg in enumerate(segments)
        if not any(_affine_hits(*seg.lattice, c1, c2, seg.origin[2]) for c1, c2 in ends)
    )
    sq_lengths = (
        tuple(sorted(lengths)), tuple(sorted(lengths[k] for k in connecting)), tuple(sorted(rejected))
    )
    return GeodesicFamily(space, x, y, t_sq, tuple(segments), connecting, sq_lengths, scale)


def count(space: FlatSpace, x: RationalPoint, y: RationalPoint, t_sq) -> tuple[int, int]:
    """(n, m): all joining geodesics, and those not passing through x or y."""
    n, m, _ = connecting_family(space, x, y, t_sq).counts_at(t_sq)
    return n, m


def _blocking_key(space: FlatSpace, z: RationalPoint, ends: Sequence[Key]) -> Key:
    """The key of z, checked to be able to block a segment between the
    endpoints with keys ``ends``: z lies in the table (blocking points may
    sit on its walls, unlike endpoints) and is neither endpoint."""
    if space.kind == "billiard" and not (0 <= z.x <= 1 and 0 <= z.y <= 1):
        raise UnsupportedInputError(f"billiard blocking point must lie in the table, got {z}")
    key = space.key(z)
    if key in ends:
        raise DomainError("z must differ from both endpoints")
    return key


@dataclass(frozen=True)
class IntersectionHit:
    """A common interior point of two segments, at parameter s of the first.

    A parallel overlap is reported once per maximal interval, at its
    midpoint.
    """

    point: RationalPoint
    s: Fraction


def _merge_open_intervals(intervals: list[tuple[Fraction, Fraction]]) -> list[tuple[Fraction, Fraction]]:
    """Union of open intervals as maximal open components.

    Abutting intervals (a,b),(b,c) stay separate: the shared endpoint is not
    in the union.
    """
    out: list[tuple[Fraction, Fraction]] = []
    for lo, hi in sorted(intervals):
        if out and lo < out[-1][1]:
            out[-1] = (out[-1][0], max(out[-1][1], hi))
        else:
            out.append((lo, hi))
    return out


def _intersections(g1: GeodesicSegment, g2: GeodesicSegment) -> list[tuple]:
    """Common interior points as (key_at(sn, sd), sn, sd, un, s_interval).

    Solves x + u*b = h*(x + s*a) + lambda over the flips h, in integer
    lattice coordinates: u*B - s*h*A = (h*X - X) + D*k with k integral.  A
    crossing is at s = sn/sd, u = un/sd, sd > 0; an overlap is reported at
    the midpoint s = sn/sd of each maximal interval, with un None.

    Crossings cost about their hits: sn and un are affine in k, so each k1
    row of the box solves for the k2 interval that keeps one of them in
    (0, sd) and tests only the k2 in it.
    """
    x1, x2, den = g1.origin
    a1, a2 = g1.lattice
    b1, b2 = g2.lattice
    hits = []
    overlaps: list[tuple[Fraction, Fraction]] = []
    for s1, s2 in g1.space.group:
        h1, h2 = s1 * a1, s2 * a2
        c1, c2 = s1 * x1 - x1, s2 * x2 - x2
        # r = u*B - s*H over s, u in [0, 1] stays in this box
        k1_lo = (min(0, b1) + min(0, -h1) - c1) // den
        k1_hi = -((c1 - max(0, b1) - max(0, -h1)) // den)
        cross = b1 * h2 - b2 * h1
        if cross:
            # s = (r1 B2 - r2 B1)/cross, u = (r1 H2 - r2 H1)/cross, taken over
            # the positive denominator sd = |cross| so that the fold sees den > 0
            sign = 1 if cross > 0 else -1
            sd = sign * cross
            # on a k1 row sn = sn0 + ds*k2 and un = un0 + du*k2; the next row adds dsr, dur
            ds, du, dsr, dur = -sign * b1 * den, -sign * h1 * den, sign * b2 * den, sign * h2 * den
            r1 = c1 + k1_lo * den
            sn0, un0 = sign * (r1 * b2 - c2 * b1), sign * (r1 * h2 - c2 * h1)
            # step through the k2 interval where the steeper of sn, un lies in
            # (0, sd), keeping the points where the other does too
            a, r, b = (sn0, dsr, ds) if abs(ds) >= abs(du) else (un0, dur, du)
            if b < 0:
                a, r, b = sd - a, -r, -b
            for _ in range(k1_hi - k1_lo + 1):
                lo, hi = -a // b + 1, (sd - 1 - a) // b
                sn, un = sn0 + lo * ds, un0 + lo * du
                for _ in range(hi - lo + 1):
                    if 0 < sn < sd and 0 < un < sd:
                        hits.append((g1.key_at(sn, sd), sn, sd, un, None))
                    sn, un = sn + ds, un + du
                sn0, un0, a = sn0 + dsr, un0 + dur, a + r
            continue
        k2_lo = (min(0, b2) + min(0, -h2) - c2) // den
        k2_hi = -((c2 - max(0, b2) - max(0, -h2)) // den)
        for k1 in range(k1_lo, k1_hi + 1):
            r1 = c1 + k1 * den
            for k2 in range(k2_lo, k2_hi + 1):
                r2 = c2 + k2 * den
                if r1 * h2 == r2 * h1:
                    # parallel carriers: s = u*c + tau with B = c*H and r = -tau*H
                    c = Fraction(b1, h1) if h1 else Fraction(b2, h2)
                    tau = -Fraction(r1, h1) if h1 else -Fraction(r2, h2)
                    lo, hi = (tau, tau + c) if c > 0 else (tau + c, tau)
                    lo, hi = max(lo, Fraction(0)), min(hi, Fraction(1))
                    if lo < hi:
                        overlaps.append((lo, hi))
    for lo, hi in _merge_open_intervals(overlaps):
        mid = (lo + hi) / 2
        hits.append((g1.key_at(mid.numerator, mid.denominator), mid.numerator, mid.denominator, None, (lo, hi)))
    return hits


def intersection_candidates(
    space: FlatSpace, g1: GeodesicSegment, g2: GeodesicSegment
) -> list[IntersectionHit]:
    """All points interior to both segments, exact, sorted by point.

    De-duplicated by the folded point's key, keeping the least s.  The
    endpoints x and y, folded into the fundamental domain, never appear,
    even where a segment passes through one of them.
    """
    if g1.space is not g2.space or g1.x != g2.x or g1.y != g2.y:
        raise DomainError("segments must come from one (space, x, y) family")
    if g1.lattice == g2.lattice:
        raise DomainError("segments must be distinct")
    seen: dict[Key, IntersectionHit] = {}
    for key, sn, sd, _, _ in _intersections(g1, g2):
        s = Fraction(sn, sd)
        if key not in seen or s < seen[key].s:
            seen[key] = IntersectionHit(g1.space._key_point(key), s)
    for end in (g1.key_at(0, 1), g1.key_at(1, 1)):
        seen.pop(end, None)
    return sorted(seen.values(), key=lambda h: (h.point.x, h.point.y))


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
