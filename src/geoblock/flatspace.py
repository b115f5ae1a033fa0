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

import csv
import math
from dataclasses import dataclass, replace
from fractions import Fraction
from math import isqrt
from pathlib import Path
from typing import Sequence

from .errors import DomainError, UnsupportedInputError

Vec = tuple[Fraction, Fraction]
Flip = tuple[int, int]

__all__ = [
    "RationalPoint",
    "FlatSpace",
    "GeodesicSegment",
    "Classification",
    "IntersectionHit",
    "GeodesicFamily",
    "shortest_vector",
    "enumerate_geodesics",
    "connecting_family",
    "classify",
    "count",
    "point_on_geodesic",
    "intersection_candidates",
    "load_space",
    "family_to_csv",
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

    def as_tuple(self) -> Vec:
        return (self.x, self.y)

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

    covolume is the area of the quotient.  delta_sq is the squared
    injectivity radius: a quarter of the shortest nonzero lattice vector's
    squared length for the torus.  For the billiard table only the inequality
    verifier consumes delta; the conservative convention delta = 1/4 is used
    and recorded in reports.
    """

    kind: str  # "torus" | "billiard"
    b1: Vec
    b2: Vec
    covolume: Fraction
    shortest_sq: Fraction
    delta_sq: Fraction
    _inv: tuple[Fraction, Fraction, Fraction, Fraction]  # rows of B^-1
    group: tuple[Flip, ...]
    _scaled: tuple[int, int, int, int, int]  # (L, L*b1, L*b2) with L*b1, L*b2 integral

    BILLIARD_DELTA_CONVENTION = "delta=1/4 (conservative; shortest unfolded closed displacement is 2)"

    @classmethod
    def _quotient(cls, kind: str, b1, b2, group: tuple[Flip, ...]) -> "FlatSpace":
        b1 = (_frac(b1[0]), _frac(b1[1]))
        b2 = (_frac(b2[0]), _frac(b2[1]))
        det = _cross(b1, b2)
        if det == 0:
            raise DomainError("lattice basis is degenerate (zero determinant)")
        inv = (b2[1] / det, -b2[0] / det, -b1[1] / det, b1[0] / det)
        L = math.lcm(*(c.denominator for c in b1 + b2))
        scaled = (L, *(int(c * L) for c in b1 + b2))
        zero = Fraction(0)
        return cls(kind, b1, b2, abs(det) / len(group), zero, zero, inv, group, scaled)

    @classmethod
    def torus(cls, b1, b2) -> "FlatSpace":
        space = cls._quotient("torus", b1, b2, ((1, 1),))
        _, sq = shortest_vector(space)
        return replace(space, shortest_sq=sq, delta_sq=sq / 4)

    @classmethod
    def unit_torus(cls) -> "FlatSpace":
        return cls.torus((1, 0), (0, 1))

    @classmethod
    def square_billiard(cls) -> "FlatSpace":
        space = cls._quotient("billiard", (2, 0), (0, 2), ((1, 1), (1, -1), (-1, 1), (-1, -1)))
        # shortest periodic unfolded closed displacement is 2
        return replace(space, shortest_sq=Fraction(4), delta_sq=Fraction(1, 16))

    @property
    def is_torus(self) -> bool:
        return self.kind == "torus"

    def to_lattice(self, v: Vec) -> Vec:
        """Coordinates of a plane vector in the lattice basis."""
        m = self._inv
        return (m[0] * v[0] + m[1] * v[1], m[2] * v[0] + m[3] * v[1])

    def from_lattice(self, i: Fraction, j: Fraction) -> Vec:
        return (i * self.b1[0] + j * self.b2[0], i * self.b1[1] + j * self.b2[1])

    def _lattice_ints(self, *points: RationalPoint) -> tuple[list[tuple[int, int]], int]:
        """Lattice coordinates of the points as integers over one denominator."""
        coords = [self.to_lattice(p.as_tuple()) for p in points]
        den = math.lcm(*(c.denominator for ij in coords for c in ij))
        return [(int(i * den), int(j * den)) for i, j in coords], den

    def _fold(self, n1: int, n2: int, den: int) -> RationalPoint:
        """The point with lattice coordinates (n1/den, n2/den), den > 0,
        reduced mod the lattice and then to its least group image."""
        i, j = min(((s1 * n1) % den, (s2 * n2) % den) for s1, s2 in self.group)
        L, b1x, b1y, b2x, b2y = self._scaled
        return RationalPoint(Fraction(i * b1x + j * b2x, den * L), Fraction(i * b1y + j * b2y, den * L))

    def reduce_point(self, p: RationalPoint) -> RationalPoint:
        """Canonical fundamental-domain representative of a point."""
        [(n1, n2)], den = self._lattice_ints(p)
        return self._fold(n1, n2, den)

    def validate_point(self, p: RationalPoint) -> None:
        if self.kind == "billiard" and not (0 < p.x < 1 and 0 < p.y < 1):
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
    """One oriented connecting segment.

    ``displacement`` is the plane vector from x to the image g*y + lambda of
    y, and ``image`` holds (sigma1, sigma2, m, n): the flip g and the lattice
    vector lambda = m*b1 + n*b2.  On the billiard the unfolded endpoint is
    (sigma1*y.x + 2m, sigma2*y.y + 2n).  ``origin`` is x in lattice
    coordinates as (X1, X2, D), meaning (X1/D, X2/D), and ``lattice`` is the
    displacement in lattice coordinates over the same D.
    """

    space: FlatSpace
    x: RationalPoint
    y: RationalPoint
    displacement: Vec
    sq_length: Fraction
    image: tuple[int, int, int, int]
    origin: tuple[int, int, int]
    lattice: tuple[int, int]

    def point_at(self, s: Fraction) -> RationalPoint:
        """The point at parameter s, folded back into the space."""
        x1, x2, den = self.origin
        a1, a2 = self.lattice
        p, q = s.numerator, s.denominator
        return self.space._fold(x1 * q + p * a1, x2 * q + p * a2, den * q)

    def sort_key(self):
        return self.displacement


def _affine_hits(a1, a2, c1, c2, den: int = 1) -> list[Fraction]:
    """All s in (0,1) with (s*a1 - c1)/den and (s*a2 - c2)/den both integers.

    The inputs are integers or Fractions, and (a1, a2) != (0, 0) is
    required; a zero component turns its congruence into a plain integrality
    condition on c.  Over a common denominator q the two conditions read
    s*Aj = Cj (mod q); the first parametrizes s = (C1+iq)/A1 and the second
    becomes a linear congruence in i, so the work is proportional to the
    number of hits, not to |a1|.
    """
    if a1 == 0 and a2 == 0:
        raise DomainError("degenerate direction in incidence solve")
    if a1 == 0:
        a1, a2, c1, c2 = a2, a1, c2, c1
    scale = math.lcm(a1.denominator, a2.denominator, c1.denominator, c2.denominator)
    q = den * scale
    A1, A2 = int(a1 * scale), int(a2 * scale)
    C1, C2 = int(c1 * scale), int(c2 * scale)

    # second condition: i * (q A2) = C2 A1 - C1 A2  (mod |q A1|)
    mod = abs(q * A1)
    rhs = (C2 * A1 - C1 * A2) % mod
    coef = (q * A2) % mod
    g = math.gcd(coef, mod)
    if rhs % g:
        return []
    step = mod // g
    if coef == 0:
        i0 = 0  # rhs == 0 here and step == 1: every i solves the congruence
    else:
        i0 = (rhs // g * pow(coef // g, -1, step)) % step

    # s in (0,1): C1 + i q strictly between 0 and A1 (orientation by sign)
    lo, hi = (0, A1) if A1 > 0 else (A1, 0)
    # lo < C1 + i q < hi
    i_min = (lo - C1) // q + 1
    i_max = -((-(hi - C1)) // q) - 1
    first = i_min + (i0 - i_min) % step
    hits = []
    for i in range(first, i_max + 1, step):
        val = C1 + i * q
        if lo < val < hi:
            hits.append(Fraction(val, A1))
    hits.sort()
    return hits


def _segment_hits(segment: GeodesicSegment, z: RationalPoint) -> list[Fraction]:
    """Interior parameters where the segment passes through the point z:
    s*a - (g*z - x) is a lattice vector for some flip g."""
    space = segment.space
    x1, x2, den = segment.origin
    a1, a2 = segment.lattice
    [(z1, z2)], zden = space._lattice_ints(z)
    q = math.lcm(den, zden)
    f, fz = q // den, q // zden
    hits: set[Fraction] = set()
    for s1, s2 in space.group:
        hits.update(_affine_hits(a1 * f, a2 * f, s1 * z1 * fz - x1 * f, s2 * z2 * fz - x2 * f, q))
    return sorted(hits)


def _enumerate(
    space: FlatSpace, x: RationalPoint, y: RationalPoint, t_sq: Fraction
) -> tuple[list[GeodesicSegment], int, list[tuple[int, int]]]:
    """Joining segments, the corner-rejected count, and the endpoint offsets
    g*x - x and g*y - x in lattice coordinates over the segments' common
    denominator."""
    space.validate_point(x)
    space.validate_point(y)
    [(x1, x2), (y1, y2)], den = space._lattice_ints(x, y)
    origin = (x1, x2, den)
    L, b1x, b1y, b2x, b2y = space._scaled
    scale = L * den
    bound_num = t_sq.numerator * scale * scale
    bound_den = t_sq.denominator
    # a lattice coordinate of a displacement v is row_k(B^-1) . v, bounded by |row_k| t
    m = space._inv
    reach1 = rat_sqrt_upper((m[0] * m[0] + m[1] * m[1]) * t_sq)
    reach2 = rat_sqrt_upper((m[2] * m[2] + m[3] * m[3]) * t_sq)
    half_turn = (-1, -1) in space.group
    step_x, step_y = den * b2x, den * b2y

    segments = []
    corner_rejected = 0
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
                    corner_rejected += 1
                    continue
                v = (Fraction(vx, scale), Fraction(vy, scale))
                segments.append(GeodesicSegment(
                    space, x, y, v, Fraction(sq_scaled, scale * scale), (s1, s2, i, j), origin, (a1, a2)
                ))
    segments.sort(key=GeodesicSegment.sort_key)
    ends = [(s1 * z1 - x1, s2 * z2 - x2) for z1, z2 in ((x1, x2), (y1, y2)) for s1, s2 in space.group]
    return segments, corner_rejected, ends


def _positive_t_sq(t_sq) -> Fraction:
    t_sq = _frac(t_sq)
    if t_sq <= 0:
        raise DomainError(f"t^2 must be positive, got {t_sq}")
    return t_sq


def enumerate_geodesics(
    space: FlatSpace, x: RationalPoint, y: RationalPoint, t_sq
) -> list[GeodesicSegment]:
    """All joining geodesics of squared length in (0, t_sq], duplicate-free."""
    return _enumerate(space, x, y, _positive_t_sq(t_sq))[0]


@dataclass(frozen=True)
class Classification:
    kind: str  # "connecting" | "passes-through-endpoint"
    x_hits: tuple[Fraction, ...]
    y_hits: tuple[Fraction, ...]


def classify(segment: GeodesicSegment) -> Classification:
    """Flag segments whose interior passes through either endpoint."""
    x_hits = tuple(_segment_hits(segment, segment.x))
    y_hits = tuple(_segment_hits(segment, segment.y))
    kind = "passes-through-endpoint" if (x_hits or y_hits) else "connecting"
    return Classification(kind, x_hits, y_hits)


@dataclass(frozen=True)
class GeodesicFamily:
    """All joining geodesics G plus the connecting subfamily Gamma."""

    space: FlatSpace
    x: RationalPoint
    y: RationalPoint
    t_sq: Fraction
    segments: tuple[GeodesicSegment, ...]
    connecting: tuple[int, ...]
    corner_rejected: int

    @property
    def n(self) -> int:
        return len(self.segments)

    @property
    def m(self) -> int:
        return len(self.connecting)

    def connecting_segments(self) -> list[GeodesicSegment]:
        return [self.segments[i] for i in self.connecting]


def connecting_family(space: FlatSpace, x: RationalPoint, y: RationalPoint, t_sq) -> GeodesicFamily:
    t_sq = _positive_t_sq(t_sq)
    segments, rejected, ends = _enumerate(space, x, y, t_sq)
    connecting = tuple(
        k for k, seg in enumerate(segments)
        if not any(_affine_hits(*seg.lattice, c1, c2, seg.origin[2]) for c1, c2 in ends)
    )
    return GeodesicFamily(space, x, y, t_sq, tuple(segments), connecting, rejected)


def count(space: FlatSpace, x: RationalPoint, y: RationalPoint, t_sq) -> tuple[int, int]:
    """(n, m): all joining geodesics, and those not passing through x or y."""
    fam = connecting_family(space, x, y, t_sq)
    return fam.n, fam.m


def point_on_geodesic(space: FlatSpace, z: RationalPoint, segment: GeodesicSegment) -> list[Fraction]:
    """Interior parameters s in (0,1) where the segment passes through z.

    Empty list means z does not block this segment.
    """
    # blocking points may sit on the walls (reflection points), unlike endpoints
    if space.kind == "billiard" and not (0 <= z.x <= 1 and 0 <= z.y <= 1):
        raise UnsupportedInputError(f"billiard blocking point must lie in the table, got {z}")
    zr = space.reduce_point(z)
    if zr in (space.reduce_point(segment.x), space.reduce_point(segment.y)):
        raise DomainError("z must differ from both endpoints")
    return _segment_hits(segment, z)


@dataclass(frozen=True)
class IntersectionHit:
    """A common interior point of two segments.

    Transversal crossings carry the two parameters; a parallel overlap is
    reported once per maximal interval with the representative at its
    midpoint and the interval bounds in the first segment's parameter.
    """

    point: RationalPoint
    s: Fraction
    u: Fraction | None
    s_interval: tuple[Fraction, Fraction] | None = None


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


def _intersections(g1: GeodesicSegment, g2: GeodesicSegment) -> list[IntersectionHit]:
    """Solve x + u*b = h*(x + s*a) + lambda over the flips h, in integer
    lattice coordinates: u*B - s*h*A = (h*X - X) + D*k with k integral."""
    x1, x2, den = g1.origin
    a1, a2 = g1.lattice
    b1, b2 = g2.lattice
    hits: list[IntersectionHit] = []
    overlaps: list[tuple[Fraction, Fraction]] = []
    for s1, s2 in g1.space.group:
        h1, h2 = s1 * a1, s2 * a2
        c1, c2 = s1 * x1 - x1, s2 * x2 - x2
        # r = u*B - s*H over s, u in [0, 1] stays in this box
        k1_lo = (min(0, b1) + min(0, -h1) - c1) // den
        k1_hi = -((c1 - max(0, b1) - max(0, -h1)) // den)
        k2_lo = (min(0, b2) + min(0, -h2) - c2) // den
        k2_hi = -((c2 - max(0, b2) - max(0, -h2)) // den)
        cross = b1 * h2 - b2 * h1
        lo_n, hi_n = (0, cross) if cross > 0 else (cross, 0)
        for k1 in range(k1_lo, k1_hi + 1):
            r1 = c1 + k1 * den
            for k2 in range(k2_lo, k2_hi + 1):
                r2 = c2 + k2 * den
                if cross:
                    # s = (r1 B2 - r2 B1)/cross, u = (r1 H2 - r2 H1)/cross
                    sn = r1 * b2 - r2 * b1
                    if not lo_n < sn < hi_n:
                        continue
                    un = r1 * h2 - r2 * h1
                    if not lo_n < un < hi_n:
                        continue
                    s = Fraction(sn, cross)
                    hits.append(IntersectionHit(g1.point_at(s), s, Fraction(un, cross)))
                elif r1 * h2 == r2 * h1:
                    # parallel carriers: s = u*c + tau with B = c*H and r = -tau*H
                    c = Fraction(b1, h1) if h1 else Fraction(b2, h2)
                    tau = -Fraction(r1, h1) if h1 else -Fraction(r2, h2)
                    lo, hi = (tau, tau + c) if c > 0 else (tau + c, tau)
                    lo, hi = max(lo, Fraction(0)), min(hi, Fraction(1))
                    if lo < hi:
                        overlaps.append((lo, hi))
    for lo, hi in _merge_open_intervals(overlaps):
        mid = (lo + hi) / 2
        hits.append(IntersectionHit(g1.point_at(mid), mid, None, s_interval=(lo, hi)))
    return hits


def intersection_candidates(
    space: FlatSpace, g1: GeodesicSegment, g2: GeodesicSegment
) -> list[IntersectionHit]:
    """All points interior to both segments, exact.

    De-duplicated by the folded point; the endpoints x and y never appear
    (interior parameters only).
    """
    if g1.space is not g2.space or g1.x != g2.x or g1.y != g2.y:
        raise DomainError("segments must come from one (space, x, y) family")
    if g1.displacement == g2.displacement:
        raise DomainError("segments must be distinct")
    seen: dict[RationalPoint, IntersectionHit] = {}
    for hit in sorted(_intersections(g1, g2), key=lambda h: (h.point.x, h.point.y, h.s)):
        seen.setdefault(hit.point, hit)
    out = [h for p, h in sorted(seen.items(), key=lambda kv: (kv[0].x, kv[0].y))]
    return [h for h in out if h.point != g1.x and h.point != g1.y]


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


def family_to_csv(family: GeodesicFamily, path: str | Path) -> None:
    connecting = set(family.connecting)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["vx", "vy", "len2", "class"])
        for i, seg in enumerate(family.segments):
            writer.writerow(
                [
                    str(seg.displacement[0]),
                    str(seg.displacement[1]),
                    str(seg.sq_length),
                    "connecting" if i in connecting else "passes-through-endpoint",
                ]
            )
