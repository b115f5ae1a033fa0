"""Exact blocking thresholds as minimum hitting sets, plus the recursive
halving decomposition and its inequality checks.

Reduction to a finite instance.  For a family of connecting geodesics the
candidate blocking points are (a) every pairwise interior intersection
point, (b) one interior representative per segment (parameter 1/2), and
(c) one representative per maximal overlap interval of collinear clusters.
This preserves the optimum by an exchange argument: a blocking point
covering two or more segments is a common interior point of two of them,
hence appears among the pairwise intersections (or inside a recorded
overlap interval, any point of which covers the same collinear segments);
a point covering exactly one segment can be slid to that segment's own
representative without uncovering anything.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import DomainError, GeoBlockError
from .flatspace import (
    FlatSpace,
    GeodesicFamily,
    GeodesicSegment,
    RationalPoint,
    _segment_hits,
    connecting_family,
    intersection_candidates,
    point_on_geodesic,
)

__all__ = [
    "SolverCaps",
    "CheckRow",
    "IncidenceInstance",
    "BlockingSolution",
    "ThresholdResult",
    "PairSampler",
    "SampledBlockingCost",
    "RecursionReport",
    "build_instance",
    "solve_exact",
    "verify_cover",
    "midpoint_cover",
    "blocking_threshold",
    "blocking_cost_sampled",
    "recursion_harness",
    "kappa_from_squares",
]


@dataclass(frozen=True)
class SolverCaps:
    """Instance-size caps that keep exact solving interactive."""

    max_candidates: int = 5000
    max_geodesics: int = 2000


@dataclass(frozen=True)
class IncidenceInstance:
    """Finite hitting-set instance for one connecting family.

    ``covers[c]`` is the bitmask of connecting-geodesic slots blocked by
    candidate ``c``.  Candidates are sorted by point and deduplicated: exact
    point dedup first, then candidates with identical cover sets collapse to
    the lexicographically smallest representative.
    """

    family: GeodesicFamily
    candidates: tuple[RationalPoint, ...]
    covers: tuple[int, ...]

    @property
    def num_geodesics(self) -> int:
        return self.family.m

    @property
    def num_candidates(self) -> int:
        return len(self.candidates)

    def to_json(self) -> dict:
        segs = self.family.connecting_segments()
        return {
            "geodesics": [
                {
                    "vx": str(s.displacement[0]),
                    "vy": str(s.displacement[1]),
                    "len2": str(s.sq_length),
                }
                for s in segs
            ],
            "candidates": [
                {
                    "x": str(p.x),
                    "y": str(p.y),
                    "covers": [i for i in range(self.num_geodesics) if cov >> i & 1],
                }
                for p, cov in zip(self.candidates, self.covers)
            ],
        }


def _direction_class_key(space: FlatSpace, seg: GeodesicSegment) -> tuple:
    """Carrier-direction key: segments with equal keys may share a carrier.

    The primitive lattice direction, up to reversal and the group's flips
    (folding reflects directions)."""
    a1, a2 = seg.lattice
    g = math.gcd(a1, a2)
    a1, a2 = a1 // g, a2 // g
    return max(key for s1, s2 in space.group for key in ((s1 * a1, s2 * a2), (-s1 * a1, -s2 * a2)))


def build_instance(
    space: FlatSpace,
    x: RationalPoint,
    y: RationalPoint,
    t_sq,
    caps: SolverCaps = SolverCaps(),
) -> IncidenceInstance:
    """Reduce geometric blocking of the connecting family to a hitting set.

    Cover sets are assembled from the construction records (each pairwise
    intersection names the two segments it lies on) and completed exactly:
    representatives and members of multi-segment collinear clusters are
    re-checked against every candidate with the exact incidence solver, so
    no membership is missed.
    """
    family = connecting_family(space, x, y, t_sq)
    return build_instance_from_family(family, caps)


def build_instance_from_family(family: GeodesicFamily, caps: SolverCaps = SolverCaps()) -> IncidenceInstance:
    space = family.space
    segs = family.connecting_segments()
    m = len(segs)
    if m == 0:
        return IncidenceInstance(family, (), ())
    if m > caps.max_geodesics:
        raise GeoBlockError(f"connecting family size {m} exceeds cap {caps.max_geodesics}")

    x_red = space.reduce_point(family.x)
    y_red = space.reduce_point(family.y)
    records: dict[RationalPoint, set[int]] = {}

    def record(point: RationalPoint, covered: Iterable[int]) -> None:
        if point == x_red or point == y_red:
            return
        records.setdefault(point, set()).update(covered)

    half = Fraction(1, 2)
    for i, seg in enumerate(segs):
        record(seg.point_at(half), (i,))
    for i in range(m):
        for j in range(i + 1, m):
            for hit in intersection_candidates(space, segs[i], segs[j]):
                record(hit.point, (i, j))

    # complete the cover sets for collinear clusters: a point recorded from one
    # pair can sit inside another parallel segment's overlap without being that
    # pair's interval representative.  A transversal neighbor would have named
    # the point itself, so only candidates whose records are all mutually
    # parallel can miss a membership, and only within that one cluster.
    class_key = [_direction_class_key(space, seg) for seg in segs]
    classes: dict[tuple, list[int]] = {}
    for i, key in enumerate(class_key):
        classes.setdefault(key, []).append(i)
    for point, covered in records.items():
        keys = {class_key[i] for i in covered}
        if len(keys) != 1:
            continue
        members = classes[next(iter(keys))]
        for i in members:
            if i not in covered and _segment_hits(segs[i], point):
                covered.add(i)

    points = sorted(records)
    masks = []
    for p in points:
        mask = 0
        for i in records[p]:
            mask |= 1 << i
        masks.append(mask)

    # dedup identical cover sets; keep the lexicographically smallest point
    seen: dict[int, int] = {}
    keep_points, keep_masks = [], []
    for p, mask in zip(points, masks):
        if mask in seen:
            continue
        seen[mask] = len(keep_points)
        keep_points.append(p)
        keep_masks.append(mask)

    full = (1 << m) - 1
    covered_union = 0
    for mask in keep_masks:
        covered_union |= mask
    if covered_union != full:
        raise GeoBlockError("internal: some geodesic lost its representative candidate")
    return IncidenceInstance(family, tuple(keep_points), tuple(keep_masks))


@dataclass(frozen=True)
class BlockingSolution:
    points: tuple[RationalPoint, ...]
    size: int
    optimal: bool
    greedy_upper: int
    lower_bound: int

    def to_json(self) -> dict:
        return {
            "points": [{"x": str(p.x), "y": str(p.y)} for p in self.points],
            "size": self.size,
            "optimal": self.optimal,
            "bounds": {"greedy_upper": self.greedy_upper, "lower": self.lower_bound},
        }


def _greedy_cover(covers: Sequence[int], full: int) -> list[int]:
    chosen: list[int] = []
    uncovered = full
    while uncovered:
        best, best_gain = -1, -1
        for c, mask in enumerate(covers):
            gain = (mask & uncovered).bit_count()
            if gain > best_gain:
                best, best_gain = c, gain
        if best_gain <= 0:
            raise GeoBlockError("internal: geodesic with empty cover set")
        chosen.append(best)
        uncovered &= ~covers[best]
    return chosen


def _disjoint_lower_bound(instance: IncidenceInstance) -> int:
    """Greedy family of geodesics no two of which share a candidate."""
    m = instance.num_geodesics
    cand_of = [[] for _ in range(m)]
    for c, mask in enumerate(instance.covers):
        for i in range(m):
            if mask >> i & 1:
                cand_of[i].append(c)
    order = sorted(range(m), key=lambda i: (len(cand_of[i]), i))
    used: set[int] = set()
    bound = 0
    for i in order:
        if not cand_of[i]:
            raise GeoBlockError("internal: geodesic with empty cover set")
        if used.isdisjoint(cand_of[i]):
            bound += 1
            used.update(cand_of[i])
    return bound


def solve_exact(instance: IncidenceInstance, caps: SolverCaps = SolverCaps()) -> BlockingSolution:
    """Certified minimum hitting set over the instance's candidate set.

    Branch and bound: greedy initial upper bound, global lower bound from a
    greedy candidate-disjoint family, and a per-node covering bound
    (uncovered count over the best single-candidate gain).  Dominated
    candidates (cover set contained in another's) are dropped up front,
    which never changes the optimal size.  Branching picks the uncovered
    geodesic with the fewest candidates; candidates are tried by descending
    fresh coverage with index tie-breaking, so the search is deterministic.
    If the instance exceeds the caps the greedy solution is returned with
    ``optimal=False``.
    """
    m = instance.num_geodesics
    if m == 0:
        return BlockingSolution((), 0, True, 0, 0)
    full = (1 << m) - 1

    greedy = _greedy_cover(instance.covers, full)
    if m > caps.max_geodesics or len(instance.covers) > caps.max_candidates:
        pts = tuple(instance.candidates[c] for c in sorted(greedy))
        return BlockingSolution(pts, len(greedy), False, len(greedy), 0)

    # dominance reduction: keep only candidates whose cover set is maximal
    by_size = sorted(range(len(instance.covers)),
                     key=lambda c: (-instance.covers[c].bit_count(), c))
    kept: list[int] = []
    for c in by_size:
        mask = instance.covers[c]
        if not any(mask | instance.covers[k] == instance.covers[k] for k in kept):
            kept.append(c)
    kept.sort()
    covers = [instance.covers[c] for c in kept]

    lower = _disjoint_lower_bound(instance)
    cand_of: list[list[int]] = [[] for _ in range(m)]
    geod_cand_mask = [0] * m  # bitmask over candidate indices, per geodesic
    for c, mask in enumerate(covers):
        for i in range(m):
            if mask >> i & 1:
                cand_of[i].append(c)
                geod_cand_mask[i] |= 1 << c
    by_few = sorted(range(m), key=lambda i: (len(cand_of[i]), i))

    best: list[int] = list(greedy)  # indices into instance.covers
    seen: dict[int, int] = {}

    def node_bound(uncovered: int) -> int:
        """Geodesics with pairwise-disjoint candidate sets need one point each."""
        used = 0
        lb = 0
        for i in by_few:
            if uncovered >> i & 1 and not geod_cand_mask[i] & used:
                lb += 1
                used |= geod_cand_mask[i]
        return lb

    def bnb(uncovered: int, chosen: list[int]) -> None:
        nonlocal best
        if not uncovered:
            if len(chosen) < len(best):
                best = [kept[c] for c in chosen]
            return
        prior = seen.get(uncovered)
        if prior is not None and prior <= len(chosen):
            return
        if len(seen) < 2_000_000:
            seen[uncovered] = len(chosen)
        if len(chosen) + node_bound(uncovered) >= len(best):
            return
        # fewest-candidates uncovered geodesic, ties by index
        pick, pick_n = -1, None
        i = 0
        rest = uncovered
        while rest:
            if rest & 1:
                n = len(cand_of[i])
                if pick_n is None or n < pick_n:
                    pick, pick_n = i, n
            rest >>= 1
            i += 1
        order = sorted(cand_of[pick], key=lambda c: (-(covers[c] & uncovered).bit_count(), c))
        for c in order:
            chosen.append(c)
            bnb(uncovered & ~covers[c], chosen)
            chosen.pop()

    if lower < len(best):
        bnb(full, [])
    pts = tuple(instance.candidates[c] for c in sorted(set(best)))
    return BlockingSolution(pts, len(pts), True, len(greedy), lower)


def verify_cover(instance: IncidenceInstance, points: Sequence[RationalPoint]) -> bool:
    """Re-check a solution against the geometry with exact arithmetic."""
    space = instance.family.space
    for seg in instance.family.connecting_segments():
        if not any(point_on_geodesic(space, p, seg) for p in points):
            return False
    return True


def midpoint_cover(family: GeodesicFamily) -> list[RationalPoint]:
    """The half-lattice midpoint classes (x+y)/2 + (a*b1 + b*b2)/2 on a torus.

    Every torus geodesic from x to y passes through one of them at parameter
    1/2, so after removing x and y they block the whole connecting family
    (a connecting segment whose midpoint were x or y would pass through an
    endpoint and not be connecting).  Verified before use.
    """
    space = family.space
    if not space.is_torus:
        raise DomainError("the midpoint cover exists on the torus only")
    base = RationalPoint(
        (family.x.x + family.y.x) / 2, (family.x.y + family.y.y) / 2
    )
    x_red = space.reduce_point(family.x)
    y_red = space.reduce_point(family.y)
    pts = []
    for a in (0, 1):
        for b in (0, 1):
            off = space.from_lattice(Fraction(a, 2), Fraction(b, 2))
            p = space.reduce_point(RationalPoint(base.x + off[0], base.y + off[1]))
            if p != x_red and p != y_red and p not in pts:
                pts.append(p)
    for seg in family.connecting_segments():
        if not any(_segment_hits(seg, p) for p in pts):
            raise GeoBlockError("internal: midpoint cover failed to block a connecting segment")
    return sorted(pts)


@dataclass(frozen=True)
class ThresholdResult:
    value: int
    certified: bool
    solution: BlockingSolution
    instance: IncidenceInstance
    midpoint_upper: int | None  # torus only

    def to_json(self) -> dict:
        out = self.instance.to_json()
        out["solution"] = self.solution.to_json()
        return out


def blocking_threshold(
    space: FlatSpace,
    x: RationalPoint,
    y: RationalPoint,
    t_sq,
    caps: SolverCaps = SolverCaps(),
) -> ThresholdResult:
    """Certified minimal blocking-set size for the connecting family.

    Falls over to the greedy upper bound (``certified=False``) when the
    instance exceeds the solver caps.
    """
    instance = build_instance(space, x, y, t_sq, caps)
    mid_upper = None
    if space.is_torus and instance.num_geodesics > 0:
        mid_upper = len(midpoint_cover(instance.family))
    sol = solve_exact(instance, caps)
    if mid_upper is not None and sol.optimal and sol.size > mid_upper:
        raise GeoBlockError("internal: solver exceeded the verified midpoint cover")
    return ThresholdResult(sol.size, sol.optimal, sol, instance, mid_upper)


@dataclass(frozen=True)
class PairSampler:
    """Seeded sampler of rational point pairs, degenerate pairs skipped."""

    seed: int
    count: int
    denominator: int = 8

    def pairs(self, space: FlatSpace) -> list[tuple[RationalPoint, RationalPoint]]:
        rng = random.Random(self.seed)
        out: list[tuple[RationalPoint, RationalPoint]] = []
        seen = set()
        guard = 0
        while len(out) < self.count:
            guard += 1
            if guard > 100 * self.count + 100:
                raise GeoBlockError("pair sampler failed to produce enough distinct pairs")
            coords = [Fraction(rng.randrange(self.denominator), self.denominator) for _ in range(4)]
            if space.is_torus:
                v1 = space.from_lattice(coords[0], coords[1])
                v2 = space.from_lattice(coords[2], coords[3])
                p = space.reduce_point(RationalPoint(v1[0], v1[1]))
                q = space.reduce_point(RationalPoint(v2[0], v2[1]))
            else:
                den = self.denominator
                vals = [Fraction(rng.randrange(1, den), den) for _ in range(4)]
                p = RationalPoint(vals[0], vals[1])
                q = RationalPoint(vals[2], vals[3])
            if p == q:
                continue
            key = (p, q)
            if key in seen:
                continue
            seen.add(key)
            out.append((p, q))
        return out


@dataclass(frozen=True)
class SampledBlockingCost:
    """Max of per-pair thresholds over a sample: a lower bound for the true
    sup over all pairs."""

    value: int
    certified: bool
    pairs: tuple[tuple[RationalPoint, RationalPoint], ...]
    per_pair: tuple[int, ...]


def _near_pair(
    space: FlatSpace, p: RationalPoint, q: RationalPoint, t_sq: Fraction
) -> tuple[RationalPoint, RationalPoint] | None:
    """A pair at distance <= t/2 derived from (p, q) by exact halving.

    Keeps the sampled cost function informative at thresholds below the
    sampled pairs' separations (a close pair always needs >= 1 blocker).
    """
    d = (q.x - p.x, q.y - p.y)
    if d == (Fraction(0), Fraction(0)):
        return None
    for _ in range(80):
        cand = RationalPoint(p.x + d[0], p.y + d[1])
        if 4 * (d[0] * d[0] + d[1] * d[1]) <= t_sq:
            if space.is_torus:
                return p, cand
            if 0 < cand.x < 1 and 0 < cand.y < 1:
                return p, cand
        d = (d[0] / 2, d[1] / 2)
    return None


def blocking_cost_sampled(
    space: FlatSpace,
    t_sq,
    sampler: PairSampler,
    caps: SolverCaps = SolverCaps(),
    include_near: bool = False,
) -> SampledBlockingCost:
    t_sq = Fraction(t_sq)
    pairs = sampler.pairs(space)
    if include_near:
        extra = []
        seen = set(pairs)
        for p, q in pairs:
            near = _near_pair(space, p, q, t_sq)
            if near and near not in seen:
                seen.add(near)
                extra.append(near)
        pairs = pairs + extra
    values = []
    certified = True
    for p, q in pairs:
        res = blocking_threshold(space, p, q, t_sq, caps)
        values.append(res.value)
        certified = certified and res.certified
    value = max(values) if values else 0
    return SampledBlockingCost(value, certified, tuple(pairs), tuple(values))


def kappa_from_squares(t_sq: Fraction, delta_sq: Fraction) -> int:
    """Least k with t/2**k < delta, computed from squared lengths."""
    if t_sq <= 0 or delta_sq <= 0:
        raise DomainError("squared lengths must be positive")
    k = 0
    cur = Fraction(t_sq)
    while cur >= delta_sq:
        cur /= 4
        k += 1
    return k


@dataclass(frozen=True)
class LevelRecord:
    k: int
    t_sq: Fraction
    pairs: tuple[tuple[RationalPoint, RationalPoint], ...]
    counts: tuple[int, ...]  # m at this level's threshold, per pair
    blocking_sizes: tuple[int, ...] | None  # None on the terminal level
    blocking_sets: tuple[tuple[RationalPoint, ...], ...] | None
    observed_max_threshold: int | None


def _round_sig(x: float) -> float:
    return float(f"{float(x):.12g}")


@dataclass(frozen=True)
class CheckRow:
    """One verified inequality.  ``law`` is the formula the row checks, the
    traceable anchor for failures; ``passed`` is None for skipped rows."""

    name: str
    law: str
    lhs: float
    rhs: float
    passed: bool | None
    hard: bool
    caveat: str | None
    context: dict

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "law": self.law,
            "lhs": _round_sig(self.lhs),
            "rhs": _round_sig(self.rhs),
            "pass": self.passed,
            "hard": self.hard,
            "caveat": self.caveat,
            "context": self.context,
        }


@dataclass(frozen=True)
class RecursionReport:
    """The halving decomposition P_0 ... P_kappa with its inequality suite.

    Level k holds point pairs whose connecting families are counted at
    threshold t/2^k; level k+1 is built from the pairs (p,z),(z,q) over
    parents (p,q) and z in the parent's minimal blocking set.  The
    cardinality check uses the observed per-level maximum blocking size in
    place of the unknowable global cost function; reports label this
    substitution.
    """

    x: RationalPoint
    y: RationalPoint
    t_sq: Fraction
    delta_sq: Fraction
    kappa: int
    levels: tuple[LevelRecord, ...]
    checks: tuple[CheckRow, ...]
    certified: bool

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_json(self) -> dict:
        return {
            "x": str(self.x),
            "y": str(self.y),
            "t_sq": str(self.t_sq),
            "delta_sq": str(self.delta_sq),
            "kappa": self.kappa,
            "certified": self.certified,
            "levels": [
                {
                    "k": lv.k,
                    "t_sq": str(lv.t_sq),
                    "num_pairs": len(lv.pairs),
                    "counts": list(lv.counts),
                    "blocking_sizes": list(lv.blocking_sizes) if lv.blocking_sizes is not None else None,
                    "observed_max_threshold": lv.observed_max_threshold,
                }
                for lv in self.levels
            ],
            "checks": [
                {"name": c.law, "lhs": str(c.lhs), "rhs": str(c.rhs), "pass": c.passed, "context": c.context}
                for c in self.checks
            ],
        }


def recursion_harness(
    space: FlatSpace,
    x: RationalPoint,
    y: RationalPoint,
    t_sq,
    caps: SolverCaps = SolverCaps(),
) -> RecursionReport:
    """Build the halving decomposition and verify its inequalities.

    Checks, per level k: the root connecting count is at most the sum of the
    sub-counts over the level's pairs; the level size is at most
    2^k times the product of observed per-level maximal blocking sizes.  At
    the terminal level every pair has at most one connecting geodesic, and
    the root count is at most the terminal level size.
    """
    t_sq = Fraction(t_sq)
    # validate before folding: the fold would carry a point off the table onto it
    space.validate_point(x)
    space.validate_point(y)
    x = space.reduce_point(x)
    y = space.reduce_point(y)
    delta_sq = space.delta_sq
    kap = kappa_from_squares(t_sq, delta_sq)

    certified = True
    checks: list[CheckRow] = []
    levels: list[LevelRecord] = []

    def check(name: str, law: str, lhs: int, rhs: int, context: dict) -> None:
        checks.append(CheckRow(name, f"{name}: {law}", lhs, rhs, lhs <= rhs, True, None, context))

    pairs: list[tuple[RationalPoint, RationalPoint]] = [(x, y)]
    observed_max: list[int] = []
    for k in range(kap + 1):
        level_t_sq = t_sq / 4**k
        terminal = k == kap

        blocking_sizes = None
        blocking_sets = None
        if terminal:
            counts = [connecting_family(space, p, q, level_t_sq).m for p, q in pairs]
        else:
            results = [blocking_threshold(space, p, q, level_t_sq, caps) for p, q in pairs]
            certified = certified and all(res.certified for res in results)
            counts = [res.instance.family.m for res in results]
            blocking_sizes = [res.value for res in results]
            blocking_sets = [res.solution.points for res in results]
            observed_max.append(max(blocking_sizes) if blocking_sizes else 0)
        if k == 0:
            root_m = counts[0]

        levels.append(
            LevelRecord(
                k,
                level_t_sq,
                tuple(pairs),
                tuple(counts),
                tuple(blocking_sizes) if blocking_sizes is not None else None,
                tuple(blocking_sets) if blocking_sets is not None else None,
                observed_max[k] if not terminal else None,
            )
        )

        context = {"k": k, "t_sq": str(level_t_sq)}
        check("sub-count-sum", "m_t(x,y) <= sum of m_{t/2^k}(p,q) over level pairs",
              root_m, sum(counts), context)
        cap_bound = 2**k
        for s in observed_max[:k]:
            cap_bound *= s
        check("level-cardinality", "|P_k| <= 2^k * product of observed max thresholds",
              len(pairs), cap_bound, dict(context, note="observed per-level maxima substitute for the global cost"))
        if terminal:
            check("terminal-uniqueness", "m_s(p,q) <= 1 for s below the injectivity radius",
                  max(counts) if counts else 0, 1, context)
            check("root-count-vs-final-level", "m_t(x,y) <= |P_kappa|", root_m, len(pairs), context)
        else:
            next_pairs: list[tuple[RationalPoint, RationalPoint]] = []
            seen = set()
            for (p, q), pts in zip(pairs, blocking_sets):
                for z in pts:
                    for pair in ((p, z), (z, q)):
                        if pair not in seen:
                            seen.add(pair)
                            next_pairs.append(pair)
            pairs = next_pairs

    return RecursionReport(
        x, y, t_sq, delta_sq, kap, tuple(levels), tuple(checks), certified
    )
