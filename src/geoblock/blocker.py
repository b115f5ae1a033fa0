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
from typing import Callable, Iterable, Sequence

from .errors import DomainError, GeoBlockError
from .flatspace import (
    FlatSpace,
    GeodesicFamily,
    GeodesicSegment,
    Key,
    RationalPoint,
    _blocking_key,
    _intersections,
    _segment_hits,
    connecting_family,
)
from .growth import kappa_from_squares

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
]


@dataclass(frozen=True)
class SolverCaps:
    """Instance-size caps that keep exact solving interactive: build_instance
    refuses a family over max_geodesics, solve_exact falls back to greedy
    over max_candidates."""

    max_candidates: int = 5000
    max_geodesics: int = 2000


@dataclass(frozen=True)
class IncidenceInstance:
    """Finite hitting-set instance for one connecting family.

    ``covers[c]`` is the bitmask of connecting-geodesic slots blocked by
    candidate ``c``.  Candidates are sorted by point and deduplicated: exact
    point dedup first (on integer keys), then candidates with identical
    cover sets collapse to the lexicographically smallest representative.
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


def _direction_class_key(space: FlatSpace, seg: GeodesicSegment) -> tuple:
    """Carrier-direction key: segments with equal keys may share a carrier.

    The primitive lattice direction, up to reversal and the group's flips
    (folding reflects directions)."""
    a1, a2 = seg.lattice
    g = math.gcd(a1, a2)
    a1, a2 = a1 // g, a2 // g
    return max(key for s1, s2 in space.group for key in ((s1 * a1, s2 * a2), (-s1 * a1, -s2 * a2)))


def _point_order(space: FlatSpace, keys: Iterable[Key]) -> Callable[[Key], object]:
    """A sort key giving the exact point order on ``keys``.

    It is the correctly rounded float coordinates when they are exact:
    distinct coordinates over denominators at most D differ by at least
    1/D^2, more than rounding can close while D^2 * |coordinate| < 2^51.
    Otherwise it is the exact point.
    """
    L, b1x, b1y, b2x, b2y = space._scaled
    top = L * max(key[2] for key in keys)
    if top * top * max(abs(b1x) + abs(b2x), abs(b1y) + abs(b2y)) >= L << 51:
        return space._key_point

    def approx(key: Key) -> tuple[float, float]:
        i, j, den = key
        return (i * b1x + j * b2x) / (den * L), (i * b1y + j * b2y) / (den * L)

    return approx


def build_instance(
    space: FlatSpace,
    x: RationalPoint,
    y: RationalPoint,
    t_sq,
    caps: SolverCaps = SolverCaps(),
) -> IncidenceInstance:
    """Reduce geometric blocking of the connecting family to a hitting set.

    Cover sets are bitmasks over the connecting segments, assembled from the
    construction records (each pairwise intersection names the two segments
    it lies on; ``flatspace._intersections`` steps through one solved k2
    interval per row, so a pair costs about its hits) and completed exactly:
    representatives and members of multi-segment collinear clusters are
    re-checked against every candidate with the exact incidence solver, so
    no membership is missed.  Points stay integer keys
    (``FlatSpace._fold_key``) until the kept candidates are built.
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

    # every record is interior to a connecting segment; the endpoint keys go as a guard
    records: dict[Key, int] = {}
    for i, seg in enumerate(segs):
        key = seg.key_at(1, 2)
        records[key] = records.get(key, 0) | 1 << i
    for i in range(m):
        for j in range(i + 1, m):
            pair = 1 << i | 1 << j
            for hit in _intersections(segs[i], segs[j]):
                records[hit[0]] = records.get(hit[0], 0) | pair
    for end in (segs[0].key_at(0, 1), segs[0].key_at(1, 1)):
        records.pop(end, None)

    # complete the cover sets for collinear clusters: a point recorded from one
    # pair can sit inside another parallel segment's overlap without being that
    # pair's interval representative.  A transversal neighbor would have named
    # the point itself, so only candidates whose records are all mutually
    # parallel can miss a membership, and only within that one cluster.
    classes: dict[tuple, list[int]] = {}
    for i, seg in enumerate(segs):
        classes.setdefault(_direction_class_key(space, seg), []).append(i)
    # each segment's cluster: its members and their mask
    cluster = {i: (members, sum(1 << j for j in members)) for members in classes.values() for i in members}
    for key, mask in records.items():
        members, same = cluster[(mask & -mask).bit_length() - 1]
        if not mask & ~same:
            missing = (i for i in members if not mask >> i & 1)
            records[key] = mask | sum(1 << i for i in missing if _segment_hits(segs[i], key))

    # dedup identical cover sets, keeping the lexicographically smallest point
    groups: dict[int, list[Key]] = {}
    for key, mask in records.items():
        groups.setdefault(mask, []).append(key)
    order = _point_order(space, records)
    least = {mask: min(keys, key=order) for mask, keys in groups.items()}
    keep_masks = sorted(least, key=lambda mask: order(least[mask]))
    keep_points = [space._key_point(least[mask]) for mask in keep_masks]

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
    lower_bound: int


def _candidates_of(covers: Sequence[int], m: int) -> list[list[int]]:
    """For each of the m geodesics, the candidates covering it, increasing."""
    cand_of: list[list[int]] = [[] for _ in range(m)]
    for c, mask in enumerate(covers):
        while mask:
            low = mask & -mask
            cand_of[low.bit_length() - 1].append(c)
            mask ^= low
    return cand_of


def _undominated(covers: Sequence[int], m: int) -> list[int]:
    """The candidates whose cover set is maximal, increasing.

    Cover sets are distinct, so c is dominated exactly when another
    candidate covers every geodesic of c: when the AND of the candidate
    masks of c's geodesics holds more than c itself.
    """
    common = [-1] * len(covers)
    for cands in _candidates_of(covers, m):
        mask = sum(1 << c for c in cands)
        for c in cands:
            common[c] &= mask
    return [c for c, mask in enumerate(common) if mask == 1 << c]


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


def solve_exact(instance: IncidenceInstance, caps: SolverCaps = SolverCaps()) -> BlockingSolution:
    """Certified minimum hitting set over the instance's candidate set.

    Branch and bound from the greedy cover.  Dominated candidates (cover set
    contained in another's) are dropped up front, which never changes the
    optimal size.  Branching picks the uncovered geodesic with the fewest
    candidates, ties by index; its candidates are tried by descending fresh
    coverage, ties by index.

    One bound over the uncovered set U serves the root and every node: the
    larger of (a) a greedy packing of geodesics in U whose candidate sets are
    pairwise disjoint, each needing its own point, and (b) the ceiling of
    ``sum_{i in U} y_i`` with ``y_i = 1 / max_{c ∋ i} |c ∩ U|``.  No
    candidate carries a load above 1 under (b), so it is a feasible dual of
    the covering LP; it is summed exactly in Fractions.

    The branch choice and the candidate order depend on U alone, so the
    search tree is fixed, and a valid bound prunes only subtrees holding no
    cover strictly smaller than the best so far.  The result is therefore
    the greedy cover when greedy is optimal, else the first optimal cover in
    depth-first order, whatever bound is used.

    The bounds are computed before the candidate cap is applied: an
    instance over it returns the greedy cover, ``optimal`` exactly when the
    root bound meets it, and ``[lower, greedy]`` otherwise.
    """
    m = instance.num_geodesics
    if m == 0:
        return BlockingSolution((), 0, True, 0)
    full = (1 << m) - 1

    greedy = _greedy_cover(instance.covers, full)
    capped = len(instance.covers) > caps.max_candidates
    kept = list(range(len(instance.covers))) if capped else _undominated(instance.covers, m)
    covers = [instance.covers[c] for c in kept]

    cand_of = _candidates_of(covers, m)
    geod_cand_mask = [sum(1 << c for c in cands) for cands in cand_of]
    by_few = sorted(range(m), key=lambda i: (len(cand_of[i]), i))

    def bound(uncovered: int) -> int:
        gain = [(mask & uncovered).bit_count() for mask in covers]
        packing, used = 0, 0
        per_load: dict[int, int] = {}  # y_i = 1/load, grouped by denominator
        for i in by_few:
            if uncovered >> i & 1:
                if not geod_cand_mask[i] & used:
                    packing += 1
                    used |= geod_cand_mask[i]
                load = max(gain[c] for c in cand_of[i])
                per_load[load] = per_load.get(load, 0) + 1
        return max(packing, math.ceil(sum(Fraction(n, load) for load, n in per_load.items())))

    lower = bound(full)
    if capped:
        pts = tuple(instance.candidates[c] for c in sorted(greedy))
        return BlockingSolution(pts, len(greedy), lower == len(greedy), lower)

    best: list[int] = list(greedy)  # indices into instance.covers

    def bnb(uncovered: int, chosen: list[int]) -> None:
        nonlocal best
        if not uncovered:
            if len(chosen) < len(best):
                best = [kept[c] for c in chosen]
            return
        if len(chosen) + bound(uncovered) >= len(best):
            return
        # fewest-candidates uncovered geodesic, ties by index
        pick = next(i for i in by_few if uncovered >> i & 1)
        order = sorted(cand_of[pick], key=lambda c: (-(covers[c] & uncovered).bit_count(), c))
        for c in order:
            chosen.append(c)
            bnb(uncovered & ~covers[c], chosen)
            chosen.pop()

    if lower < len(best):
        bnb(full, [])
    pts = tuple(instance.candidates[c] for c in sorted(set(best)))
    return BlockingSolution(pts, len(pts), True, lower)


def verify_cover(instance: IncidenceInstance | GeodesicFamily, points: Sequence[RationalPoint]) -> bool:
    """Whether every connecting segment passes through one of the points,
    re-checked against the geometry in exact arithmetic.

    Takes an instance or its family.  Each point must lie in the table and
    differ from both endpoints.
    """
    family = instance.family if isinstance(instance, IncidenceInstance) else instance
    space = family.space
    ends = (space.key(family.x), space.key(family.y))
    keys = [_blocking_key(space, p, ends) for p in points]
    return all(any(_segment_hits(seg, z) for z in keys) for seg in family.connecting_segments())


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
    [(x1, x2), (y1, y2)], den = space._lattice_ints(family.x, family.y)
    keys = {space._fold_key(x1 + y1 + a * den, x2 + y2 + b * den, 2 * den) for a in (0, 1) for b in (0, 1)}
    keys -= {space._fold_key(x1, x2, den), space._fold_key(y1, y2, den)}
    pts = sorted(map(space._key_point, keys))
    if not verify_cover(family, pts):
        raise GeoBlockError("internal: midpoint cover failed to block a connecting segment")
    return pts


@dataclass(frozen=True)
class ThresholdResult:
    value: int
    certified: bool
    solution: BlockingSolution
    instance: IncidenceInstance
    midpoint_upper: int | None  # torus only


def blocking_threshold(
    space: FlatSpace,
    x: RationalPoint,
    y: RationalPoint,
    t_sq,
    caps: SolverCaps = SolverCaps(),
) -> ThresholdResult:
    """Certified minimal blocking-set size for the connecting family.

    Falls over to the greedy upper bound (``certified=False``, unless the
    root bound meets it) when the instance exceeds the candidate cap.
    """
    return _threshold(build_instance(space, x, y, t_sq, caps), caps)


def _threshold(instance: IncidenceInstance, caps: SolverCaps) -> ThresholdResult:
    """``blocking_threshold`` of a built instance."""
    mid_upper = None
    if instance.family.space.is_torus and instance.num_geodesics > 0:
        mid_upper = len(midpoint_cover(instance.family))
    sol = solve_exact(instance, caps)
    if not verify_cover(instance, sol.points):
        raise GeoBlockError("internal: solver returned a set that does not block the connecting family")
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
    pairs: tuple[tuple[RationalPoint, RationalPoint], ...]


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
        if 4 * (d[0] * d[0] + d[1] * d[1]) <= t_sq and space.admits_endpoint(cand):
            return p, cand
        d = (d[0] / 2, d[1] / 2)
    return None


def blocking_cost_sampled(
    space: FlatSpace,
    t_sq,
    sampler: PairSampler,
    caps: SolverCaps = SolverCaps(),
) -> SampledBlockingCost:
    """The largest threshold at t_sq over the sampler's pairs and, after
    them, each pair's near pair (``_near_pair``) not already sampled.  The
    near pairs keep the lower bound informative at the halved thresholds the
    transform visits."""
    t_sq = Fraction(t_sq)
    sampled = sampler.pairs(space)
    pairs = list(sampled)
    seen = set(sampled)
    for p, q in sampled:
        near = _near_pair(space, p, q, t_sq)
        if near and near not in seen:
            seen.add(near)
            pairs.append(near)
    value = max((blocking_threshold(space, p, q, t_sq, caps).value for p, q in pairs), default=0)
    return SampledBlockingCost(value, tuple(pairs))


@dataclass(frozen=True)
class LevelRecord:
    k: int
    t_sq: Fraction
    pairs: tuple[tuple[RationalPoint, RationalPoint], ...]
    counts: tuple[int, ...]  # m at this level's threshold, per pair
    blocking_sizes: tuple[int, ...] | None  # None on the terminal level
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
