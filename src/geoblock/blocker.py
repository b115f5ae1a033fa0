"""Exact blocking thresholds as minimum hitting sets, plus the recursive
halving decomposition and its inequality checks.

Reduction to a finite instance.  For a family of connecting geodesics the
candidate blocking points are (a) every pairwise transversal crossing and
(b) one interior representative per segment (parameter 1/2).  This
preserves the optimum by an exchange argument: a blocking point covering
two or more segments lies on two of them, which cross there, so it appears
among the pairwise crossings, or share a carrier there (below); a point
covering exactly one segment can be slid to that segment's own
representative without uncovering anything.

Connecting segments never overlap.  Unfold to the torus R^2/Λ and mark the
points G·x ∪ G·y.  A connecting segment and its images under G have no mark
inside, so each is an arc between consecutive marks of a closed geodesic,
and two such arcs coincide or have disjoint interiors.  Coinciding with one
orientation, both start at x, so they are one segment: an admitted endpoint
has a trivial stabilizer.  Coinciding reversed, they make x ∈ G·y, so
x = y and they are a loop and its reverse: their midpoints fold to one key,
and they cross every other segment at the same points.  So a point on such
a pair alone covers what the pair's midpoint covers, and every recorded
point's cover holds all the segments through it.

Early certificates on a torus.  The midpoint cover (at most |Λ/2Λ| = 4
points) bounds s_t above by its size c.  A prefix of the connecting family
(the family at a smaller t) is blocked by every set blocking the whole, so a
certified lower bound on it bounds s_t below; once that reaches c, s_t = c
with the midpoint cover as the set, and the full instance is never built.
``recursion_harness`` keeps the full solve: its next level is built from the
solver's first optimal set.  Either way each family's cover is computed once
and handed to the full solve (``_threshold``).

At most one segment.  A family of m <= 1 segments is settled without a
build or a solve (``_threshold``): its only record is its midpoint, and
greedy meets the root bound 1.

Translation classes.  With the identity as the only flip, ``connecting``,
``sq_lengths`` and ``sq_scale`` depend only on D = lcm of the endpoints'
denominators and on y - x mod D: ``_enumerate`` lists each a = y - x (mod D)
in the disc and tests a alone.  So a recursion level enumerates each class
once (``_level_families``).  Blocking sets are not shared: candidates follow
the absolute point order, so a translate may pick another first optimum.

Keys inside, points at the edge (``flatspace``): instances, solutions, covers
and recursion levels hold folded keys, so a blocking set's keys are the next
level's endpoints as they are.  A connecting segment is its displacement on
its family, so the build, ``verify_cover`` and the cover check take the
family and its ``connecting`` displacements, with no per-segment object.
``recursion_harness`` takes its root family, and ``blocking_threshold`` and
the sampled cost take ``RationalPoint``s and fold each endpoint once.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from typing import NamedTuple, Sequence

from .errors import BudgetExceededError, DomainError, GeoBlockError
from .flatspace import (
    FlatSpace,
    GeodesicFamily,
    Key,
    RationalPoint,
    _passes_through,
    _point_order,
    connecting_family,
    intersection_candidates,
)
from .growth import kappa_from_squares

# work solve_exact's search does before it stops uncertified, in candidate and
# geodesic visits: each node whose bound is computed is charged the undominated
# candidates and the geodesics that bound scans.  The tests' largest certified
# search is charged 5.5e6, the bench's 2.8e3
_MAX_WORK = 10_000_000
_MAX_GEODESICS = 2_000  # connecting geodesics build_instance takes; a larger family is refused
_WEIGHT_STEPS = 4  # multiplicative-weights steps per geodesic at the root of solve_exact

__all__ = [
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
    "dual_bound",
    "midpoint_cover",
    "blocking_threshold",
    "blocking_cost_sampled",
    "recursion_harness",
]


class IncidenceInstance(NamedTuple):
    """Finite hitting-set instance for one connecting family.

    ``covers[c]`` is the bitmask of connecting-geodesic slots blocked by
    candidate ``c``.  Candidates are the folded points' integer keys
    (``FlatSpace._fold_key``), sorted by point and deduplicated: exact point
    dedup first, then candidates with identical cover sets collapse to the
    lexicographically smallest representative.
    """

    family: GeodesicFamily
    candidates: tuple[Key, ...]
    covers: tuple[int, ...]

    @property
    def num_candidates(self) -> int:
        return len(self.candidates)


def build_instance(family: GeodesicFamily) -> IncidenceInstance:
    """Reduce geometric blocking of the connecting family to a hitting set.

    Cover sets are bitmasks over the connecting segments, assembled from the
    construction records: each midpoint names its segment, and each pairwise
    crossing the two segments it lies on (``intersection_candidates`` steps
    through one solved k2 interval per row, so a pair costs about its hits).
    Since connecting segments never overlap (module docstring), a record
    names every segment through its point.  The candidates are keys
    (``FlatSpace._fold_key``), as the family's endpoints are.  A family of
    more than ``_MAX_GEODESICS`` segments raises BudgetExceededError before
    any crossing is solved.
    """
    segs = family.connecting
    m = len(segs)
    if m > _MAX_GEODESICS:
        raise BudgetExceededError(f"connecting family size {m} exceeds the limit {_MAX_GEODESICS}")

    # every record is interior to a connecting segment; the endpoint keys go as a guard
    records: dict[Key, int] = {}
    for i, a in enumerate(segs):
        key = family.key_at(a, 1, 2)
        records[key] = records.get(key, 0) | 1 << i
    for i in range(m):
        for j in range(i + 1, m):
            pair = 1 << i | 1 << j
            for hit in intersection_candidates(family, segs[i], segs[j]):
                records[hit[0]] = records.get(hit[0], 0) | pair
    records.pop(family.x, None)
    records.pop(family.y, None)

    # dedup identical cover sets, keeping the lexicographically smallest point
    groups: dict[int, list[Key]] = {}
    for key, mask in records.items():
        groups.setdefault(mask, []).append(key)
    order = _point_order(family.space, records)
    least = {mask: min(keys, key=order) for mask, keys in groups.items()}
    keep_masks = sorted(least, key=lambda mask: order(least[mask]))

    full = (1 << m) - 1
    covered_union = 0
    for mask in keep_masks:
        covered_union |= mask
    if covered_union != full:
        raise GeoBlockError("internal: some geodesic lost its representative candidate")
    return IncidenceInstance(family, tuple(least[mask] for mask in keep_masks), tuple(keep_masks))


class BlockingSolution(NamedTuple):
    keys: tuple[Key, ...]  # the chosen candidates, in candidate order
    size: int
    optimal: bool
    lower_bound: int
    weights: tuple[int, ...] | None = None  # geodesic weights certifying lower_bound (dual_bound), when they set it


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
        gains = list(map(int.bit_count, map(uncovered.__and__, covers)))
        best_gain = max(gains)
        if best_gain <= 0:
            raise GeoBlockError("internal: geodesic with empty cover set")
        best = gains.index(best_gain)  # the first maximum: ties by index
        chosen.append(best)
        uncovered &= ~covers[best]
    return chosen


def _weights_dual(covers: Sequence[int], cand_of: list[list[int]], goal: int) -> tuple[int, tuple[int, ...]]:
    """The best covering bound ``ceil(W / max_c w(c))`` (``dual_bound``) met
    by integer multiplicative weights w on the geodesics (Garg–Könemann),
    and the weights that meet it.  Each weight starts at 2^40; a step takes
    the first candidate of largest load w(c) = sum of its geodesics' w_i and
    lowers each of them by w_i >> 3, until the bound reaches ``goal`` or
    after ``_WEIGHT_STEPS`` steps per geodesic."""
    m = len(cand_of)
    w = [1 << 40] * m
    total = m << 40
    loads = [mask.bit_count() << 40 for mask in covers]
    best, best_w = 0, tuple(w)
    for _ in range(_WEIGHT_STEPS * m):
        top = max(loads)
        if -(-total // top) > best:
            best, best_w = -(-total // top), tuple(w)
            if best >= goal:
                break
        mask = covers[loads.index(top)]
        while mask:
            low = mask & -mask
            i = low.bit_length() - 1
            mask ^= low
            cut = w[i] >> 3
            w[i] -= cut
            total -= cut
            for c in cand_of[i]:
                loads[c] -= cut
    return best, best_w


def solve_exact(instance: IncidenceInstance) -> BlockingSolution:
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
    the covering LP.  One pass over the candidates by descending gain
    ``|c ∩ U|`` gives each i its load, the gain of the first candidate
    holding it; with n_g geodesics of load g, (b) is ``ceil(sum n_g / g)``
    in integers.  The bound is a function of this histogram, which ties in
    gain do not change, so each node prunes exactly as the definition does.

    The branch choice and the candidate order depend on U alone, so the
    search tree is fixed, and a valid bound prunes only subtrees holding no
    cover strictly smaller than the best so far.  The result is therefore
    the greedy cover when greedy is optimal, else the first optimal cover in
    depth-first order, whatever bound is used.

    Where that bound stays below the greedy cover, the root also tries the
    weights dual (``_weights_dual``) and keeps the weights that raise it.  A
    higher root bound only ends the search sooner, at the same cover.

    Each node whose bound is computed is charged the candidates and the
    geodesics that bound scans.  A search charged more than ``_MAX_WORK``
    stops there with the best cover found so far, ``optimal`` exactly when
    the root bound meets it.
    """
    m = instance.family.m
    full = (1 << m) - 1

    greedy = _greedy_cover(instance.covers, full)
    kept = _undominated(instance.covers, m)
    covers = [instance.covers[c] for c in kept]

    cand_of = _candidates_of(covers, m)
    geod_cand_mask = [sum(1 << c for c in cands) for cands in cand_of]
    by_few = sorted(range(m), key=lambda i: (len(cand_of[i]), i))

    def bound(uncovered: int) -> int:
        packing, used = 0, 0
        for i in by_few:
            if uncovered >> i & 1 and not geod_cand_mask[i] & used:
                packing += 1
                used |= geod_cand_mask[i]
        # y_i = 1/load, counted per load; uncovered keeps the geodesics not yet given one
        gain = list(map(int.bit_count, map(uncovered.__and__, covers)))
        per_load: dict[int, int] = {}
        for c in sorted(range(len(covers)), key=gain.__getitem__, reverse=True):
            if fresh := covers[c] & uncovered:
                per_load[gain[c]] = per_load.get(gain[c], 0) + fresh.bit_count()
                uncovered ^= fresh
                if not uncovered:
                    break
        scale = math.lcm(*per_load)
        return max(packing, -(-sum(n * (scale // load) for load, n in per_load.items()) // scale))

    lower, weights = bound(full), None
    if lower < len(greedy):
        dual, dual_weights = _weights_dual(covers, cand_of, len(greedy))
        if dual > lower:
            lower, weights = dual, dual_weights
    best: list[int] = list(greedy)  # indices into instance.covers
    work = 0

    def bnb(uncovered: int, chosen: list[int]) -> None:
        nonlocal best, work
        if not uncovered:
            if len(chosen) < len(best):
                best = [kept[c] for c in chosen]
            return
        # no cover is smaller than the root bound, so one that meets it ends the search
        if len(best) == lower:
            return
        work += len(covers) + m
        if work > _MAX_WORK or len(chosen) + bound(uncovered) >= len(best):
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
    keys = tuple(instance.candidates[c] for c in sorted(best))
    return BlockingSolution(keys, len(keys), work <= _MAX_WORK or lower == len(keys), lower, weights)


def verify_cover(family: GeodesicFamily, keys: Sequence[Key]) -> bool:
    """Whether every connecting segment passes through one of the points
    with these keys, re-checked against the geometry in exact arithmetic.

    The keys are folded (``FlatSpace._fold_key``), as the solver's are, and
    each must differ from both endpoints.
    """
    if family.x in keys or family.y in keys:
        raise DomainError("a blocking point must differ from both endpoints")
    return all(any(_passes_through(family, a, z) for z in keys) for a in family.connecting)


def dual_bound(instance: IncidenceInstance, weights: Sequence[int]) -> int:
    """The lower bound ``ceil(W / max_c w(c))`` that nonnegative integer
    weights w on the connecting geodesics certify, from the instance alone,
    as ``verify_cover`` re-checks a set: W is their sum and w(c) the sum
    over candidate c's geodesics, for every candidate.  No candidate carries
    a load above 1 under y = w / max_c w(c), so y is a feasible dual of the
    covering LP and every cover has at least ``ceil(sum y)`` points."""
    most = 0
    for mask in instance.covers:
        load = 0
        while mask:
            low = mask & -mask
            load += weights[low.bit_length() - 1]
            mask ^= low
        most = max(most, load)
    return -(-sum(weights) // most) if most else 0


def _solve_checked(instance: IncidenceInstance) -> BlockingSolution:
    """``solve_exact``, with the weights behind its lower bound re-checked by
    ``dual_bound`` before the bound or the ``optimal`` flag is trusted."""
    sol = solve_exact(instance)
    if sol.weights is not None and dual_bound(instance, sol.weights) < sol.lower_bound:
        raise GeoBlockError("internal: the solver's weights do not certify its lower bound")
    return sol


def midpoint_cover(family: GeodesicFamily) -> list[Key] | None:
    """The half-lattice midpoint classes (x+y)/2 + (a*b1 + b*b2)/2 on a torus;
    None off a torus or on an empty family.

    Every torus geodesic from x to y passes through one of them at parameter
    1/2, so after removing x and y they block the whole connecting family
    (a connecting segment whose midpoint were x or y would pass through an
    endpoint and not be connecting).  Verified before use, in O(m): every
    connecting segment's midpoint ``key_at(a, 1, 2)``, interior to it, is a key.
    The keys come in point order.
    """
    space = family.space
    if not space.is_torus or not family.m:
        return None
    (x1, x2, dx), (y1, y2, dy) = family.x, family.y
    den = dx * dy
    keys = {space._fold_key(x1 * dy + y1 * dx + a * den, x2 * dy + y2 * dx + b * den, 2 * den)
            for a in (0, 1) for b in (0, 1)}
    keys -= {family.x, family.y}
    if any(family.key_at(a, 1, 2) not in keys for a in family.connecting):
        raise GeoBlockError("internal: midpoint cover failed to block a connecting segment")
    return sorted(keys, key=_point_order(space, keys))


class ThresholdResult(NamedTuple):
    value: int
    certified: bool
    solution: BlockingSolution
    instance: IncidenceInstance  # the one solved: the family's own, or a certifying prefix's
    midpoint_upper: int | None  # torus only
    family: GeodesicFamily  # the full connecting family


def blocking_threshold(space: FlatSpace, x: RationalPoint, y: RationalPoint, t_sq) -> ThresholdResult:
    """Certified minimal blocking-set size for the connecting family.

    The best cover found (``certified=False``, unless the root bound meets
    it) when the search runs out of budget (``solve_exact``).  On a torus a
    prefix may certify the midpoint cover (see the module docstring).
    """
    return _family_threshold(connecting_family(space, space.validate_point(x), space.validate_point(y), t_sq))


def _family_threshold(family: GeodesicFamily) -> ThresholdResult:
    """``blocking_threshold`` of a family: first the proper prefixes at t/8,
    t/4 and t/2, one per size, that hold at least c = |midpoint cover| geodesics."""
    cover = midpoint_cover(family)
    if cover:
        c = len(cover)
        rungs = {family.counts_at(t_sq)[1]: t_sq for t_sq in (family.t_sq / 64, family.t_sq / 16, family.t_sq / 4)}
        for m, t_sq in rungs.items():
            if c <= m < family.m:
                instance = build_instance(family.within(t_sq))
                sol = _solve_checked(instance)
                if (sol.size if sol.optimal else sol.lower_bound) >= c:
                    return ThresholdResult(c, True, BlockingSolution(tuple(cover), c, True, c), instance, c, family)
    return _threshold(family, cover)


def _threshold(family: GeodesicFamily, cover: list[Key] | None) -> ThresholdResult:
    """The build and solve of a family, or its closed form at m <= 1 (module
    docstring); a stopped search's cover larger than the midpoint cover ``cover`` gives way to it."""
    mid_upper = len(cover) if cover is not None else None
    if family.m <= 1:
        keys = tuple(family.key_at(a, 1, 2) for a in family.connecting)
        sol = BlockingSolution(keys, family.m, True, family.m)
        return ThresholdResult(family.m, True, sol, IncidenceInstance(family, keys, (1,) * family.m), mid_upper, family)
    instance = build_instance(family)
    sol = _solve_checked(instance)
    if not verify_cover(family, sol.keys):
        raise GeoBlockError("internal: solver returned a set that does not block the connecting family")
    if cover is not None and sol.size > len(cover):
        if sol.optimal:
            raise GeoBlockError("internal: solver exceeded the verified midpoint cover")
        sol = sol._replace(keys=tuple(cover), size=len(cover), optimal=sol.lower_bound >= len(cover))
    return ThresholdResult(sol.size, sol.optimal, sol, instance, mid_upper, family)


class PairSampler(NamedTuple):
    """Seeded sampler of rational point pairs, degenerate pairs skipped: four
    even lattice numerators over 2*denominator, each on a flipped axis redrawn
    in the open half (0, 1/2) of it (the open table), folded to keys."""

    seed: int
    count: int
    denominator: int = 8

    def pairs(self, space: FlatSpace) -> list[tuple[RationalPoint, RationalPoint]]:
        rng = random.Random(self.seed)
        den = self.denominator
        out: dict[tuple[RationalPoint, RationalPoint], None] = {}  # an ordered set
        for _ in range(100 * self.count + 101):
            if len(out) == self.count:
                return list(out)
            nums = [2 * rng.randrange(den) for _ in range(4)]
            for k in range(4):
                if space.flips[k % 2]:
                    nums[k] = rng.randrange(1, den)
            p, q = (space._key_point(space._fold_key(*nums[k:k + 2], 2 * den)) for k in (0, 2))
            if p != q:
                out[p, q] = None
        raise GeoBlockError("pair sampler failed to produce enough distinct pairs")


class SampledBlockingCost(NamedTuple):
    """Max of per-pair thresholds over a sample: a lower bound for the true
    sup over all pairs."""

    value: int
    pairs: tuple[tuple[RationalPoint, RationalPoint], ...]


def _near_pair(p: RationalPoint, q: RationalPoint, t_sq: Fraction) -> tuple[RationalPoint, RationalPoint] | None:
    """A pair at distance <= t/2 derived from (p, q) by exact halving.

    Keeps the sampled cost function informative at thresholds below the
    sampled pairs' separations (a close pair always needs >= 1 blocker).
    The new point is q or lies on the open segment from p to q, so it is
    admitted as an endpoint when p and q are sampled: a torus admits every
    point, and the open billiard table is convex.
    """
    d = (q.x - p.x, q.y - p.y)
    if d == (Fraction(0), Fraction(0)):
        return None
    for _ in range(80):
        if 4 * (d[0] * d[0] + d[1] * d[1]) <= t_sq:
            return p, RationalPoint(p.x + d[0], p.y + d[1])
        d = (d[0] / 2, d[1] / 2)
    return None


def blocking_cost_sampled(
    space: FlatSpace,
    t_sq,
    sampled: Sequence[tuple[RationalPoint, RationalPoint]],
    families: Sequence[GeodesicFamily],
) -> SampledBlockingCost:
    """The largest threshold at t_sq over the sampled pairs
    (``PairSampler.pairs``, drawn once by the caller for every t) and, after
    them, each pair's near pair (``_near_pair``) not already sampled.  The
    near pairs keep the lower bound informative at the halved thresholds the
    transform visits.  On a torus the max stops at its ceiling 4.

    ``families`` holds the sampled pairs' families in their order at some
    t^2 >= t_sq, read ``within`` t_sq, so a caller asking for several t
    enumerates each pair once.  A pair whose m_t is at most the running max
    is skipped, as s_t <= m_t."""
    t_sq = Fraction(t_sq)
    pairs = list(sampled)
    seen = set(sampled)
    for p, q in sampled:
        near = _near_pair(p, q, t_sq)
        if near and near not in seen:
            seen.add(near)
            pairs.append(near)
    # no torus value exceeds its midpoint cover, at most |Λ/2Λ| = 4 points
    ceiling = 4 if space.is_torus else math.inf
    value = 0
    for family in families:
        if value < min(family.counts_at(t_sq)[1], ceiling):
            value = max(value, _family_threshold(family.within(t_sq)).value)
    for p, q in pairs[len(families):]:
        if value < ceiling:
            value = max(value, blocking_threshold(space, p, q, t_sq).value)
    return SampledBlockingCost(value, tuple(pairs))


class LevelRecord(NamedTuple):
    k: int
    t_sq: Fraction
    pairs: tuple[tuple[Key, Key], ...]
    counts: tuple[int, ...]  # m at this level's threshold, per pair
    blocking_sizes: tuple[int, ...] | None  # None on the terminal level
    observed_max_threshold: int | None


def _round_sig(x: float) -> float:
    return float(f"{float(x):.12g}")


class CheckRow(NamedTuple):
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


class RecursionReport(NamedTuple):
    """The halving decomposition P_0 ... P_kappa with its inequality suite.

    Level k holds key pairs whose connecting families are counted at
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


def _level_families(space: FlatSpace, pairs: list[tuple[Key, Key]], t_sq: Fraction) -> list[GeodesicFamily]:
    """The families of a level's pairs, one enumeration per translation class
    when the identity is the only flip (module docstring)."""
    if len(space.group) > 1:
        return [connecting_family(space, p, q, t_sq) for p, q in pairs]
    reps: dict[tuple[int, int, int], GeodesicFamily] = {}
    out = []
    for p, q in pairs:
        den = math.lcm(p[2], q[2])
        x1, x2 = p[0] * (den // p[2]), p[1] * (den // p[2])
        cls = ((q[0] * (den // q[2]) - x1) % den, (q[1] * (den // q[2]) - x2) % den, den)
        if cls in reps:
            rep = reps[cls]
            out.append(GeodesicFamily(space, p, q, t_sq, (x1, x2, den), rep.connecting, rep.sq_lengths, rep.sq_scale))
        else:
            out.append(reps.setdefault(cls, connecting_family(space, p, q, t_sq)))
    return out


def recursion_harness(family: GeodesicFamily) -> RecursionReport:
    """Build the halving decomposition of the root family, the connecting
    family of (x, y) at t, and verify its inequalities.

    Checks, per level k: the root connecting count is at most the sum of the
    sub-counts over the level's pairs; the level size is at most
    2^k times the product of observed per-level maximal blocking sizes.  At
    the terminal level every pair has at most one connecting geodesic, and
    the root count is at most the terminal level size.
    """
    space, t_sq = family.space, family.t_sq
    delta_sq = space.delta_sq
    kap = kappa_from_squares(t_sq, delta_sq)

    certified = True
    checks: list[CheckRow] = []
    levels: list[LevelRecord] = []

    def check(name: str, law: str, lhs: int, rhs: int, context: dict) -> None:
        checks.append(CheckRow(name, f"{name}: {law}", lhs, rhs, lhs <= rhs, True, None, context))

    root_m = family.m
    pairs: list[tuple[Key, Key]] = [(family.x, family.y)]
    observed_max: list[int] = []
    for k in range(kap + 1):
        level_t_sq = t_sq / 4**k
        terminal = k == kap

        families = _level_families(space, pairs, level_t_sq) if k else [family]
        counts = [fam.m for fam in families]
        blocking_sizes = None
        blocking_sets = None
        if not terminal:
            results = [_threshold(fam, midpoint_cover(fam) if fam.m > 1 else None) for fam in families]
            certified = certified and all(res.certified for res in results)
            blocking_sizes = [res.value for res in results]
            blocking_sets = [res.solution.keys for res in results]
            observed_max.append(max(blocking_sizes) if blocking_sizes else 0)

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
            next_pairs: list[tuple[Key, Key]] = []
            seen = set()
            for (p, q), pts in zip(pairs, blocking_sets):
                for z in pts:
                    for pair in ((p, z), (z, q)):
                        if pair not in seen:
                            seen.add(pair)
                            next_pairs.append(pair)
            pairs = next_pairs

    return RecursionReport(
        space._key_point(family.x), space._key_point(family.y), t_sq, delta_sq, kap, tuple(levels),
        tuple(checks), certified,
    )
