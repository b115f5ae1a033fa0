"""Independent reference computations shared by the test modules.

These deliberately avoid the library's optimized code paths: enumeration by
plain rational scans over conservative boxes, minimality by exhaustive
subset search.
"""

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction


def displacement(seg):
    """The plane vector from a segment's x to the image of y it joins."""
    vx, vy, d = seg.space._key_plane((*seg.lattice, seg.origin[2]))
    return Fraction(vx, d), Fraction(vy, d)


def sq_length(seg):
    vx, vy = displacement(seg)
    return vx * vx + vy * vy


def point_at(seg, s):
    """The point at parameter s of a segment, folded back into the space."""
    return seg.space._key_point(seg.key_at(s.numerator, s.denominator))


@dataclass(frozen=True)
class Classification:
    kind: str  # "connecting" | "passes-through-endpoint"
    x_hits: tuple
    y_hits: tuple


def classify(segment):
    """Flag a segment whose interior passes through either endpoint: the
    per-flip incidence solve on each endpoint's folded key, not the
    endpoint offsets that ``connecting_family`` tests against."""
    from geoblock.flatspace import _segment_hits

    x_hits = tuple(_segment_hits(segment, segment.key_at(0, 1)))
    y_hits = tuple(_segment_hits(segment, segment.key_at(1, 1)))
    kind = "passes-through-endpoint" if (x_hits or y_hits) else "connecting"
    return Classification(kind, x_hits, y_hits)


def point_on_geodesic(space, z, segment):
    """Interior parameters s in (0,1) where the segment passes through z; an
    empty list means z does not block it.  z must lie in the table and
    differ from both endpoints."""
    from geoblock.flatspace import _blocking_key, _segment_hits

    ends = (segment.key_at(0, 1), segment.key_at(1, 1))
    return _segment_hits(segment, _blocking_key(space, z, ends))


def brute_enumerate_displacements(space, x, y, t_sq):
    """All torus displacements v = y - x + lambda with 0 < |v|^2 <= t_sq,
    by scanning a conservative integer box in plain rational arithmetic."""
    d = (y.x - x.x, y.y - x.y)
    t = math.sqrt(float(t_sq))
    reach = t + math.hypot(float(d[0]), float(d[1]))
    (b1x, b1y), (b2x, b2y) = space.b1, space.b2
    det = b1x * b2y - b1y * b2x
    inv = (b2y / det, -b2x / det, -b1y / det, b1x / det)  # rows of B^-1
    r1 = math.hypot(float(inv[0]), float(inv[1]))
    r2 = math.hypot(float(inv[2]), float(inv[3]))
    imax = int(r1 * reach * 1.01) + 2
    jmax = int(r2 * reach * 1.01) + 2
    out = set()
    for i in range(-imax, imax + 1):
        for j in range(-jmax, jmax + 1):
            vx = d[0] + i * space.b1[0] + j * space.b2[0]
            vy = d[1] + i * space.b1[1] + j * space.b2[1]
            if (vx, vy) != (0, 0) and vx * vx + vy * vy <= t_sq:
                out.add((vx, vy))
    return out


def assert_minimum_by_exhaustion(instance, claimed_size):
    """Certify minimality over the instance's candidates: no smaller subset
    covers, and some subset of the claimed size does (the solver's own,
    checked separately)."""
    m = instance.num_geodesics
    if m == 0:
        assert claimed_size == 0
        return
    full = (1 << m) - 1
    covers = instance.covers
    for size in range(claimed_size):
        for combo in itertools.combinations(range(len(covers)), size):
            mask = 0
            for c in combo:
                mask |= covers[c]
            if mask == full:
                raise AssertionError(
                    f"size {size} cover exists but solver claimed {claimed_size}"
                )


def random_rational_torus(rng):
    """Non-degenerate small-entry rational lattice basis."""
    from geoblock.flatspace import FlatSpace

    while True:
        entries = [Fraction(rng.randint(-2, 2), rng.choice([1, 2])) for _ in range(4)]
        det = entries[0] * entries[3] - entries[1] * entries[2]
        if abs(det) >= Fraction(1, 2):
            return FlatSpace.torus((entries[0], entries[1]), (entries[2], entries[3]))


def random_rational_point(rng, space, den=12):
    from geoblock.flatspace import RationalPoint

    i = Fraction(rng.randint(0, den - 1), den)
    j = Fraction(rng.randint(0, den - 1), den)
    v = space.from_lattice(i, j)
    return RationalPoint(v[0], v[1])


def milp_minimum(instance):
    """Minimum hitting-set size of the instance as a 0/1 covering program,
    solved by HiGHS through scipy: a solver sharing no code with the library."""
    import numpy as np
    from scipy.optimize import Bounds, LinearConstraint, milp

    m, n = instance.num_geodesics, instance.num_candidates
    if m == 0:
        return 0
    rows = np.array([[cov >> i & 1 for cov in instance.covers] for i in range(m)])
    res = milp(np.ones(n), constraints=LinearConstraint(rows, lb=1),
               integrality=np.ones(n), bounds=Bounds(0, 1))
    assert res.success, res.message
    return round(res.fun)


def pairwise_undominated(covers):
    """Candidates whose cover set no kept candidate contains, tested pair by
    pair from the largest cover set down (ties by index), increasing."""
    kept = []
    for c in sorted(range(len(covers)), key=lambda c: (-covers[c].bit_count(), c)):
        if not any(covers[c] | covers[k] == covers[k] for k in kept):
            kept.append(c)
    return sorted(kept)


def reference_intersections(g1, g2):
    """Common interior points of two segments as (key, sn, sd, un, interval),
    the tuples ``flatspace._intersections`` returns, by scanning every cell
    of the integer box that holds u*B - s*H for s, u in [0, 1] and folding
    each crossing through ``key_at``."""
    from geoblock.flatspace import _merge_open_intervals

    x1, x2, den = g1.origin
    a1, a2 = g1.lattice
    b1, b2 = g2.lattice
    hits = []
    overlaps = []
    for s1, s2 in g1.space.group:
        h1, h2 = s1 * a1, s2 * a2
        c1, c2 = s1 * x1 - x1, s2 * x2 - x2
        k1_lo = (min(0, b1) + min(0, -h1) - c1) // den
        k1_hi = -((c1 - max(0, b1) - max(0, -h1)) // den)
        k2_lo = (min(0, b2) + min(0, -h2) - c2) // den
        k2_hi = -((c2 - max(0, b2) - max(0, -h2)) // den)
        cross = b1 * h2 - b2 * h1
        sign = 1 if cross > 0 else -1
        sd = sign * cross
        for k1 in range(k1_lo, k1_hi + 1):
            r1 = c1 + k1 * den
            for k2 in range(k2_lo, k2_hi + 1):
                r2 = c2 + k2 * den
                if cross:
                    sn = sign * (r1 * b2 - r2 * b1)
                    un = sign * (r1 * h2 - r2 * h1)
                    if 0 < sn < sd and 0 < un < sd:
                        hits.append((g1.key_at(sn, sd), sn, sd, un, None))
                elif r1 * h2 == r2 * h1:
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


def reference_instance(family):
    """Candidates and covers of the family's hitting-set instance, built the
    plain way: RationalPoint records from the box-scan intersections
    (``reference_intersections``) and each segment's midpoint, the collinear
    completion, a sort of every recorded point, and the first point per
    cover set."""
    from geoblock.blocker import _direction_class_key
    from geoblock.flatspace import _segment_hits

    space, segs = family.space, family.connecting_segments()
    records = {}
    for i, seg in enumerate(segs):
        records.setdefault(point_at(seg, Fraction(1, 2)), set()).add(i)
    ends = {space.reduce_point(family.x), space.reduce_point(family.y)}
    for i, j in itertools.combinations(range(len(segs)), 2):
        for key, *_ in reference_intersections(segs[i], segs[j]):
            point = space._key_point(key)
            if point not in ends:
                records.setdefault(point, set()).update((i, j))
    classes = [_direction_class_key(space, seg) for seg in segs]
    for point, covered in records.items():
        if len({classes[i] for i in covered}) == 1:
            cls = classes[next(iter(covered))]
            covered.update(i for i, c in enumerate(classes) if c == cls and _segment_hits(segs[i], space.key(point)))
    candidates, covers = [], []
    for point in sorted(records):
        mask = sum(1 << i for i in records[point])
        if mask not in covers:
            candidates.append(point)
            covers.append(mask)
    return tuple(candidates), tuple(covers)


def _claim(cells, w, h):
    """Store w unless a stored point lies within h of it; True iff stored.
    Cells are h-squares; stored points are at least 2h apart, so a point
    within h of w sits in the 3x3 block around w's cell."""
    i, j = math.floor(w.real / h), math.floor(w.imag / h)
    for di in (-1, 0, 1):
        for dj in (-1, 0, 1):
            v = cells.get((i + di, j + dj))
            if v is not None and abs(v - w) <= h:
                return False
    cells[(i, j)] = w
    return True


def reference_orbit_count(preset, x, y, t_max, max_word_len=24, margin=1.0):
    """Orbit ball of displacement <= t_max, one child at a time.

    Every element is expanded while its displacement stays within t_max plus
    the largest generator displacement at y plus ``margin``, a wider search
    than the library's; cocompact children are deduplicated one by one
    against every stored orbit point.  It shares the library's point and
    distance formulas, so outputs compare bit for bit.  Returns
    (matrices, displacements, certified_t), sorted by displacement as
    ``OrbitBall`` is."""
    import numpy as np

    from geoblock.hyperbolic import _apply_batch, _distances, _gen_arrays, hyp_distance

    gen_mats, inv_index = _gen_arrays(preset)
    slack = max(hyp_distance(y, g.apply(y)) for _, g in preset.gens_with_inverses())
    cutoff = t_max + slack + margin
    cells = None
    if preset.kind == "cocompact":
        h = preset.systole * math.exp(-cutoff) / (1.0 + math.exp(-cutoff)) ** 2
        cells = {}
        _claim(cells, (y - x) / (y - x.conjugate()), h)

    all_last = [-1]
    all_mats = [np.eye(2)]
    all_disp = [hyp_distance(x, y)]
    lo = 0 if all_disp[0] <= cutoff else 1
    level = 0
    certified_t = math.inf
    while lo < len(all_mats):
        if level >= max_word_len:
            certified_t = min(all_disp[lo:])
            break
        level += 1
        hi, n_g = len(all_mats), len(gen_mats)
        children = np.einsum("fij,gjk->fgik", np.array(all_mats[lo:]), gen_mats)
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
            all_last.append(int(keep_g[idx]))
            all_mats.append(children[idx])
            all_disp.append(float(d[idx]))
        lo = hi

    order = np.argsort(all_disp, kind="stable")
    keep = order[np.array(all_disp)[order] <= t_max]
    return np.array(all_mats)[keep], np.array(all_disp)[keep], certified_t

