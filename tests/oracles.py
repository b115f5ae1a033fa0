"""Independent reference computations shared by the test modules.

These deliberately avoid the library's optimized code paths: enumeration by
plain rational scans over conservative boxes, minimality by exhaustive
subset search.
"""

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction


def plane_point(space, i, j):
    """The point with lattice coordinates (i, j): i*b1 + j*b2."""
    from geoblock.flatspace import RationalPoint

    return RationalPoint(i * space.b1[0] + j * space.b2[0], i * space.b1[1] + j * space.b2[1])


def displacement(family, a):
    """The plane vector from x to the image of y that the family's segment
    with displacement a joins."""
    vx, vy, d = family.space._key_plane((*a, family.origin[2]))
    return Fraction(vx, d), Fraction(vy, d)


def sq_length(family, a):
    vx, vy = displacement(family, a)
    return vx * vx + vy * vy


def point_at(family, a, s):
    """The point at parameter s of a segment, folded back into the space."""
    return family.space._key_point(family.key_at(a, s.numerator, s.denominator))


def affine_hits(a1, a2, c1, c2, den=1):
    """All s in (0,1) with (s*a1 - c1)/den and (s*a2 - c2)/den both integers,
    sorted: the hit values behind ``flatspace._affine_hits``'s yes/no, from
    the same linear congruence in i with s = (c1 + i*den)/a1."""
    if a1 == 0:
        a1, a2, c1, c2 = a2, a1, c2, c1
    mod = abs(den * a1)
    rhs = (c2 * a1 - c1 * a2) % mod
    coef = (den * a2) % mod
    g = math.gcd(coef, mod)
    if rhs % g:
        return []
    step = mod // g
    i0 = (rhs // g * pow(coef // g, -1, step)) % step if coef else 0
    lo, hi = (0, a1) if a1 > 0 else (a1, 0)
    i_min = (lo - c1) // den + 1
    i_max = -((-(hi - c1)) // den) - 1
    first = i_min + (i0 - i_min) % step
    return sorted(Fraction(c1 + i * den, a1) for i in range(first, i_max + 1, step))


def segment_hits(family, a, z):
    """Interior parameters where the family's segment with displacement a
    passes through the point with key z, over every flip: the values behind
    ``flatspace._passes_through``."""
    x1, x2, den = family.origin
    a1, a2 = a
    z1, z2, zden = z
    q = math.lcm(den, zden)
    f, fz = q // den, q // zden
    hits = set()
    for s1, s2 in family.space.group:
        hits.update(affine_hits(a1 * f, a2 * f, s1 * z1 * fz - x1 * f, s2 * z2 * fz - x2 * f, q))
    return sorted(hits)


@dataclass(frozen=True)
class Classification:
    kind: str  # "connecting" | "passes-through-endpoint"
    x_hits: tuple
    y_hits: tuple


def classify(family, a):
    """Flag a joining segment whose interior passes through either endpoint:
    the per-flip incidence solve on each endpoint's folded key, not the
    endpoint offsets that ``connecting_family`` tests against."""
    x_hits = tuple(segment_hits(family, a, family.key_at(a, 0, 1)))
    y_hits = tuple(segment_hits(family, a, family.key_at(a, 1, 1)))
    kind = "passes-through-endpoint" if (x_hits or y_hits) else "connecting"
    return Classification(kind, x_hits, y_hits)


def point_on_geodesic(family, a, z):
    """Interior parameters s in (0,1) where the family's segment with
    displacement a passes through z; an empty list means z does not block
    it.  z must lie in the table and differ from both endpoints."""
    from geoblock.errors import DomainError, UnsupportedInputError

    space = family.space
    if space.kind == "billiard" and not (0 <= z.x <= 1 and 0 <= z.y <= 1):
        raise UnsupportedInputError(f"billiard blocking point must lie in the table, got {z}")
    key = space.key(z)
    if key in (family.key_at(a, 0, 1), family.key_at(a, 1, 1)):
        raise DomainError("z must differ from both endpoints")
    return segment_hits(family, a, key)


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
    m = instance.family.m
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
    i = Fraction(rng.randint(0, den - 1), den)
    j = Fraction(rng.randint(0, den - 1), den)
    return plane_point(space, i, j)


def milp_minimum(instance):
    """Minimum hitting-set size of the instance as a 0/1 covering program,
    solved by HiGHS through scipy: a solver sharing no code with the library."""
    import numpy as np
    from scipy.optimize import Bounds, LinearConstraint, milp

    m, n = instance.family.m, instance.num_candidates
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


def reference_root_bound(instance):
    """The solver's root lower bound by its definition, in Fractions, as
    (bound, packing, dual).  Over the pairwise-undominated candidates: the packing takes geodesics in order of fewest
    candidates, ties by index, while their candidate sets stay pairwise
    disjoint; the dual is sum_i 1/max_{c ∋ i} |c|, every geodesic uncovered."""
    m = instance.family.m
    if m == 0:
        return 0, 0, Fraction(0)
    kept = pairwise_undominated(instance.covers)
    covers = [instance.covers[c] for c in kept]
    cand_of = [{c for c, mask in enumerate(covers) if mask >> i & 1} for i in range(m)]
    packing, used = 0, set()
    for i in sorted(range(m), key=lambda i: (len(cand_of[i]), i)):
        if not cand_of[i] & used:
            packing += 1
            used |= cand_of[i]
    dual = sum(Fraction(1, max(covers[c].bit_count() for c in cand_of[i])) for i in range(m))
    return max(packing, math.ceil(dual)), packing, dual


def _scan_box(family, a, b):
    """For each flip h, yield H = h*A, the lattice direction of h*a, and
    the cells r = (h*X - X) + D*k of the integer box that holds u*B - s*H
    for s, u in [0, 1], over the family's D."""
    x1, x2, den = family.origin
    (a1, a2), (b1, b2) = a, b
    for s1, s2 in family.space.group:
        h1, h2 = s1 * a1, s2 * a2
        c1, c2 = s1 * x1 - x1, s2 * x2 - x2
        k1_lo = (min(0, b1) + min(0, -h1) - c1) // den
        k1_hi = -((c1 - max(0, b1) - max(0, -h1)) // den)
        k2_lo = (min(0, b2) + min(0, -h2) - c2) // den
        k2_hi = -((c2 - max(0, b2) - max(0, -h2)) // den)
        cells = ((c1 + k1 * den, c2 + k2 * den) for k1 in range(k1_lo, k1_hi + 1) for k2 in range(k2_lo, k2_hi + 1))
        yield (h1, h2), cells


def reference_intersections(family, a, b):
    """Transversal crossings in both interiors of the family's segments with
    displacements a and b as (key, sn, sd, un), the tuples
    ``flatspace.intersection_candidates`` returns, by solving every cell of
    the box scan and folding each crossing through ``key_at``."""
    b1, b2 = b
    hits = []
    for (h1, h2), cells in _scan_box(family, a, b):
        cross = b1 * h2 - b2 * h1
        if not cross:
            continue
        sign = 1 if cross > 0 else -1
        sd = sign * cross
        for r1, r2 in cells:
            sn = sign * (r1 * b2 - r2 * b1)
            un = sign * (r1 * h2 - r2 * h1)
            if 0 < sn < sd and 0 < un < sd:
                hits.append((family.key_at(a, sn, sd), sn, sd, un))
    return hits


def reference_overlaps(family, a, b):
    """The open intervals of a's parameter s on which the segment a runs
    along an image of the segment b, one per cell of the box scan that puts
    the two on one carrier, unmerged."""
    b1, b2 = b
    overlaps = []
    for (h1, h2), cells in _scan_box(family, a, b):
        if b1 * h2 != b2 * h1:
            continue
        for r1, r2 in cells:
            if r1 * h2 == r2 * h1:
                # one carrier: s = u*c + tau with B = c*H and r = -tau*H
                c = Fraction(b1, h1) if h1 else Fraction(b2, h2)
                tau = -Fraction(r1, h1) if h1 else -Fraction(r2, h2)
                lo, hi = (tau, tau + c) if c > 0 else (tau + c, tau)
                lo, hi = max(lo, Fraction(0)), min(hi, Fraction(1))
                if lo < hi:
                    overlaps.append((lo, hi))
    return overlaps


def reference_instance(family):
    """Candidates and covers of the family's hitting-set instance, built the
    plain way: RationalPoint records from each segment's midpoint and the
    box-scan crossings (``reference_intersections``), each record's cover
    completed by exact incidence with every other connecting segment, and
    the least point per cover set, sorted."""
    space, segs = family.space, family.connecting
    records = {}
    for i, a in enumerate(segs):
        point = point_at(family, a, Fraction(1, 2))
        records[point] = records.get(point, 0) | 1 << i
    for (i, a), (j, b) in itertools.combinations(enumerate(segs), 2):
        for key, *_ in reference_intersections(family, a, b):
            point = space._key_point(key)
            records[point] = records.get(point, 0) | 1 << i | 1 << j
    for end in (family.x, family.y):
        records.pop(space._key_point(end), None)
    # z can lie on a segment from x with primitive lattice direction p only
    # if cross(p, g*z - x) is an integer for some flip g; the incidence solve
    # runs only where that holds
    x1, x2, den = family.origin
    lines = []
    for a in segs:
        g = math.gcd(*a)
        p1, p2 = a[0] // g, a[1] // g
        lines.append((p1, p2, p1 * x2 - p2 * x1))
    groups = {}
    for point, mask in records.items():
        key = space.key(point)
        z1, z2, zden = key
        q = math.lcm(den, zden)
        fz, fx = q // zden, q // den
        images = [(s1 * z1 * fz, s2 * z2 * fz) for s1, s2 in space.group]
        for i, (p1, p2, c) in enumerate(lines):
            if mask >> i & 1:
                continue
            for w1, w2 in images:
                if (p1 * w2 - p2 * w1 - c * fx) % q == 0:
                    if segment_hits(family, segs[i], key):
                        mask |= 1 << i
                    break
        groups.setdefault(mask, []).append(point)
    least = sorted((min(group), mask) for mask, group in groups.items())
    return tuple(point for point, _ in least), tuple(mask for _, mask in least)


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
    than the library's; children are deduplicated one by one
    against every stored orbit point.  It shares the library's point and
    distance formulas, so outputs compare bit for bit.  Returns
    (matrices, displacements, certified_t), sorted by displacement as
    ``OrbitBall`` is."""
    import numpy as np

    from geoblock.hyperbolic import _apply_batch, _distances, _gen_arrays, hyp_distance

    gen_mats, inv_index = _gen_arrays(preset)
    slack = max(hyp_distance(y, g.apply(y)) for _, g in preset.gens_with_inverses())
    cutoff = t_max + slack + margin
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
            if not _claim(cells, complex(disc[idx]), h):
                continue
            all_last.append(int(keep_g[idx]))
            all_mats.append(children[idx])
            all_disp.append(float(d[idx]))
        lo = hi

    order = np.argsort(all_disp, kind="stable")
    keep = order[np.array(all_disp)[order] <= t_max]
    return np.array(all_mats)[keep], np.array(all_disp)[keep], certified_t



def reference_sampled_pairs(space, seed, count, den):
    """``PairSampler.pairs`` as two samplers, one per kind, or None where it
    refuses: a torus folds four lattice numerators over den into keys, and
    the billiard draws four plane coordinates in (0, 1) over den after
    four unused draws."""
    import random

    from geoblock.flatspace import RationalPoint

    rng = random.Random(seed)
    out = {}
    for _ in range(100 * count + 101):
        if len(out) == count:
            return list(out)
        draws = [rng.randrange(den) for _ in range(4)]
        if space.is_torus:
            p, q = (space._key_point(space._fold_key(*draws[k:k + 2], den)) for k in (0, 2))
        else:
            vals = [Fraction(rng.randrange(1, den), den) for _ in range(4)]
            p, q = RationalPoint(vals[0], vals[1]), RationalPoint(vals[2], vals[3])
        if p != q:
            out[p, q] = None
    return None
