"""Independent reference computations shared by the test modules.

These deliberately avoid the library's optimized code paths: enumeration by
plain rational scans over conservative boxes, minimality by exhaustive
subset search.
"""

import itertools
import math
from fractions import Fraction


def brute_enumerate_displacements(space, x, y, t_sq):
    """All torus displacements v = y - x + lambda with 0 < |v|^2 <= t_sq,
    by scanning a conservative integer box in plain rational arithmetic."""
    d = (y.x - x.x, y.y - x.y)
    t = math.sqrt(float(t_sq))
    reach = t + math.hypot(float(d[0]), float(d[1]))
    inv = space._inv
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


def reference_instance(family):
    """Candidates and covers of the family's hitting-set instance, built the
    plain way: RationalPoint records from the public pairwise intersections
    and each segment's midpoint, the collinear completion, a sort of every
    recorded point, and the first point per cover set."""
    from geoblock.blocker import _direction_class_key
    from geoblock.flatspace import _segment_hits, intersection_candidates

    space, segs = family.space, family.connecting_segments()
    records = {}
    for i, seg in enumerate(segs):
        records.setdefault(seg.point_at(Fraction(1, 2)), set()).add(i)
    for i, j in itertools.combinations(range(len(segs)), 2):
        for hit in intersection_candidates(space, segs[i], segs[j]):
            records.setdefault(hit.point, set()).update((i, j))
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
