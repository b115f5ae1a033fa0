import itertools
import math
import random
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from geoblock.blocker import build_instance
from geoblock.cli import main
from geoblock.errors import DomainError, UnsupportedInputError
from geoblock.flatspace import (
    FlatSpace,
    RationalPoint,
    _first_mark,
    _passes_through,
    _ray,
    connecting_family,
    count,
    intersection_candidates,
    load_space,
    shortest_vector,
)
from helpers import crossing_points, family_of, joining_of
from oracles import (
    affine_hits,
    classify,
    displacement,
    plane_point,
    point_at,
    point_on_geodesic,
    reference_intersections,
    reference_overlaps,
    segment_hits,
    sq_length,
)

P = RationalPoint.of
F = Fraction


def brute_shortest_sq(b1, b2, window=4):
    best = None
    for i in range(-window, window + 1):
        for j in range(-window, window + 1):
            if i == 0 and j == 0:
                continue
            vx = i * b1[0] + j * b2[0]
            vy = i * b1[1] + j * b2[1]
            sq = vx * vx + vy * vy
            if best is None or sq < best:
                best = sq
    return best


def brute_enumerate(space, x, y, t_sq):
    """Independent scan over all lattice offsets in a conservative box."""
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
            if vx == 0 and vy == 0:
                continue
            if vx * vx + vy * vy <= t_sq:
                out.add((vx, vy))
    return out


def random_torus(rng):
    while True:
        entries = [F(rng.randint(-2, 2), rng.choice([1, 2])) for _ in range(4)]
        det = entries[0] * entries[3] - entries[1] * entries[2]
        if abs(det) >= F(1, 2):
            return FlatSpace.torus((entries[0], entries[1]), (entries[2], entries[3]))


def random_point(rng, space):
    if not space.is_torus:  # an interior table point
        return P(F(rng.randint(1, 7), 8), F(rng.randint(1, 7), 8))
    return plane_point(space, F(rng.randint(0, 11), 12), F(rng.randint(0, 11), 12))


SKEW = FlatSpace.torus((F(2, 3), F(1, 5)), (F(-1, 2), F(7, 6)))


class TestShortestVector:
    def test_unit_lattice(self):
        space = FlatSpace.unit_torus()
        _, sq = shortest_vector(space)
        assert sq == 1

    def test_skew_halves(self):
        space = FlatSpace.torus((1, 0), (F(1, 2), F(1, 2)))
        vec, sq = shortest_vector(space)
        assert sq == F(1, 2)
        assert sq == brute_shortest_sq(space.b1, space.b2)

    def test_rectangular(self):
        space = FlatSpace.torus((2, 0), (0, 3))
        _, sq = shortest_vector(space)
        assert sq == 4
        assert sq == brute_shortest_sq(space.b1, space.b2)

    def test_random_against_brute_force(self):
        rng = random.Random(7)
        for _ in range(40):
            space = random_torus(rng)
            _, sq = shortest_vector(space)
            assert sq == brute_shortest_sq(space.b1, space.b2)

    def test_degenerate_basis_rejected(self):
        with pytest.raises(DomainError):
            FlatSpace.torus((1, 2), (2, 4))

    def test_billiard_lattice(self):
        # defined on every flat space; the billiard's delta stays its convention
        space = FlatSpace.square_billiard()
        assert shortest_vector(space)[1] == 4 == brute_shortest_sq(space.b1, space.b2)
        assert space.delta_sq == F(1, 16)


class TestFoldKey:
    SPACES = [
        FlatSpace.unit_torus(),
        FlatSpace.torus((F(2, 3), F(1, 5)), (F(-1, 2), F(7, 6))),
        FlatSpace.square_billiard(),
    ]

    def test_invariant_under_scaling_lattice_shifts_and_flips(self):
        rng = random.Random(61)
        for space in self.SPACES:
            for _ in range(200):
                den = rng.randint(1, 40)
                n1, n2 = rng.randint(-5 * den, 5 * den), rng.randint(-5 * den, 5 * den)
                key = space._fold_key(n1, n2, den)
                i, j, d = key
                assert 0 <= i < d and 0 <= j < d and math.gcd(i, j, d) == 1
                k = rng.randint(2, 9)
                assert space._fold_key(k * n1, k * n2, k * den) == key
                m1, m2 = rng.randint(-4, 4), rng.randint(-4, 4)
                assert space._fold_key(n1 + m1 * den, n2 + m2 * den, den) == key
                for s1, s2 in space.group:
                    assert space._fold_key(s1 * n1, s2 * n2, den) == key

    def test_per_axis_fold_is_least_group_image(self):
        # the definition: the least (i, j) over the group's images mod den
        rng = random.Random(71)
        for space in self.SPACES:
            for _ in range(300):
                den = rng.randint(1, 40)
                n1, n2 = rng.randint(-5 * den, 5 * den), rng.randint(-5 * den, 5 * den)
                i, j = min(((s1 * n1) % den, (s2 * n2) % den) for s1, s2 in space.group)
                g = math.gcd(i, j, den)
                assert space._fold_key(n1, n2, den) == (i // g, j // g, den // g)

    def test_key_point_is_reduce_point(self):
        rng = random.Random(67)
        for space in self.SPACES:
            for _ in range(200):
                den = rng.randint(1, 30)
                n1, n2 = rng.randint(-3 * den, 3 * den), rng.randint(-3 * den, 3 * den)
                v = plane_point(space, F(n1, den), F(n2, den))
                assert space._key_point(space._fold_key(n1, n2, den)) == space.reduce_point(v)


class TestEnumerate:
    def test_two_segment_example(self):
        space = FlatSpace.unit_torus()
        fam, joining = joining_of(space, P(0, 0), P("1/2", 0), 1)
        assert sorted(displacement(fam, a) for a in joining) == [(F(-1, 2), F(0)), (F(1, 2), F(0))]

    def test_self_pair_example(self):
        space = FlatSpace.unit_torus()
        fam, joining = joining_of(space, P(0, 0), P(0, 0), 1)
        assert sorted(displacement(fam, a) for a in joining) == [
            (F(-1), F(0)),
            (F(0), F(-1)),
            (F(0), F(1)),
            (F(1), F(0)),
        ]

    def test_empty_below_minimal_length(self):
        space = FlatSpace.unit_torus()
        fam, joining = joining_of(space, P(0, 0), P("1/2", 0), F(1, 100))
        assert joining == [] and fam.connecting == () and fam.n == 0

    def test_against_brute_force(self):
        rng = random.Random(11)
        for _ in range(40):
            space = random_torus(rng)
            x, y = random_point(rng, space), random_point(rng, space)
            t_sq = F(rng.randint(1, 16))
            fam, joining = joining_of(space, x, y, t_sq)
            got = {displacement(fam, a) for a in joining}
            assert got == brute_enumerate(space, x, y, t_sq)
            assert len(joining) == len(got) == fam.n
            assert all(0 < sq_length(fam, a) <= t_sq for a in joining)

    def test_box_boundary_against_brute_force(self):
        # t^2 equal to a displacement's squared length (the inclusive <=),
        # and t^2 not a rational square over denominators up to 10^4 (the
        # isqrt box's floor): the integer box loses no displacement at its edge
        rng = random.Random(13)
        for _ in range(40):
            space = random_torus(rng)
            x, y = random_point(rng, space), random_point(rng, space)
            v = rng.choice(sorted(brute_enumerate(space, x, y, F(9))))
            on_edge = v[0] * v[0] + v[1] * v[1]
            den = rng.randint(2, 10**4)
            off_square = F(rng.randint(1, 9 * den), den)
            while all(math.isqrt(n) ** 2 == n for n in (off_square.numerator, off_square.denominator)):
                off_square += F(1, den)
            for t_sq in (on_edge, off_square):
                fam, joining = joining_of(space, x, y, t_sq)
                got = [displacement(fam, a) for a in joining]
                assert set(got) == brute_enumerate(space, x, y, t_sq) and len(got) == len(set(got))
                if t_sq == on_edge:
                    assert v in got

    def test_endpoints_folded(self):
        # (3/2, -1) is the key (1, 0, 2), (1/2, 0), unfolded
        space = FlatSpace.unit_torus()
        fam = connecting_family(space, (3, -2, 2), (1, 0, 4), 4)
        assert fam == connecting_family(space, (1, 0, 2), (1, 0, 4), 4) and fam.x == (1, 0, 2)

    def test_canonical_ordering(self):
        space = FlatSpace.unit_torus()
        fam, joining = joining_of(space, P(0, 0), P(0, 0), 4)
        assert [displacement(fam, a) for a in joining] == sorted(displacement(fam, a) for a in joining)
        assert [displacement(fam, a) for a in fam.connecting] == sorted(displacement(fam, a) for a in fam.connecting)


def lattice_coords(space, wx, wy):
    """Lattice coordinates of the plane vector (wx, wy), in Fractions."""
    (b1x, b1y), (b2x, b2y) = space.b1, space.b2
    det = b1x * b2y - b1y * b2x
    return (b2y * wx - b2x * wy) / det, (b1x * wy - b1y * wx) / det


def meets_half_lattice(space, x, v):
    """Whether x + s*v meets a point fixed by the half-turn, lattice
    coordinates in (1/2)Z^2, for some s in (0,1): a plain scan of the
    half-integer box around the segment."""
    p, q = lattice_coords(space, x.x, x.y), lattice_coords(space, *v)
    box = [range(math.floor(2 * min(c, c + d)), math.ceil(2 * max(c, c + d)) + 1) for c, d in zip(p, q)]
    for k1 in box[0]:
        for k2 in box[1]:
            w = (F(k1, 2) - p[0], F(k2, 2) - p[1])
            if w[0] * q[1] == w[1] * q[0] and 0 < (w[0] * q[0] + w[1] * q[1]) / (q[0] ** 2 + q[1] ** 2) < 1:
                return True
    return False


def brute_joining(space, x, y, t_sq):
    """The plane displacements g*y + lambda - x with 0 < |v|^2 <= t_sq over
    the flips g (sign changes of the plane coordinates) and a box of lattice
    vectors lambda, sorted, without those that meet a corner; and how many
    met one."""
    joining, rejected = [], 0
    for s1, s2 in space.group:
        for v in brute_enumerate(space, x, RationalPoint(s1 * y.x, s2 * y.y), t_sq):
            if (-1, -1) in space.group and meets_half_lattice(space, x, v):
                rejected += 1
            else:
                joining.append(v)
    return sorted(joining), rejected


class TestFamily:
    def test_connecting_displacements_match_brute_force(self):
        # the family keeps the connecting displacements, in displacement
        # order; the joining segments through an endpoint are only counted
        rng = random.Random(101)
        kinds = {"connecting": 0, "passes-through-endpoint": 0, "corner": 0}
        for space in (FlatSpace.unit_torus(), FlatSpace.torus((1, 0), (F(1, 3), F(5, 4))), FlatSpace.square_billiard()):
            for trial in range(10):
                x = random_point(rng, space)
                y = x if trial % 3 == 0 else random_point(rng, space)
                t_sq = F(rng.randint(1, 100), 4)
                fam = connecting_family(space, space.key(x), space.key(y), t_sq)
                joining, rejected = brute_joining(space, x, y, t_sq)
                lattice = []
                for v in joining:
                    a = tuple(c * fam.origin[2] for c in lattice_coords(space, *v))
                    assert all(c.denominator == 1 for c in a)
                    lattice.append(tuple(map(int, a)))
                connecting = [a for a in lattice if classify(fam, a).kind == "connecting"]
                assert list(fam.connecting) == connecting, (space.kind, x, y, t_sq)
                assert fam.counts_at(t_sq) == (len(joining), len(connecting), rejected)
                for a in lattice:
                    kinds[classify(fam, a).kind] += 1
                kinds["corner"] += rejected
        assert min(kinds.values()) >= 10, kinds


class TestClassify:
    def test_short_arc_connecting(self):
        space = FlatSpace.unit_torus()
        fam, joining = joining_of(space, P(0, 0), P("1/2", 0), F(1, 4))
        assert classify(fam, joining[0]).kind == "connecting"

    def test_double_wrap_passes_through_endpoint(self):
        space = FlatSpace.unit_torus()
        fam, joining = joining_of(space, P(0, 0), P(0, 0), 4)
        a = next(a for a in joining if displacement(fam, a) == (F(2), F(0)))
        cls = classify(fam, a)
        assert cls.kind == "passes-through-endpoint"
        assert cls.x_hits == (F(1, 2),)
        assert cls.y_hits == cls.x_hits

    def test_primitive_wrap_connecting(self):
        space = FlatSpace.unit_torus()
        fam, joining = joining_of(space, P(0, 0), P(0, 0), 1)
        a = next(a for a in joining if displacement(fam, a) == (F(1), F(0)))
        assert classify(fam, a).kind == "connecting"

    @pytest.mark.parametrize("billiard", [False, True])
    def test_agrees_with_connecting_family(self, billiard):
        # the oracle solves each endpoint's incidence per flip; the family
        # tests the segment against the endpoints' offsets
        rng = random.Random(53)
        kinds = {"connecting": 0, "passes-through-endpoint": 0}
        for _ in range(30):
            if billiard:
                space = FlatSpace.square_billiard()
                x, y = (P(F(rng.randint(1, 3), 4), F(rng.randint(1, 3), 4)) for _ in range(2))
            else:
                space = random_torus(rng)
                x, y = random_point(rng, space), random_point(rng, space)
            fam, joining = joining_of(space, x, y, F(rng.randint(1, 9)))
            assert [a for a in joining if classify(fam, a).kind == "connecting"] == list(fam.connecting)
            for a in joining:
                kinds[classify(fam, a).kind] += 1
        assert min(kinds.values()) >= 10, kinds


class TestFirstMarkProperties:
    """The first-mark lemma's classification, corner rejection and incidence
    against the per-mark congruence solves of ``oracles``."""

    SPACES = {"unit": FlatSpace.unit_torus(), "skew": SKEW, "billiard": FlatSpace.square_billiard()}

    @pytest.mark.parametrize("kind", SPACES)
    def test_family_matches_congruence_oracles(self, kind):
        space = self.SPACES[kind]
        rng = random.Random(113)
        kinds = {"connecting": 0, "passes-through-endpoint": 0, "corner": 0}
        for trial in range(24):
            x = random_point(rng, space)
            y = x if trial % 3 == 0 else random_point(rng, space)
            t_sq = F(rng.randint(1, 120), 4)
            fam = family_of(space, x, y, t_sq)
            x1, x2, den = fam.origin
            px, py = space._key_point(fam.x), space._key_point(fam.y)
            connecting, lengths = [], ([], [], [])
            for s1, s2 in space.group:
                for v in brute_enumerate(space, px, P(s1 * py.x, s2 * py.y), t_sq):
                    a = tuple(int(c * den) for c in lattice_coords(space, *v))
                    sq = sq_length(fam, a) * fam.sq_scale
                    assert sq.denominator == 1
                    # a corner is a point fixed by the half-turn: 2*(x + s*a) = 0 (mod den)
                    if (-1, -1) in space.group and affine_hits(2 * a[0], 2 * a[1], -2 * x1, -2 * x2, den):
                        lengths[2].append(int(sq))
                        kinds["corner"] += 1
                        continue
                    lengths[0].append(int(sq))
                    label = classify(fam, a).kind
                    kinds[label] += 1
                    if label == "connecting":
                        connecting.append((v, a))
                        lengths[1].append(int(sq))
            assert list(fam.connecting) == [a for _, a in sorted(connecting)], (x, y, t_sq)
            assert fam.sq_lengths == tuple(tuple(sorted(group)) for group in lengths), (x, y, t_sq)
        assert kinds["connecting"] >= 100 and kinds["passes-through-endpoint"] >= 10, kinds
        assert kinds["corner"] >= 10 or space.is_torus, kinds

    @pytest.mark.parametrize("kind", SPACES)
    def test_passes_through_matches_point_on_geodesic(self, kind):
        space = self.SPACES[kind]
        rng = random.Random(127)
        seen = Counter()
        for _ in range(40):
            x, y = random_point(rng, space), random_point(rng, space)
            fam = family_of(space, x, y, F(rng.randint(1, 60), 4))
            for a in rng.sample(fam.connecting, min(5, fam.m)):
                q = rng.randint(2, 24)
                if rng.random() < 0.5:  # a point of the segment: a hit
                    key = fam.key_at(a, rng.randint(1, q - 1), q)
                else:
                    key = space._fold_key(rng.randint(0, 2 * q), rng.randint(0, 2 * q), q)
                if key in (fam.x, fam.y):
                    continue
                expected = bool(point_on_geodesic(fam, a, space._key_point(key)))
                assert _passes_through(fam, a, key) == expected, (x, y, a, key)
                seen[expected] += 1
        assert min(seen[True], seen[False]) >= 30, seen


class TestCount:
    def test_examples(self):
        space = FlatSpace.unit_torus()
        assert count(space, P(0, 0), P("1/2", 0), 1) == (2, 2)
        assert count(space, P(0, 0), P(0, 0), 1) == (4, 4)
        assert count(space, P(0, 0), P("1/2", 0), F(1, 100)) == (0, 0)

    def test_symmetry(self):
        rng = random.Random(13)
        space = FlatSpace.unit_torus()
        for _ in range(15):
            x, y = random_point(rng, space), random_point(rng, space)
            t_sq = F(rng.randint(1, 9))
            assert count(space, x, y, t_sq) == count(space, y, x, t_sq)

    def test_translation_invariance(self):
        rng = random.Random(17)
        space = FlatSpace.unit_torus()
        for _ in range(15):
            x, y = random_point(rng, space), random_point(rng, space)
            c = random_point(rng, space)
            t_sq = F(rng.randint(1, 9))
            shifted = (
                RationalPoint(x.x + c.x, x.y + c.y),
                RationalPoint(y.x + c.x, y.y + c.y),
            )
            assert count(space, x, y, t_sq) == count(space, *shifted, t_sq)

    def test_gauss_circle_small(self):
        space = FlatSpace.unit_torus()
        n, _ = count(space, P(0, 0), P(0, 0), 15 * 15)
        assert abs(n * 1 / (math.pi * 225) - 1) <= 0.1


class TestCountsAt:
    """A family read or cut at a smaller t agrees with a fresh family there."""

    @pytest.mark.parametrize("space", [FlatSpace.torus((1, 0), (F(1, 3), F(5, 4))), FlatSpace.square_billiard()])
    def test_every_length_boundary(self, space):
        rng = random.Random(67)
        pairs = [(P("1/4", "1/4"), P("3/4", "3/4"))] if not space.is_torus else []
        while len(pairs) < 4:
            x, y = (P(F(rng.randint(1, 7), 8), F(rng.randint(1, 7), 8)) for _ in range(2))
            if x != y:
                pairs.append((x, y))
        rejected_seen = False
        for x, y in pairs:
            fam = family_of(space, x, y, 9)
            # every squared length the family holds, and points just below and between them
            lengths = {F(q, fam.sq_scale) for group in fam.sq_lengths for q in group}
            probes = lengths | {q - F(1, 10**6) for q in lengths} | {F(rng.randint(1, 900), 100) for _ in range(5)}
            for t_sq in sorted(q for q in probes if q > 0):
                fresh = family_of(space, x, y, t_sq)
                assert fam.counts_at(t_sq) == (fresh.n, fresh.m, len(fresh.sq_lengths[2])), (x, y, t_sq)
                assert fam.within(t_sq) == fresh, (x, y, t_sq)
                rejected_seen = rejected_seen or bool(fresh.sq_lengths[2])
        assert rejected_seen or space.is_torus

    def test_above_family_rejected(self):
        fam = family_of(FlatSpace.unit_torus(), P(0, 0), P("1/2", 0), 4)
        assert fam.counts_at(4) == (fam.n, fam.m, 0)
        assert fam.within(4) == fam
        for read in (fam.counts_at, fam.within):
            with pytest.raises(DomainError):
                read(F(401, 100))
            with pytest.raises(DomainError):
                read(0)


class TestLatticeInts:
    @staticmethod
    def fraction_formula(space, p):
        (b1x, b1y), (b2x, b2y) = space.b1, space.b2
        det = b1x * b2y - b1y * b2x
        i, j = (b2y * p.x - b2x * p.y) / det, (b1x * p.y - b1y * p.x) / det
        den = math.lcm(i.denominator, j.denominator)
        return (int(i * den), int(j * den)), den

    def test_matches_fraction_formula(self):
        rng = random.Random(71)
        for _ in range(60):
            while True:
                entries = [F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(4)]
                if entries[0] * entries[3] != entries[1] * entries[2]:
                    break
            space = FlatSpace.torus(entries[:2], entries[2:])
            for _ in range(3):
                p = P(F(rng.randint(-20, 20), rng.randint(1, 12)), F(rng.randint(-20, 20), rng.randint(1, 12)))
                assert space._lattice_ints(p) == self.fraction_formula(space, p)


def affine_hits_scan_oracle(a1, a2, c1, c2):
    """Direct scan oracle for the incidence congruence solver."""
    if a1 == 0:
        a1, a2, c1, c2 = a2, a1, c2, c1
    lo, hi = (F(0), a1) if a1 > 0 else (a1, F(0))
    i_min = math.floor(lo - c1) + 1
    i_max = math.ceil(hi - c1) - 1
    hits = []
    for i in range(i_min, i_max + 1):
        s = (c1 + i) / a1
        if 0 < s < 1 and (s * a2 - c2).denominator == 1:
            hits.append(s)
    return sorted(set(hits))


def first_mark_hits(a1, a2, c1, c2, den=1):
    """The s in (0,1) with s*a = c (mod den) that ``_first_mark`` gives:
    the first mark j and its repeats j + den, ... below g, at s = j/g."""
    ray = _ray(a1, a2)
    j = _first_mark(ray, c1, c2, den)
    return [F(k, ray[0]) for k in range(j, ray[0], den)] if j else []


class TestFirstMark:
    def test_ray_is_primitive_with_bezout_pair(self):
        rng = random.Random(43)
        for a in [(1, 0), (0, -1), (-7, 0), (0, 12), (6, -4), (1, 1)] + [
            (rng.randint(-60, 60), rng.randint(-60, 60)) for _ in range(300)
        ]:
            if a == (0, 0):
                continue
            g, p1, p2, u, v = _ray(*a)
            assert g == math.gcd(*a) and (g * p1, g * p2) == a
            assert u * p1 + v * p2 == 1

    def test_against_scan_oracle(self):
        # the lemma's hit list, and the oracles' congruence solve behind it
        rng = random.Random(31)
        hits = 0
        for _ in range(400):
            a1 = F(rng.randint(-12, 12), rng.randint(1, 4))
            a2 = F(rng.randint(-12, 12), rng.randint(1, 4))
            if a1 == 0 and a2 == 0:
                continue
            c1 = F(rng.randint(-8, 8), rng.randint(1, 4))
            c2 = F(rng.randint(-8, 8), rng.randint(1, 4))
            # the lemma takes integers over their common denominator
            den = math.lcm(a1.denominator, a2.denominator, c1.denominator, c2.denominator)
            ints = [int(v * den) for v in (a1, a2, c1, c2)]
            expected = affine_hits_scan_oracle(a1, a2, c1, c2)
            assert affine_hits(*ints, den=den) == expected
            assert first_mark_hits(*ints, den=den) == expected
            hits += bool(expected)
        assert hits >= 40

    def test_large_direction_stays_fast(self):
        assert first_mark_hits(10**6, 10**6 - 1, 0, 0) == affine_hits_scan_oracle_large()
        # doubled, the direction meets one integer point, at s = 1/2
        assert _first_mark(_ray(2 * 10**6, 2 * 10**6 - 2), 0, 0, 1) == 1
        assert first_mark_hits(2 * 10**6, 2 * 10**6 - 2, 0, 0) == [F(1, 2)]
        assert affine_hits(2 * 10**6, 2 * 10**6 - 2, 0, 0) == [F(1, 2)]


def affine_hits_scan_oracle_large():
    # gcd(10^6, 10^6 - 1) = 1: the only simultaneous integer multiples inside
    # (0,1) are none
    return []


def incidence_scan_oracle(family, a, z):
    """Parameters s in (0,1) with x + s*v = g*z + lambda on the family's
    segment with displacement a, by a plain Fraction scan over the flips g
    (sign changes of the plane coordinates: the billiard's basis is
    diagonal) and a box of lattice vectors lambda.  The box holds the
    lattice coordinates of x + s*v - g*z for s in [0, 1]."""
    space, x, v = family.space, family.space._key_point(family.origin), displacement(family, a)
    (b1x, b1y), (b2x, b2y) = space.b1, space.b2
    det = b1x * b2y - b2x * b1y

    def coords(wx, wy):
        return (b2y * wx - b2x * wy) / det, (b1x * wy - b1y * wx) / det

    hits = set()
    for s1, s2 in space.group:
        gz = (s1 * z.x, s2 * z.y)
        start = coords(x.x - gz[0], x.y - gz[1])
        end = coords(x.x + v[0] - gz[0], x.y + v[1] - gz[1])
        box = [range(math.floor(min(a, b)), math.ceil(max(a, b)) + 1) for a, b in zip(start, end)]
        for i in box[0]:
            for j in box[1]:
                wx = gz[0] + i * b1x + j * b2x - x.x
                wy = gz[1] + i * b1y + j * b2y - x.y
                if wx * v[1] == wy * v[0]:
                    s = (wx * v[0] + wy * v[1]) / (v[0] * v[0] + v[1] * v[1])
                    if 0 < s < 1:
                        hits.add(s)
    return sorted(hits)


def table_fold(c):
    """A billiard coordinate folded into [0, 1]: mod 2, then reflected."""
    c %= 2
    return 2 - c if c > 1 else c


class TestPointOnGeodesic:
    @pytest.mark.parametrize("space", [
        FlatSpace.torus((1, 0), (F(1, 3), F(5, 4))),
        FlatSpace.square_billiard(),
    ])
    def test_against_scan_oracle(self, space):
        rng = random.Random(37)
        nonempty = 0
        for _ in range(150):
            if space.is_torus:
                x, y = random_point(rng, space), random_point(rng, space)
            else:
                x, y = (P(F(rng.randint(1, 6), 7), F(rng.randint(1, 6), 7)) for _ in range(2))
            fam, joining = joining_of(space, x, y, F(rng.randint(1, 6)))
            if not joining:
                continue
            a = rng.choice(joining)
            if rng.random() < 0.5:
                s = F(rng.randint(1, 5), 6)
                z = P(x.x + s * displacement(fam, a)[0], x.y + s * displacement(fam, a)[1])
            else:
                z = P(F(rng.randint(0, 12), 12), F(rng.randint(0, 12), 12))
            if not space.is_torus:
                z = P(table_fold(z.x), table_fold(z.y))
            # another representative: a lattice translate, on the billiard of a flip image
            i, j = rng.randint(-2, 2), rng.randint(-2, 2)
            s1, s2 = rng.choice(space.group)
            rep = P(s1 * z.x + i * space.b1[0] + j * space.b2[0], s2 * z.y + i * space.b1[1] + j * space.b2[1])
            if space.reduce_point(z) in (space.reduce_point(x), space.reduce_point(y)):
                with pytest.raises(DomainError):
                    point_on_geodesic(fam, a, z)
                continue
            expected = incidence_scan_oracle(fam, a, z)
            assert incidence_scan_oracle(fam, a, rep) == expected
            assert point_on_geodesic(fam, a, z) == expected
            assert _passes_through(fam, a, space.key(z)) == bool(expected)
            assert _passes_through(fam, a, space.key(rep)) == bool(expected)
            if space.is_torus:
                assert point_on_geodesic(fam, a, rep) == expected
            else:
                assert segment_hits(fam, a, space.key(rep)) == expected
                if not (0 <= rep.x <= 1 and 0 <= rep.y <= 1):
                    with pytest.raises(UnsupportedInputError):
                        point_on_geodesic(fam, a, rep)
            nonempty += bool(expected)
        assert nonempty >= 40

    def test_midpoint_of_short_arc(self):
        space = FlatSpace.unit_torus()
        fam = family_of(space, P(0, 0), P("1/2", 0), F(1, 4))
        a = next(a for a in fam.connecting if displacement(fam, a) == (F(1, 2), F(0)))
        assert point_on_geodesic(fam, a, P("1/4", 0)) == [F(1, 2)]
        # the opposite arc misses it
        other = next(a for a in fam.connecting if displacement(fam, a) == (F(-1, 2), F(0)))
        assert point_on_geodesic(fam, other, P("1/4", 0)) == []

    def test_wraparound_hit(self):
        space = FlatSpace.unit_torus()
        fam = family_of(space, P(0, 0), P(0, 0), 1)
        a = next(a for a in fam.connecting if displacement(fam, a) == (F(1), F(0)))
        assert point_on_geodesic(fam, a, P("1/2", 0)) == [F(1, 2)]

    def test_off_carrier(self):
        space = FlatSpace.unit_torus()
        fam = family_of(space, P(0, 0), P("1/2", 0), F(1, 4))
        assert point_on_geodesic(fam, fam.connecting[0], P(0, "1/2")) == []

    def test_endpoint_rejected(self):
        space = FlatSpace.unit_torus()
        fam = family_of(space, P(0, 0), P("1/2", 0), F(1, 4))
        with pytest.raises(DomainError):
            point_on_geodesic(fam, fam.connecting[0], P(0, 0))


class TestIntersections:
    def test_disjoint_interiors(self):
        space = FlatSpace.unit_torus()
        fam, segs = joining_of(space, P(0, 0), P("1/2", 0), 1)
        assert intersection_candidates(fam, segs[0], segs[1]) == []

    def test_common_endpoint_not_interior(self):
        space = FlatSpace.unit_torus()
        fam, segs = joining_of(space, P(0, 0), P(0, 0), 1)
        a = next(a for a in segs if displacement(fam, a) == (F(1), F(0)))
        b = next(a for a in segs if displacement(fam, a) == (F(0), F(1)))
        assert intersection_candidates(fam, a, b) == []

    def test_unreduced_endpoint_never_a_hit(self):
        # x = (1,0) folds to (0,0); segments passing through x or y must not report them
        space = FlatSpace.unit_torus()
        x, y = P(1, 0), P("1/2", 0)
        ends = {space.key(x), space.key(y)}
        fam, segs = joining_of(space, x, y, 16)
        assert fam.m < len(segs)
        for i, a in enumerate(segs):
            for b in segs[i + 1:]:
                assert not ends & {key for key, _ in crossing_points(fam, a, b)}
        # and the build, over the connecting segments, never offers one
        assert not ends & set(build_instance(fam).candidates)

    def test_diagonal_crossing(self):
        space = FlatSpace.unit_torus()
        fam, segs = joining_of(space, P(0, 0), P(0, 0), 2)
        a = next(a for a in segs if displacement(fam, a) == (F(1), F(1)))
        b = next(a for a in segs if displacement(fam, a) == (F(1), F(-1)))
        hits = crossing_points(fam, a, b)
        assert [key for key, _ in hits] == [space.key(P("1/2", "1/2"))]
        assert hits[0][1] == F(1, 2)
        # both segments cross there at their midpoints
        crossings = {(F(sn, sd), F(un, sd)) for key, sn, sd, un in intersection_candidates(fam, a, b)
                     if space._key_point(key) == P("1/2", "1/2")}
        assert crossings == {(F(1, 2), F(1, 2))}

    def test_transversal_against_slow_oracle(self):
        # solve u*w - s*h(v) = h(x) - x + lambda in the plane, flip by flip,
        # over a box of lattice vectors lambda
        rng = random.Random(23)
        for space in (FlatSpace.unit_torus(), SKEW, FlatSpace.square_billiard()):
            (b1x, b1y), (b2x, b2y) = space.b1, space.b2
            det = b1x * b2y - b1y * b2x
            inv_norm = math.hypot(*(float(c / det) for c in (b1x, b1y, b2x, b2y)))
            checked = 0
            for _ in range(25):
                x, y = random_point(rng, space), random_point(rng, space)
                fam, segs = joining_of(space, x, y, F(rng.randint(2, 8)))
                if len(segs) < 2:
                    continue
                a, b = rng.sample(segs, 2)
                v, w = displacement(fam, a), displacement(fam, b)
                got = {(F(sn, sd), F(un, sd)) for _, sn, sd, un in intersection_candidates(fam, a, b)}
                expected = set()
                for e1, e2 in space.group:
                    hv = (e1 * v[0], e2 * v[1])
                    cross = hv[0] * w[1] - hv[1] * w[0]
                    if cross == 0:
                        continue
                    off = (e1 * x.x - x.x, e2 * x.y - x.y)
                    reach = math.hypot(*map(float, v)) + math.hypot(*map(float, w)) + math.hypot(*map(float, off))
                    bound = int(inv_norm * reach) + 2
                    for i in range(-bound, bound + 1):
                        for j in range(-bound, bound + 1):
                            r = (off[0] + i * b1x + j * b2x, off[1] + i * b1y + j * b2y)
                            # u*w - s*hv = r by Cramer's rule
                            s = (w[0] * r[1] - w[1] * r[0]) / cross
                            u = (hv[0] * r[1] - hv[1] * r[0]) / cross
                            if 0 < s < 1 and 0 < u < 1:
                                expected.add((s, u))
                assert got == expected
                checked += bool(expected)
            assert checked >= 10

    def test_kernel_matches_box_scan_oracle(self):
        rng = random.Random(31)
        for space in (FlatSpace.unit_torus(), SKEW, FlatSpace.square_billiard()):
            for _ in range(6):
                x = random_point(rng, space)
                # y = x puts opposite wraps on one carrier, where neither side reports a crossing
                y = x if rng.random() < 0.3 else random_point(rng, space)
                fam, segs = joining_of(space, x, y, F(rng.randint(1, 10)))
                for a, b in itertools.permutations(segs, 2):
                    got = intersection_candidates(fam, a, b)
                    assert Counter(got) == Counter(reference_intersections(fam, a, b))

    def test_connecting_segments_never_overlap(self):
        # blocker's module docstring: two connecting segments on one carrier
        # coincide, reversed, and only when x = y.  Endpoints come from a grid
        # with wall points, kept where the space admits them.
        rng = random.Random(37)
        overlapping = 0
        for space in (FlatSpace.unit_torus(), FlatSpace.torus((1, 0), (F(1, 3), F(5, 4))),
                      FlatSpace.square_billiard()):
            steps = [plane_point(space, *c) for c in ((1, 0), (0, 1), (1, 1), (1, -1))]
            families = 0
            while families < 24:
                n = rng.choice((2, 3, 4, 6))
                x = P(F(rng.randint(0, n), n), F(rng.randint(0, n), n))
                draw = rng.randrange(3)
                if draw == 0:
                    y = x
                elif draw == 1:  # on a rational line through x
                    v, k = rng.choice(steps), F(rng.choice((-1, 1)) * rng.randint(1, 11), 24)
                    y = RationalPoint(x.x + k * v.x, x.y + k * v.y)
                else:
                    y = P(F(rng.randint(0, n), n), F(rng.randint(0, n), n))
                if not (space.admits_endpoint(space.key(x)) and space.admits_endpoint(space.key(y))):
                    continue
                families += 1
                fam = family_of(space, x, y, rng.randint(1, 20))
                for a, b in itertools.combinations(fam.connecting, 2):
                    overlaps = reference_overlaps(fam, a, b)
                    if overlaps:
                        overlapping += 1
                        assert space.key(x) == space.key(y)
                        assert set(overlaps) == {(0, 1)}
                        assert fam.key_at(a, 1, 2) == fam.key_at(b, 1, 2)
        assert overlapping > 0

    def test_rejects_one_segment_twice(self):
        fam = family_of(FlatSpace.unit_torus(), P(0, 0), P("1/2", 0), 1)
        with pytest.raises(DomainError, match="distinct"):
            intersection_candidates(fam, fam.connecting[0], fam.connecting[0])


class TestBilliard:
    def test_boundary_endpoint_rejected(self):
        space = FlatSpace.square_billiard()
        with pytest.raises(UnsupportedInputError):
            family_of(space, P(0, "1/2"), P("1/2", "1/2"), 1)

    def test_key_rule_matches_point_rule(self, tmp_path, capsys):
        # over the closed table: an endpoint is an interior point exactly when
        # no flip fixes its key
        space = FlatSpace.square_billiard()
        seen = 0
        for den in range(1, 9):
            for a in range(den + 1):
                for b in range(den + 1):
                    p = P(F(a, den), F(b, den))
                    interior = 0 < p.x < 1 and 0 < p.y < 1
                    assert space.admits_endpoint(space.key(p)) == interior, p
                    if interior:
                        assert space.validate_point(p) == space.key(p)
                    else:
                        with pytest.raises(UnsupportedInputError):
                            space.validate_point(p)
                    seen += 1
        assert seen > 200
        # off the table, points whose keys are interior: the fundamental
        # domain's box refuses them with the message bench/checks.py reads
        for p in (P("5/4", "1/2"), P("-1/4", "1/2")):
            assert space.admits_endpoint(space.key(p))
            message = rf"^billiard endpoints must be interior table points, got \({p.x},1/2\)$"
            with pytest.raises(UnsupportedInputError, match=message):
                space.validate_point(p)
        # a wall key fed back as an endpoint, as `recursion-check
        # configs/billiard.json` does with its (1/2,0) blocking point, exits 3
        with pytest.raises(UnsupportedInputError, match=r"interior table points, got \(1/2,0\)"):
            connecting_family(space, space.key(P("1/3", "1/3")), space.key(P("1/2", 0)), 1)
        config = Path(__file__).resolve().parent.parent / "configs" / "billiard.json"
        assert main(["recursion-check", "--config", str(config), "--out", str(tmp_path)]) == 3
        assert "got (1/2,0)" in capsys.readouterr().err

    def test_corner_hit_rejected(self):
        # from (1/4,1/4) to the (-,-,1,1) image of itself: passes (1,1) at s=1/2
        space = FlatSpace.square_billiard()
        x = P("1/4", "1/4")
        fam, joining = joining_of(space, x, x, 5)
        assert len(fam.sq_lengths[2]) >= 1
        # the image (-,-,1,1) is (7/4,7/4): displacement (3/2,3/2), lattice
        # coordinates (3/4,3/4), over x's denominator 8
        assert fam.origin[2] == 8 and (6, 6) not in joining

    def test_four_image_torus_consistency(self):
        # billiard joining counts = sum of 2x2-torus counts over the four
        # reflected images, whenever no corner rejection occurred
        rng = random.Random(29)
        billiard = FlatSpace.square_billiard()
        torus2 = FlatSpace.torus((2, 0), (0, 2))
        checked = 0
        while checked < 20:
            den = rng.choice([3, 5, 7])
            x = P(F(rng.randint(1, den - 1), den), F(rng.randint(1, den - 1), den))
            y = P(F(rng.randint(1, den - 1), den), F(rng.randint(1, den - 1), den))
            t_sq = F(rng.randint(1, 16))
            fam = family_of(billiard, x, y, t_sq)
            if fam.sq_lengths[2]:
                continue
            total = 0
            for s1 in (1, -1):
                for s2 in (1, -1):
                    img = RationalPoint(s1 * y.x, s2 * y.y)
                    total += count(torus2, x, img, t_sq)[0]
            assert fam.n == total
            checked += 1

    def test_billiard_blocking_hits(self):
        # the straight arc from (1/4,1/2) to (3/4,1/2) is blocked at the center
        space = FlatSpace.square_billiard()
        fam = family_of(space, P("1/4", "1/2"), P("3/4", "1/2"), F(1, 4))
        # the image y itself: displacement (1/2,0), lattice coordinates (1/4,0) over 8
        assert fam.origin[2] == 8 and (2, 0) in fam.connecting
        assert point_on_geodesic(fam, (2, 0), P("1/2", "1/2")) == [F(1, 2)]

    def test_reflected_segment_folds_back(self):
        # one bounce off the right wall: x=(1/2,1/4), y=(1/2,3/4) via image (-,+,1,0)
        space = FlatSpace.square_billiard()
        fam, joining = joining_of(space, P("1/2", "1/4"), P("1/2", "3/4"), 4)
        # the image (-,+,1,0) is (3/2,3/4): displacement (1,1/2), lattice
        # coordinates (1/2,1/4) over 8
        assert fam.origin[2] == 8 and (4, 2) in joining
        mid = point_at(fam, (4, 2), F(1, 2))
        assert mid == P(1 - F(1, 2), F(1, 2)) or mid.x <= 1
        hits = point_on_geodesic(fam, (4, 2), mid)
        assert F(1, 2) in hits


class TestConfigAndExport:
    def test_load_space(self):
        sp = load_space({"kind": "torus", "basis": ["1", "0", "1/2", "1/2"]})
        assert shortest_vector(sp)[1] == F(1, 2)
        assert load_space({"kind": "billiard"}).kind == "billiard"
        with pytest.raises(DomainError):
            load_space({"kind": "sphere"})
        with pytest.raises(DomainError):
            load_space({"kind": "torus", "basis": ["1", "0"]})

    def test_billiard_delta_convention(self):
        assert FlatSpace.square_billiard().delta_sq == F(1, 16)

    def test_torus_delta(self):
        assert FlatSpace.unit_torus().delta_sq == F(1, 4)
