import dataclasses
import hashlib
import itertools
import random
from fractions import Fraction
from pathlib import Path

import pytest

import geoblock.blocker as blocker
from geoblock.blocker import (
    PairSampler,
    SolverCaps,
    blocking_cost_sampled,
    blocking_threshold,
    build_instance,
    build_instance_from_family,
    midpoint_cover,
    recursion_harness,
    solve_exact,
    verify_cover,
)
from geoblock.errors import DomainError, GeoBlockError
from geoblock.flatspace import (
    FlatSpace,
    RationalPoint,
    connecting_family,
    _segment_hits,
)
from geoblock.growth import kappa_from_squares
from geoblock.harness import ExperimentConfig
from oracles import milp_minimum, pairwise_undominated, point_on_geodesic, reference_instance

P = RationalPoint.of
F = Fraction


def exhaustive_minimum(instance, upper):
    """Independent oracle: try all candidate subsets of size <= upper."""
    m = instance.num_geodesics
    if m == 0:
        return 0
    full = (1 << m) - 1
    for size in range(0, upper + 1):
        for combo in itertools.combinations(range(instance.num_candidates), size):
            mask = 0
            for c in combo:
                mask |= instance.covers[c]
            if mask == full:
                return size
    return upper + 1


def recompute_covers(instance):
    """Independent covers: exact incidence of every candidate with every segment."""
    space = instance.family.space
    segs = instance.family.connecting_segments()
    out = []
    for p in instance.candidates:
        mask = 0
        for i, seg in enumerate(segs):
            if _segment_hits(seg, space.key(p)):
                mask |= 1 << i
        out.append(mask)
    return tuple(out)


def random_point(rng, den=8):
    return RationalPoint(F(rng.randrange(den), den), F(rng.randrange(den), den))


def interior_point(rng, den=7):
    return RationalPoint(F(rng.randint(1, den - 1), den), F(rng.randint(1, den - 1), den))


# the (1/3,1/3) -> (2/3,1/5) billiard pair: its branch and bound is the deep one
HARD_X, HARD_Y = P("1/3", "1/3"), P("2/3", "1/5")


class TestBuildInstance:
    def test_two_arc_instance(self):
        space = FlatSpace.unit_torus()
        inst = build_instance(space, P(0, 0), P("1/2", 0), 1)
        assert inst.num_geodesics == 2
        assert inst.num_candidates == 2
        assert sorted(inst.covers) == [1, 2]

    def test_empty_family(self):
        space = FlatSpace.unit_torus()
        inst = build_instance(space, P(0, 0), P("1/2", 0), F(1, 100))
        assert inst.num_geodesics == 0
        assert solve_exact(inst).size == 0

    def test_diagonal_candidate_present(self):
        space = FlatSpace.unit_torus()
        inst = build_instance(space, P(0, 0), P(0, 0), F(21, 10))
        assert P("1/2", "1/2") in inst.candidates

    def test_covers_match_exact_recomputation(self):
        rng = random.Random(41)
        space = FlatSpace.unit_torus()
        for _ in range(20):
            x, y = random_point(rng), random_point(rng)
            if x == y:
                continue
            inst = build_instance(space, x, y, F(rng.randint(1, 6)))
            recomputed = recompute_covers(inst)
            # dedup keeps one representative per cover set, so compare as sets
            assert set(inst.covers) == set(recomputed)
            assert inst.covers == recomputed

    def test_billiard_covers_match_exact_recomputation(self):
        rng = random.Random(43)
        space = FlatSpace.square_billiard()
        for _ in range(10):
            x, y = interior_point(rng), interior_point(rng)
            if x == y:
                continue
            inst = build_instance(space, x, y, F(rng.randint(1, 4)))
            assert inst.covers == recompute_covers(inst)

    def test_no_candidate_equals_endpoint(self):
        rng = random.Random(47)
        space = FlatSpace.unit_torus()
        for _ in range(10):
            x, y = random_point(rng), random_point(rng)
            inst = build_instance(space, x, y, F(rng.randint(1, 8)))
            xr, yr = space.reduce_point(x), space.reduce_point(y)
            assert xr not in inst.candidates
            assert yr not in inst.candidates


    def test_matches_reference_build(self):
        # the integer-key build against the RationalPoint-keyed reference,
        # with torus base points often outside the fundamental domain
        spaces = [
            FlatSpace.unit_torus(),
            FlatSpace.torus((1, 0), (F(1, 3), F(5, 4))),
            FlatSpace.torus((F(2, 3), F(1, 5)), (F(-1, 2), F(7, 6))),
            FlatSpace.square_billiard(),
        ]
        rng = random.Random(59)
        for k in range(40):
            space = spaces[k % 4]
            if space.is_torus:
                x = RationalPoint(F(rng.randint(-12, 17), 6), F(rng.randint(-12, 17), 6))
                y = random_point(rng)
            else:
                x, y = interior_point(rng), interior_point(rng)
            family = connecting_family(space, x, y, F(rng.randint(1, 16)))
            inst = build_instance_from_family(family)
            assert (inst.candidates, inst.covers) == reference_instance(family)

    def test_point_order_exact_under_float_ties(self):
        # keys over a denominator near 10^20: the plane x-coordinates of a and
        # b differ by about 10^-20 and round to one double, so only the exact
        # order tells them apart.  On the diagonal bases b's y is larger,
        # which misleads a float order; on the skew basis the floats tie.
        den = 10**20 + 1
        i = den // 3
        skew = FlatSpace.torus((F(2, 3), F(1, 5)), (F(-1, 2), F(7, 6)))
        for space, jb in ((FlatSpace.unit_torus(), den - 7), (FlatSpace.square_billiard(), den - 7), (skew, 5)):
            a, b, c = (i + 1, 5, den), (i, jb, den), (i + 2, 1, den)

            def approx(key):
                X, Y, D = space._key_plane(key)
                return X / D, Y / D

            assert approx(a)[0] == approx(b)[0]
            exact = sorted((a, b, c), key=space._key_point)
            assert sorted((a, b, c), key=approx) != exact
            # the build takes the least point per cover set and sorts candidates by this key
            order = blocker._point_order(space, (a, b, c))
            assert sorted((a, b, c), key=order) == exact
            assert min((a, b), key=order) == b

    def test_point_order_random_small_denominators(self):
        rng = random.Random(73)
        for space in (FlatSpace.unit_torus(), FlatSpace.torus((F(2, 3), F(1, 5)), (F(-1, 2), F(7, 6))),
                      FlatSpace.square_billiard()):
            for _ in range(20):
                keys = set()
                for _ in range(rng.randint(1, 60)):
                    den = rng.randint(1, 500)
                    keys.add(space._fold_key(rng.randrange(den), rng.randrange(den), den))
                order = blocker._point_order(space, keys)
                assert order is not space._key_point
                assert sorted(keys, key=order) == sorted(keys, key=space._key_point)

    @pytest.mark.parametrize("space,x,y,t_sq,m,n,digest", [
        # the capped torus t=6 instance of the torus-verify benchmark
        (FlatSpace.unit_torus(), P("1/8", "1/8"), P("5/8", "3/8"), 36, 108, 5691,
         "6bcc4cae4c54e2e950054721a250b9107c7aedb1c9e059c4674d30d4f7fd8413"),
        (FlatSpace.square_billiard(), HARD_X, HARD_Y, 9, 27, 299,
         "777e7408fddac757ad2c081e9fbfe032f0df22739d9ea234290d6170ab353b1b"),
    ])
    def test_largest_instances_pinned(self, space, x, y, t_sq, m, n, digest):
        # digests of the instances as built with RationalPoint keys throughout
        inst = build_instance(space, x, y, t_sq)
        assert (inst.num_geodesics, inst.num_candidates) == (m, n)
        text = repr(([str(p) for p in inst.candidates], inst.covers))
        assert hashlib.sha256(text.encode()).hexdigest() == digest


class TestSolveExact:
    def test_two_arc_needs_two_points(self):
        space = FlatSpace.unit_torus()
        inst = build_instance(space, P(0, 0), P("1/2", 0), 1)
        sol = solve_exact(inst)
        assert sol.size == 2 and sol.optimal

    def test_matches_exhaustive_on_random_instances(self):
        rng = random.Random(53)
        for space, point in ((FlatSpace.unit_torus(), random_point),
                             (FlatSpace.square_billiard(), interior_point)):
            checked = 0
            while checked < 25:
                x, y = point(rng), point(rng)
                if x == y:
                    continue
                t_sq = F(rng.randint(1, 5))
                fam = connecting_family(space, x, y, t_sq)
                if not 1 <= fam.m <= 12:
                    continue
                inst = build_instance(space, x, y, t_sq)
                sol = solve_exact(inst)
                assert sol.optimal
                greedy = len(blocker._greedy_cover(inst.covers, (1 << inst.num_geodesics) - 1))
                assert sol.size == exhaustive_minimum(inst, greedy)
                assert verify_cover(inst, sol.points)
                checked += 1

    def test_matches_milp_on_billiard(self):
        cfg = ExperimentConfig.from_file(Path(__file__).resolve().parent.parent / "configs" / "billiard.json")
        cells = [(x, y, t * t) for x, y in cfg.pairs for t in cfg.t_grid]
        cells += [(HARD_X, HARD_Y, t * t) for t in (F(3), F(7, 2), F(4))]
        for x, y, t_sq in cells:
            inst = build_instance(cfg.flat_space(), x, y, t_sq)
            sol = solve_exact(inst)
            assert sol.optimal
            assert sol.size == milp_minimum(inst), (x, y, t_sq)

    def test_solution_reverifies_exactly(self):
        space = FlatSpace.unit_torus()
        inst = build_instance(space, P(0, 0), P("1/2", "1/2"), 4)
        sol = solve_exact(inst)
        for seg in inst.family.connecting_segments():
            assert any(point_on_geodesic(space, p, seg) for p in sol.points)

    def test_cap_fallback_not_optimal(self):
        # greedy 11 against a root bound of 9: the capped answer stays uncertified
        inst = build_instance(FlatSpace.square_billiard(), HARD_X, HARD_Y, 9)
        sol = solve_exact(inst, SolverCaps(max_candidates=1, max_geodesics=2000))
        assert not sol.optimal
        assert (sol.lower_bound, sol.size) == (9, 11)
        assert verify_cover(inst, sol.points)

    def test_cap_certified_when_bounds_meet(self):
        space = FlatSpace.unit_torus()
        inst = build_instance(space, P(0, 0), P("1/2", 0), 4)
        sol = solve_exact(inst, SolverCaps(max_candidates=1, max_geodesics=2000))
        assert sol.optimal
        assert sol.size == sol.lower_bound == 4
        assert verify_cover(inst, sol.points)

    def test_dominance_reduction_matches_pairwise_rule(self):
        rng = random.Random(61)
        for space, point in ((FlatSpace.unit_torus(), random_point),
                             (FlatSpace.square_billiard(), interior_point)):
            checked = 0
            while checked < 20:
                x, y = point(rng), point(rng)
                if x == y:
                    continue
                inst = build_instance(space, x, y, F(rng.randint(1, 12)))
                kept = blocker._undominated(inst.covers, inst.num_geodesics)
                assert kept == pairwise_undominated(inst.covers), (x, y)
                checked += 1

    def test_lower_bound_sound(self):
        rng = random.Random(59)
        space = FlatSpace.unit_torus()
        for _ in range(10):
            x, y = random_point(rng), random_point(rng)
            if x == y:
                continue
            inst = build_instance(space, x, y, F(rng.randint(1, 5)))
            sol = solve_exact(inst)
            greedy = len(blocker._greedy_cover(inst.covers, (1 << inst.num_geodesics) - 1))
            assert sol.lower_bound <= sol.size <= greedy


class TestThresholds:
    def test_example_values(self):
        space = FlatSpace.unit_torus()
        assert blocking_threshold(space, P(0, 0), P("1/2", 0), 1).value == 2
        assert blocking_threshold(space, P(0, 0), P("1/2", 0), F(1, 100)).value == 0

    def test_midpoint_cover_is_upper_bound(self):
        space = FlatSpace.unit_torus()
        res = blocking_threshold(space, P(0, 0), P("1/2", "1/2"), 36)
        assert res.midpoint_upper is not None and res.midpoint_upper <= 4
        assert 1 <= res.value <= 4

    def test_chain_s_le_m_le_n(self):
        rng = random.Random(61)
        space = FlatSpace.unit_torus()
        for _ in range(12):
            x, y = random_point(rng), random_point(rng)
            if x == y:
                continue
            t_sq = F(rng.randint(1, 9))
            fam = connecting_family(space, x, y, t_sq)
            res = blocking_threshold(space, x, y, t_sq)
            assert res.value <= fam.m <= fam.n

    def test_threshold_at_most_four_on_torus(self):
        rng = random.Random(67)
        for basis in (((1, 0), (0, 1)), ((1, 0), (F(1, 2), F(1, 2)))):
            space = FlatSpace.torus(*basis)
            for _ in range(8):
                x = random_point(rng, 6)
                y = random_point(rng, 6)
                res = blocking_threshold(space, x, y, F(rng.randint(1, 9)))
                assert res.value <= 4
                if res.instance.num_geodesics:
                    cover = midpoint_cover(res.instance.family)
                    assert verify_cover(res.instance, cover)

    def test_monotone_in_t(self):
        rng = random.Random(71)
        space = FlatSpace.unit_torus()
        for _ in range(6):
            x, y = random_point(rng), random_point(rng)
            if x == y:
                continue
            values = [
                blocking_threshold(space, x, y, t_sq).value
                for t_sq in (F(1, 2), 1, 2, 4, 8)
            ]
            assert values == sorted(values)

    def test_billiard_threshold(self):
        space = FlatSpace.square_billiard()
        res = blocking_threshold(space, P("1/4", "1/2"), P("3/4", "1/2"), F(1, 4))
        assert res.value == 1  # single direct arc, one point suffices
        assert res.midpoint_upper is None

    def test_non_blocking_solution_rejected(self, monkeypatch):
        solve = blocker.solve_exact

        def drop_first_point(instance, caps=SolverCaps()):
            sol = solve(instance, caps)
            return dataclasses.replace(sol, points=sol.points[1:])

        monkeypatch.setattr(blocker, "solve_exact", drop_first_point)
        with pytest.raises(GeoBlockError, match="does not block"):
            blocking_threshold(FlatSpace.unit_torus(), P(0, 0), P("1/2", 0), 1)

    def test_billiard_series_canonical(self):
        space = FlatSpace.square_billiard()
        res = blocking_threshold(space, HARD_X, HARD_Y, 9)
        assert res.certified
        # the first optimal cover in depth-first order; recursion.json depends on it
        assert res.solution.points == tuple(P(*p) for p in (
            ("1/12", "1/5"), ("1/12", "3/10"), ("2/5", "67/225"), ("5/11", "23/45"),
            ("1/2", "1/15"), ("1/2", "4/15"), ("1/2", "11/15"), ("1/2", "14/15"),
            ("7/12", "3/10"), ("5/6", "11/15"),
        ))
        for t_sq, s in ((F(49, 4), 11), (F(16), 12)):
            res = blocking_threshold(space, HARD_X, HARD_Y, t_sq)
            assert (res.value, res.certified) == (s, True)


class TestSampledCost:
    def test_deterministic_for_fixed_seed(self):
        space = FlatSpace.unit_torus()
        sampler = PairSampler(seed=42, count=25, denominator=8)
        a = blocking_cost_sampled(space, 16, sampler)
        b = blocking_cost_sampled(space, 16, sampler)
        assert a.value == b.value
        assert a.pairs == b.pairs
        per_pair = [blocking_threshold(space, p, q, 16) for p, q in a.pairs]
        assert all(res.certified for res in per_pair)
        assert a.value == max(res.value for res in per_pair)
        assert a.value <= 4

    def test_tiny_threshold_keeps_a_near_pair(self):
        space = FlatSpace.unit_torus()
        sampler = PairSampler(seed=1, count=5)
        # near-pair enrichment keeps a close pair in the sample, so the
        # lower bound is 1 (a single segment still needs one blocker)
        enriched = blocking_cost_sampled(space, F(1, 1000), sampler)
        assert enriched.value == 1

    def test_ten_pair_sample_bounded_by_midpoints(self):
        space = FlatSpace.unit_torus()
        sampler = PairSampler(seed=7, count=10)
        res = blocking_cost_sampled(space, 1, sampler)
        per_pair = [blocking_threshold(space, p, q, 1).value for p, q in res.pairs]
        assert all(v <= 4 for v in per_pair)
        assert res.value == max(per_pair)


class TestRecursion:
    def test_below_injectivity_radius_vacuous(self):
        space = FlatSpace.unit_torus()
        rep = recursion_harness(space, P(0, 0), P("1/4", 0), F(1, 16))
        assert rep.kappa == 0
        assert rep.passed
        assert len(rep.levels) == 1
        assert rep.levels[0].pairs == ((P(0, 0), P("1/4", 0)),)

    def test_half_pair_full_tree(self):
        space = FlatSpace.unit_torus()
        rep = recursion_harness(space, P(0, 0), P("1/2", 0), 1)
        assert rep.kappa == 2
        assert rep.passed and rep.certified
        reduc = [c for c in rep.checks if c.name.startswith("sub-count-sum")]
        assert len(reduc) == 3  # k = 0, 1, 2
        assert all(c.passed for c in reduc)

    def test_self_pair_t2(self):
        space = FlatSpace.unit_torus()
        rep = recursion_harness(space, P(0, 0), P(0, 0), 4)
        assert rep.passed
        final = [c for c in rep.checks if c.name.startswith("root-count-vs-final-level")]
        assert len(final) == 1 and final[0].passed
        assert final[0].lhs == 8  # m_2(0,0) on the unit torus

    def test_kappa_from_squares(self):
        assert kappa_from_squares(F(1), F(1, 4)) == 2
        assert kappa_from_squares(F(1, 100), F(1, 4)) == 0
        with pytest.raises(DomainError):
            kappa_from_squares(F(0), F(1, 4))

    def test_level_thresholds_halve(self):
        space = FlatSpace.unit_torus()
        rep = recursion_harness(space, P(0, 0), P("1/2", 0), 4)
        for lv in rep.levels:
            assert lv.t_sq == F(4) / 4**lv.k


class TestExports:
    def test_recursion_json_inequalities(self):
        space = FlatSpace.unit_torus()
        rep = recursion_harness(space, P(0, 0), P("1/2", 0), 1)
        data = rep.to_json()
        assert all({"name", "lhs", "rhs", "pass"} <= set(c) for c in data["checks"])
