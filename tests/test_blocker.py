import dataclasses
import hashlib
import itertools
import math
import random
import sys
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
    dual_bound,
    midpoint_cover,
    solve_exact,
    verify_cover,
)
from geoblock.errors import DomainError, GeoBlockError
from geoblock.flatspace import (
    FlatSpace,
    RationalPoint,
    _passes_through,
    connecting_family,
)
from geoblock.growth import kappa_from_squares
from geoblock.harness import ExperimentConfig
from helpers import family_of, instance_of, recursion_of
from oracles import (
    milp_minimum,
    pairwise_undominated,
    point_on_geodesic,
    reference_instance,
    reference_root_bound,
    reference_sampled_pairs,
)

P = RationalPoint.of
F = Fraction


def exhaustive_minimum(instance, upper):
    """Independent oracle: try all candidate subsets of size <= upper."""
    m = instance.family.m
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
    family = instance.family
    space = family.space
    out = []
    for p in map(space._key_point, instance.candidates):
        mask = 0
        for i, a in enumerate(family.connecting):
            if _passes_through(family, a, space.key(p)):
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
        inst = instance_of(space, P(0, 0), P("1/2", 0), 1)
        assert inst.family.m == 2
        assert inst.num_candidates == 2
        assert sorted(inst.covers) == [1, 2]

    def test_empty_family(self):
        space = FlatSpace.unit_torus()
        inst = instance_of(space, P(0, 0), P("1/2", 0), F(1, 100))
        assert inst.family.m == 0
        assert solve_exact(inst).size == 0

    def test_diagonal_candidate_present(self):
        space = FlatSpace.unit_torus()
        inst = instance_of(space, P(0, 0), P(0, 0), F(21, 10))
        assert P("1/2", "1/2") in map(space._key_point, inst.candidates)

    def test_covers_match_exact_recomputation(self):
        rng = random.Random(41)
        space = FlatSpace.unit_torus()
        for k in range(30):
            x = random_point(rng)
            # the last ten are loops, x = y: opposite wraps share their carrier
            y = random_point(rng) if k < 20 else x
            inst = instance_of(space, x, y, F(rng.randint(1, 6)))
            recomputed = recompute_covers(inst)
            # dedup keeps one representative per cover set, so compare as sets
            assert set(inst.covers) == set(recomputed)
            assert inst.covers == recomputed

    def test_billiard_covers_match_exact_recomputation(self):
        rng = random.Random(43)
        space = FlatSpace.square_billiard()
        for k in range(20):
            x = interior_point(rng)
            y = interior_point(rng) if k < 10 else x
            inst = instance_of(space, x, y, F(rng.randint(1, 4)))
            assert inst.covers == recompute_covers(inst)

    def test_no_candidate_equals_endpoint(self):
        rng = random.Random(47)
        space = FlatSpace.unit_torus()
        for _ in range(10):
            x, y = random_point(rng), random_point(rng)
            inst = instance_of(space, x, y, F(rng.randint(1, 8)))
            points = set(map(space._key_point, inst.candidates))
            assert space.reduce_point(x) not in points
            assert space.reduce_point(y) not in points


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
            family = family_of(space, x, y, F(rng.randint(1, 16)))
            inst = build_instance(family)
            assert (tuple(map(space._key_point, inst.candidates)), inst.covers) == reference_instance(family)

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
                assert isinstance(order(next(iter(keys)))[0], float)  # the float path
                assert sorted(keys, key=order) == sorted(keys, key=space._key_point)

    @pytest.mark.parametrize("space,x,y,t_sq,m,n,digest", [
        # the capped torus t=6 instance of the torus-verify benchmark
        (FlatSpace.unit_torus(), P("1/8", "1/8"), P("5/8", "3/8"), 36, 108, 5691,
         "6bcc4cae4c54e2e950054721a250b9107c7aedb1c9e059c4674d30d4f7fd8413"),
        (FlatSpace.square_billiard(), HARD_X, HARD_Y, 9, 27, 299,
         "777e7408fddac757ad2c081e9fbfe032f0df22739d9ea234290d6170ab353b1b"),
        # loops, x = y: each connecting segment shares its carrier with its reverse
        (FlatSpace.unit_torus(), P("1/8", "1/8"), P("1/8", "1/8"), 25, 48, 105,
         "5f627d9fe4855abb16e33371a4df603af8f48473319b2f87d9e7642c07257831"),
        (FlatSpace.square_billiard(), HARD_X, HARD_X, 9, 14, 21,
         "0542c658f1bf72df652289a5222b7a0c56b72120ca266e7dd40440fb9f975a97"),
    ])
    def test_largest_instances_pinned(self, space, x, y, t_sq, m, n, digest):
        # digests of the instances as built with RationalPoint keys throughout
        inst = instance_of(space, x, y, t_sq)
        assert (inst.family.m, inst.num_candidates) == (m, n)
        text = repr(([str(space._key_point(key)) for key in inst.candidates], inst.covers))
        assert hashlib.sha256(text.encode()).hexdigest() == digest


class TestSolveExact:
    def test_two_arc_needs_two_points(self):
        space = FlatSpace.unit_torus()
        inst = instance_of(space, P(0, 0), P("1/2", 0), 1)
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
                fam = family_of(space, x, y, t_sq)
                if not 1 <= fam.m <= 12:
                    continue
                inst = instance_of(space, x, y, t_sq)
                sol = solve_exact(inst)
                assert sol.optimal
                greedy = len(blocker._greedy_cover(inst.covers, (1 << inst.family.m) - 1))
                assert sol.size == exhaustive_minimum(inst, greedy)
                assert verify_cover(inst.family, sol.keys)
                checked += 1

    def test_matches_milp_on_billiard(self):
        cfg = ExperimentConfig.from_file(Path(__file__).resolve().parent.parent / "configs" / "billiard.json")
        cells = [(x, y, t * t) for x, y in cfg.pairs for t in cfg.t_grid]
        cells += [(HARD_X, HARD_Y, t * t) for t in (F(3), F(7, 2), F(4))]
        for x, y, t_sq in cells:
            inst = instance_of(cfg.flat_space(), x, y, t_sq)
            sol = solve_exact(inst)
            assert sol.optimal
            assert sol.size == milp_minimum(inst), (x, y, t_sq)

    def test_solution_reverifies_exactly(self):
        space = FlatSpace.unit_torus()
        inst = instance_of(space, P(0, 0), P("1/2", "1/2"), 4)
        sol = solve_exact(inst)
        for a in inst.family.connecting:
            assert any(point_on_geodesic(inst.family, a, space._key_point(z)) for z in sol.keys)

    def test_cap_fallback_not_optimal(self):
        # greedy 11 against the weights bound 10, the MILP optimum: the
        # capped answer stays uncertified
        inst = instance_of(FlatSpace.square_billiard(), HARD_X, HARD_Y, 9)
        sol = solve_exact(inst, SolverCaps(max_candidates=1, max_geodesics=2000))
        assert not sol.optimal
        assert (sol.lower_bound, sol.size) == (10, 11) and milp_minimum(inst) == 10
        assert dual_bound(inst, sol.weights) == 10
        assert verify_cover(inst.family, sol.keys)

    def test_node_budget_stops_uncertified(self, monkeypatch):
        # the covering LP of this instance is 8.86, so no root bound meets
        # the optimum 10 and the search runs into the budget; it keeps its
        # best cover so far, flagged uncertified over the root bound, as it
        # does stopped after 100 nodes
        inst = instance_of(FlatSpace.square_billiard(), HARD_X, P("5/6", "2/3"), 13)
        full = solve_exact(inst)
        assert not full.optimal and (full.lower_bound, full.size) == (9, 10)
        assert verify_cover(inst.family, full.keys) and milp_minimum(inst) == 10
        monkeypatch.setattr(blocker, "_MAX_NODES", 100)
        sol = solve_exact(inst)
        assert not sol.optimal
        assert sol.lower_bound == full.lower_bound and sol.size >= full.size
        assert verify_cover(inst.family, sol.keys)

    def test_capped_instance_certified_by_weights(self):
        # t = 7: 151 geodesics and 12,783 candidates, over the 5,000 cap, so
        # the greedy cover stands; the weights bound meets it
        inst = instance_of(FlatSpace.square_billiard(), HARD_X, HARD_Y, 49)
        assert (inst.family.m, inst.num_candidates) == (151, 12783)
        res = blocker._threshold(inst.family, SolverCaps(), None)
        assert res.certified and res.value == res.solution.lower_bound == 12
        assert dual_bound(inst, res.solution.weights) == 12

    def test_cap_certified_when_bounds_meet(self):
        space = FlatSpace.unit_torus()
        inst = instance_of(space, P(0, 0), P("1/2", 0), 4)
        sol = solve_exact(inst, SolverCaps(max_candidates=1, max_geodesics=2000))
        assert sol.optimal
        assert sol.size == sol.lower_bound == 4
        assert verify_cover(inst.family, sol.keys)

    def test_dominance_reduction_matches_pairwise_rule(self):
        rng = random.Random(61)
        for space, point in ((FlatSpace.unit_torus(), random_point),
                             (FlatSpace.square_billiard(), interior_point)):
            checked = 0
            while checked < 20:
                x, y = point(rng), point(rng)
                if x == y:
                    continue
                inst = instance_of(space, x, y, F(rng.randint(1, 12)))
                kept = blocker._undominated(inst.covers, inst.family.m)
                assert kept == pairwise_undominated(inst.covers), (x, y)
                checked += 1

    def test_root_bound_matches_reference(self, monkeypatch):
        # the integer one-pass loads against the bound's definition in
        # Fractions, uncapped and over every candidate when capped; with no
        # weights steps the root bound is that cheap bound alone
        monkeypatch.setattr(blocker, "_WEIGHT_STEPS", 0)
        rng = random.Random(79)
        dual_wins = 0
        for space, point in ((FlatSpace.unit_torus(), random_point),
                             (FlatSpace.torus((1, 0), (F(1, 3), F(5, 4))), random_point),
                             (FlatSpace.square_billiard(), interior_point)):
            checked = 0
            while checked < 16:
                x, y = point(rng), point(rng)
                t_sq = F(rng.randint(1, 24), rng.choice((1, 2, 3)))
                if x == y or not 1 <= family_of(space, x, y, t_sq).m <= 24:
                    continue
                inst = instance_of(space, x, y, t_sq)
                for caps in (SolverCaps(), SolverCaps(max_candidates=1)):
                    bound, packing, dual = reference_root_bound(inst, inst.num_candidates > caps.max_candidates)
                    assert solve_exact(inst, caps).lower_bound == bound, (space.kind, x, y, t_sq, caps)
                    dual_wins += packing < math.ceil(dual)
                checked += 1
        assert dual_wins >= 5

    def test_no_fractions_inside(self):
        # the enumeration box, the endpoint classification, the crossing
        # kernel, the covering bound and the cover check are integer-only: a
        # torus family makes one Fraction, parsing t^2, although n - m = 4 of
        # its segments pass through an endpoint, and the solve and its
        # re-check make none
        space = FlatSpace.unit_torus()
        x, y = space.key(P("1/8", "1/8")), space.key(P("5/8", "3/8"))
        made = [0]

        def count(frame, event, arg):
            if event == "call" and frame.f_code is Fraction.__new__.__code__:
                made[0] += 1

        def fractions_in(fn, *args):
            made[0] = 0
            sys.setprofile(count)
            try:
                result = fn(*args)
            finally:
                sys.setprofile(None)
            return result, made[0]

        fam, in_family = fractions_in(connecting_family, space, x, y, 16)
        assert (fam.n, fam.m, in_family) == (50, 46, 1)
        inst = build_instance(fam)
        sol, in_solve = fractions_in(solve_exact, inst)
        assert (inst.num_candidates, sol.size, sol.optimal, in_solve) == (682, 4, True, 0)
        blocked, in_check = fractions_in(verify_cover, inst.family, sol.keys)
        assert (blocked, in_check) == (True, 0)

    def test_lower_bound_sound(self):
        rng = random.Random(59)
        space = FlatSpace.unit_torus()
        for _ in range(10):
            x, y = random_point(rng), random_point(rng)
            if x == y:
                continue
            inst = instance_of(space, x, y, F(rng.randint(1, 5)))
            sol = solve_exact(inst)
            greedy = len(blocker._greedy_cover(inst.covers, (1 << inst.family.m) - 1))
            assert sol.lower_bound <= sol.size <= greedy


class TestDualCertificate:
    def test_weights_bound_between_reference_and_milp(self):
        # random torus, skew-torus and billiard instances: the weights bound
        # lies between the cheap root bound and the optimum, the solver
        # reports it only where it is higher, and the checker re-derives it,
        # uncapped and over every candidate when capped
        rng = random.Random(89)
        raised = 0
        for space, point in ((FlatSpace.unit_torus(), random_point),
                             (FlatSpace.torus((1, 0), (F(1, 3), F(5, 4))), random_point),
                             (FlatSpace.square_billiard(), interior_point)):
            checked = 0
            while checked < 12:
                x, y = point(rng), point(rng)
                t_sq = F(rng.randint(2, 30), rng.choice((1, 2)))
                if x == y or not 4 <= family_of(space, x, y, t_sq).m <= 30:
                    continue
                inst = instance_of(space, x, y, t_sq)
                full = (1 << inst.family.m) - 1
                greedy = len(blocker._greedy_cover(inst.covers, full))
                optimum = milp_minimum(inst)
                for caps in (SolverCaps(), SolverCaps(max_candidates=1)):
                    cheap = reference_root_bound(inst, inst.num_candidates > caps.max_candidates)[0]
                    cand_of = blocker._candidates_of(inst.covers, inst.family.m)
                    weights = blocker._weights_dual(inst.covers, cand_of, greedy)[0]
                    assert weights <= optimum, (space.kind, x, y, t_sq)
                    sol = solve_exact(inst, caps)
                    if sol.weights is None:
                        assert sol.lower_bound == cheap == max(cheap, min(weights, greedy))
                    else:
                        assert cheap < sol.lower_bound == dual_bound(inst, sol.weights) <= optimum
                        raised += 1
                    assert (sol.size == optimum) >= sol.optimal
                checked += 1
        assert raised >= 5

    def test_dual_bound_matches_definition(self):
        # small random weights, zeros included, against ceil(W / max load)
        # in Fractions over every candidate
        rng = random.Random(97)
        for space, point in ((FlatSpace.unit_torus(), random_point), (FlatSpace.square_billiard(), interior_point)):
            for _ in range(15):
                x, y = point(rng), point(rng)
                inst = instance_of(space, x, y, F(rng.randint(1, 12)))
                m = inst.family.m
                if x == y or not m:
                    continue
                weights = [rng.randint(0, 5) for _ in range(m)]
                weights[rng.randrange(m)] += 1
                most = max(sum(w for i, w in enumerate(weights) if mask >> i & 1) for mask in inst.covers)
                assert dual_bound(inst, weights) == math.ceil(Fraction(sum(weights), most))

    def test_checker_rejects_weights_that_do_not_certify(self, monkeypatch):
        solve = blocker.solve_exact
        inst = instance_of(FlatSpace.square_billiard(), HARD_X, HARD_Y, 9)
        sol = solve(inst)
        assert sol.optimal and sol.lower_bound == dual_bound(inst, sol.weights) == 10
        # every weight on geodesic 0: the checker finds a bound of 1, not 10
        monkeypatch.setattr(blocker, "solve_exact", lambda instance, caps=SolverCaps(): dataclasses.replace(
            solve(instance, caps), weights=(1,) + (0,) * (instance.family.m - 1)))
        with pytest.raises(GeoBlockError, match="weights do not certify"):
            blocking_threshold(FlatSpace.square_billiard(), HARD_X, HARD_Y, 9)


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
            fam = family_of(space, x, y, t_sq)
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
                if res.instance.family.m:
                    cover = midpoint_cover(res.instance.family)
                    assert verify_cover(res.instance.family, cover)

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
            return dataclasses.replace(sol, keys=sol.keys[1:])

        monkeypatch.setattr(blocker, "solve_exact", drop_first_point)
        with pytest.raises(GeoBlockError, match="does not block"):
            blocking_threshold(FlatSpace.unit_torus(), P(0, 0), P("1/2", 0), 1)

    def test_billiard_series_canonical(self):
        space = FlatSpace.square_billiard()
        res = blocking_threshold(space, HARD_X, HARD_Y, 9)
        assert res.certified
        # the first optimal cover in depth-first order; recursion.json depends on it
        assert res.solution.keys == tuple(space.key(P(*p)) for p in (
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
        a = blocking_cost_sampled(space, 16, sampler.pairs(space))
        b = blocking_cost_sampled(space, 16, sampler.pairs(space))
        assert a.value == b.value
        assert a.pairs == b.pairs
        per_pair = [blocking_threshold(space, p, q, 16) for p, q in a.pairs]
        assert all(res.certified for res in per_pair)
        assert a.value == max(res.value for res in per_pair)
        assert a.value <= 4

    def test_tiny_threshold_keeps_a_near_pair(self):
        space = FlatSpace.unit_torus()
        sampled = PairSampler(seed=1, count=5).pairs(space)
        # near-pair enrichment keeps a close pair in the sample, so the
        # lower bound is 1 (a single segment still needs one blocker)
        enriched = blocking_cost_sampled(space, F(1, 1000), sampled)
        assert enriched.value == 1

    def test_near_pairs_admitted(self):
        # a near pair's new point is q or lies on the open segment (p, q), so
        # it is admitted wherever the sampled points are
        for space in (FlatSpace.unit_torus(), FlatSpace.torus((1, 0), (F(1, 3), F(5, 4))),
                      FlatSpace.square_billiard()):
            for p, q in PairSampler(seed=3, count=12).pairs(space):
                for t_sq in (F(16), F(1), F(1, 4), F(1, 37), F(1, 1000)):
                    near = blocker._near_pair(p, q, t_sq)
                    assert near is not None and near[0] == p
                    assert space.admits_endpoint(space.validate_point(near[1]))

    def test_sampler_matches_the_two_kind_reference(self):
        # one rule read from the flipped axes draws what a torus sampler and
        # a billiard sampler drew, refusals included
        spaces = (FlatSpace.unit_torus(), FlatSpace.torus((1, 0), (F(1, 3), F(5, 4))),
                  FlatSpace.torus((2, 1), (F(-1, 2), F(7, 3))), FlatSpace.square_billiard())
        for space in spaces:
            for seed in range(60):
                for den in (2, 3, 5, 8, 13):
                    for count in (1, 4, 8):
                        expected = reference_sampled_pairs(space, seed, count, den)
                        try:
                            drawn = PairSampler(seed, count, den).pairs(space)
                        except GeoBlockError:
                            drawn = None
                        assert drawn == expected, (space.kind, seed, den, count)

    def test_families_read_within_match_fresh_enumeration(self, monkeypatch):
        # the sampled pairs' families enumerated once, at the largest t, give
        # the value and pairs that fresh enumerations at each t give, and
        # pairs whose m_t cannot beat the running max are not solved
        solved = []
        family_threshold = blocker._family_threshold

        def counted(family, caps):
            solved.append((family.x, family.y))
            return family_threshold(family, caps)

        for space in (FlatSpace.unit_torus(), FlatSpace.torus((1, 0), (F(1, 3), F(5, 4))),
                      FlatSpace.square_billiard()):
            sampled = PairSampler(seed=5, count=6).pairs(space)
            keys = {(space.key(p), space.key(q)) for p, q in sampled}
            top = F(25, 4)
            families = [family_of(space, p, q, top) for p, q in sampled]
            skipped = 0
            for t_sq in (F(1, 16), F(1, 4), F(9, 16), F(1), F(9, 4), F(4), top):
                fresh = blocking_cost_sampled(space, t_sq, sampled)
                monkeypatch.setattr(blocker, "_family_threshold", counted)
                solved.clear()
                read = blocking_cost_sampled(space, t_sq, sampled, families=families)
                monkeypatch.setattr(blocker, "_family_threshold", family_threshold)
                assert (read.value, read.pairs) == (fresh.value, fresh.pairs), (space.kind, t_sq)
                assert read.value == max(blocking_threshold(space, p, q, t_sq).value for p, q in read.pairs)
                skipped += len(sampled) - sum(pair in keys for pair in solved)
            assert skipped > 0, space.kind

    def test_ten_pair_sample_bounded_by_midpoints(self):
        space = FlatSpace.unit_torus()
        res = blocking_cost_sampled(space, 1, PairSampler(seed=7, count=10).pairs(space))
        per_pair = [blocking_threshold(space, p, q, 1).value for p, q in res.pairs]
        assert all(v <= 4 for v in per_pair)
        assert res.value == max(per_pair)


# the tori of the early-certificate tests: unit, skew and the (1/2,1/2) lattice
EARLY_TORI = (((1, 0), (0, 1)), ((1, 0), (F(1, 3), F(5, 4))), ((1, 0), (F(1, 2), F(1, 2))))


def full_threshold(space, x, y, t_sq, caps=SolverCaps()):
    """The threshold by the full build and solve, with no prefix certificate."""
    family = family_of(space, x, y, t_sq)
    return blocker._threshold(family, caps, midpoint_cover(family))


class TestEarlyCertificate:
    def test_value_path_matches_full_solve(self):
        rng = random.Random(83)
        early = 0
        for basis in EARLY_TORI:
            space = FlatSpace.torus(*basis)
            for _ in range(10):
                x = random_point(rng, 4)
                y = x if rng.random() < 0.2 else random_point(rng, 4)
                t_sq = F(rng.randint(1, 16))
                res = blocking_threshold(space, x, y, t_sq)
                full = full_threshold(space, x, y, t_sq)
                assert res.value == full.value, (basis, x, y, t_sq)
                assert res.certified or not full.certified
                assert res.family == full.family
                assert res.midpoint_upper == full.midpoint_upper
                # a prefix over the candidate cap certifies through its root bound only
                capped = blocking_threshold(space, x, y, t_sq, SolverCaps(max_candidates=2))
                assert capped.value >= full.value and (capped.value == full.value or not capped.certified)
                if res.instance.family.t_sq < t_sq:
                    # certified by a prefix: the midpoint cover blocks the full family
                    early += 1
                    assert res.certified and res.value == res.midpoint_upper
                    assert verify_cover(res.family, res.solution.keys)
        assert early >= 5

    def test_shipped_pairs_at_t8_certified_at_four(self):
        space = FlatSpace.unit_torus()
        for x, y in ((P(0, 0), P("1/2", 0)), (P(0, 0), P("1/2", "1/2")), (P("1/8", "1/8"), P("5/8", "3/8"))):
            res = blocking_threshold(space, x, y, 64)
            assert (res.value, res.certified) == (4, True)
            assert verify_cover(res.family, res.solution.keys)

    def test_capped_torus_value_at_most_midpoint_cover(self):
        rng = random.Random(89)
        caps = SolverCaps(max_candidates=2)
        gave_way = 0
        for basis in EARLY_TORI:
            space = FlatSpace.torus(*basis)
            for _ in range(12):
                den = rng.choice((3, 5, 6))
                x = random_point(rng, den)
                y = x if rng.random() < 0.2 else random_point(rng, den)
                res = full_threshold(space, x, y, F(rng.randint(1, 12)), caps)
                if res.midpoint_upper is None:
                    continue
                assert res.value <= res.midpoint_upper
                assert res.certified == (res.solution.lower_bound >= res.value)
                assert verify_cover(res.family, res.solution.keys)
                gave_way += solve_exact(res.instance, caps).size > res.value
        assert gave_way > 0

    def test_midpoint_key_check_matches_incidence(self):
        rng = random.Random(97)
        for basis in EARLY_TORI:
            space = FlatSpace.torus(*basis)
            for trial in range(12):
                x = random_point(rng, 6)
                y = x if trial % 4 == 0 else random_point(rng, 6)
                fam = family_of(space, x, y, F(rng.randint(1, 12)))
                cover = midpoint_cover(fam)
                assert len(cover) == 3 if space.key(x) == space.key(y) else 3 <= len(cover) <= 4
                mids = [fam.key_at(a, 1, 2) for a in fam.connecting]
                assert all(mid in cover for mid in mids) and verify_cover(fam, cover)
                # on any subset the key check stays sound: it implies blocking
                for drop in range(len(cover)):
                    kept = cover[:drop] + cover[drop + 1:]
                    if all(mid in kept for mid in mids):
                        assert verify_cover(fam, kept)

    def test_midpoint_cover_none_off_a_torus_or_empty(self):
        torus = FlatSpace.unit_torus()
        cover = midpoint_cover(family_of(torus, P(0, 0), P("1/2", 0), 1))
        assert cover == [torus.key(P(x, y)) for x in ("1/4", "3/4") for y in (0, "1/2")]
        assert midpoint_cover(family_of(torus, P(0, 0), P("1/2", 0), F(1, 100))) is None
        assert midpoint_cover(family_of(FlatSpace.square_billiard(), HARD_X, HARD_Y, 4)) is None

    def test_sampled_cost_is_max_of_full_thresholds(self):
        for basis in EARLY_TORI:
            space = FlatSpace.torus(*basis)
            for t_sq in (F(1, 4), 1, 2, 4):
                res = blocking_cost_sampled(space, t_sq, PairSampler(seed=11, count=6).pairs(space))
                assert res.value == max(full_threshold(space, p, q, t_sq).value for p, q in res.pairs)

    def test_prefix_certifies_through_its_lower_bound_only(self, monkeypatch):
        solve = blocker.solve_exact

        def loose(instance, caps=SolverCaps()):
            # the same cover, reported as a capped one under a weak root bound
            return dataclasses.replace(solve(instance, caps), optimal=False, lower_bound=0)

        monkeypatch.setattr(blocker, "solve_exact", loose)
        res = blocking_threshold(FlatSpace.unit_torus(), P(0, 0), P("1/2", "1/2"), 16)
        assert res.instance.family == res.family and not res.certified

    def test_family_over_geodesic_cap_raises_before_solving(self, monkeypatch):
        def no_solve(instance, caps=SolverCaps()):
            raise AssertionError("a prefix was solved")

        monkeypatch.setattr(blocker, "solve_exact", no_solve)
        with pytest.raises(GeoBlockError, match="exceeds cap"):
            blocking_threshold(FlatSpace.unit_torus(), P(0, 0), P("1/2", "1/2"), 16, SolverCaps(max_geodesics=10))


class TestRecursion:
    def test_below_injectivity_radius_vacuous(self):
        space = FlatSpace.unit_torus()
        rep = recursion_of(space, P(0, 0), P("1/4", 0), F(1, 16))
        assert rep.kappa == 0
        assert rep.passed
        assert len(rep.levels) == 1
        assert rep.levels[0].pairs == ((space.key(P(0, 0)), space.key(P("1/4", 0))),)

    def test_half_pair_full_tree(self):
        space = FlatSpace.unit_torus()
        rep = recursion_of(space, P(0, 0), P("1/2", 0), 1)
        assert rep.kappa == 2
        assert rep.passed and rep.certified
        reduc = [c for c in rep.checks if c.name.startswith("sub-count-sum")]
        assert len(reduc) == 3  # k = 0, 1, 2
        assert all(c.passed for c in reduc)

    def test_self_pair_t2(self):
        space = FlatSpace.unit_torus()
        rep = recursion_of(space, P(0, 0), P(0, 0), 4)
        assert rep.passed
        final = [c for c in rep.checks if c.name.startswith("root-count-vs-final-level")]
        assert len(final) == 1 and final[0].passed
        assert final[0].lhs == 8  # m_2(0,0) on the unit torus

    def test_kappa_from_squares(self):
        assert kappa_from_squares(F(1), F(1, 4)) == 2
        assert kappa_from_squares(F(1, 100), F(1, 4)) == 0
        with pytest.raises(DomainError):
            kappa_from_squares(F(0), F(1, 4))

    def test_points_only_at_the_edge(self, monkeypatch):
        # the root family folds the two endpoints and the report prints them
        # back; the solver, the cover check and every level in between run on keys
        calls = dict.fromkeys(("_lattice_ints", "_key_point"), 0)
        for name in calls:
            original = getattr(FlatSpace, name)

            def counted(self, *args, _name=name, _original=original):
                calls[_name] += 1
                return _original(self, *args)

            monkeypatch.setattr(FlatSpace, name, counted)
        rep = recursion_of(FlatSpace.unit_torus(), P("1/8", "1/8"), P("5/8", "3/8"), 4)
        assert rep.passed and rep.kappa == 3
        assert sum(len(lv.pairs) for lv in rep.levels) > 100
        assert calls == {"_lattice_ints": 2, "_key_point": 2}, calls

    def test_level_thresholds_halve(self):
        space = FlatSpace.unit_torus()
        rep = recursion_of(space, P(0, 0), P("1/2", 0), 4)
        for lv in rep.levels:
            assert lv.t_sq == F(4) / 4**lv.k


class TestExports:
    def test_recursion_json_inequalities(self):
        space = FlatSpace.unit_torus()
        rep = recursion_of(space, P(0, 0), P("1/2", 0), 1)
        data = rep.to_json()
        assert all({"name", "lhs", "rhs", "pass"} <= set(c) for c in data["checks"])
