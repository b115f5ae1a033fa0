import json
import math
import random
from importlib import resources

import numpy as np
import pytest

from geoblock.errors import BudgetExceededError, DomainError, UnsupportedInputError
from geoblock.growth import GrowthSeries, rate_estimate
from geoblock.hyperbolic import (
    FuchsianPreset,
    MobiusMatrix,
    _bisector_polygon,
    _gen_arrays,
    _products,
    blocking_lower_bound_series,
    builtin_presets,
    certified_blocking_lower_bound,
    hyp_distance,
    load_preset,
    orbit_count,
    uniform_count_bound,
    word_growth,
)
from helpers import series_from_function
from oracles import reference_orbit_count


def octagon_data():
    """The shipped octagon preset as its JSON dict, to edit one key."""
    return json.loads((resources.files("geoblock.presets") / "octagon_genus2.json").read_text())


def brute_reduced_words(rank, n):
    """Independent enumeration of reduced words in the free group."""
    letters = list(range(2 * rank))  # 2i and 2i+1 are inverse to each other
    inverse = {i: i ^ 1 for i in letters}
    total = 1
    frontier = [(l,) for l in letters]
    total += len(frontier)
    for _ in range(n - 1):
        nxt = []
        for w in frontier:
            for l in letters:
                if l != inverse[w[-1]]:
                    nxt.append(w + (l,))
        total += len(nxt)
        frontier = nxt
    return total if n >= 1 else 1


def brute_l1_ball(rank, n):
    if rank == 0:
        return 1
    total = 0
    def rec(dims, budget):
        if dims == 1:
            return 2 * budget + 1
        s = 0
        for v in range(-budget, budget + 1):
            s += rec(dims - 1, budget - abs(v))
        return s
    return rec(rank, n)


class TestDistance:
    def test_zero(self):
        assert hyp_distance(1j, 1j) == 0.0

    def test_axis_formula(self):
        # d(a*i, b*i) = log(b/a), cross-checked against the cosh formula
        assert hyp_distance(1j, 4j) == pytest.approx(math.log(4), abs=1e-12)
        d = hyp_distance(0.5j, 3j)
        cosh_d = 1 + abs(0.5j - 3j) ** 2 / (2 * 0.5 * 3)
        assert d == pytest.approx(math.acosh(cosh_d), abs=1e-12)

    def test_isometry_invariance(self):
        rng = random.Random(3)
        preset = load_preset("octagon_genus2")
        for _ in range(30):
            g = preset.generators[rng.randrange(4)]
            z = complex(rng.uniform(-2, 2), rng.uniform(0.2, 3))
            w = complex(rng.uniform(-2, 2), rng.uniform(0.2, 3))
            assert hyp_distance(g.apply(z), g.apply(w)) == pytest.approx(
                hyp_distance(z, w), abs=1e-10
            )

    def test_domain(self):
        with pytest.raises(DomainError):
            hyp_distance(1j, 1 - 1j)


class TestPresets:
    def test_builtin_list(self):
        names = builtin_presets()
        assert "octagon_genus2" in names and "schottky_rank2" in names

    def test_octagon_validates(self):
        preset = load_preset("octagon_genus2")
        assert preset.kind == "cocompact"
        # the area 4 pi (g - 1) comes from the relator's 4g = 8 letters
        assert preset.surface_area == pytest.approx(4 * math.pi)
        # relator really evaluates to +-identity
        r = preset.evaluate_word(preset.relator)
        ident = MobiusMatrix(1, 0, 0, 1)
        assert r.close_to(ident, 1e-9)

    def test_schottky_validates_ping_pong(self):
        preset = load_preset("schottky_rank2")
        assert preset.kind == "schottky"
        circles = [g.isometric_circle() for _, g in preset.gens_with_inverses()]
        for i in range(len(circles)):
            for j in range(i + 1, len(circles)):
                (c1, r1), (c2, r2) = circles[i], circles[j]
                assert abs(c1 - c2) > r1 + r2

    def test_generators_hyperbolic(self):
        for name in builtin_presets():
            preset = load_preset(name)
            for g in preset.generators:
                assert abs(g.trace) > 2

    def test_bad_relator_rejected(self):
        with pytest.raises(DomainError, match="relator"):
            FuchsianPreset.from_json({**octagon_data(), "name": "broken", "relator": "a1 b1"})

    def test_cocompact_needs_positive_systole(self):
        # the orbit-point dedup derives its tolerance from the systole
        data = octagon_data()
        del data["systole"]
        with pytest.raises(DomainError, match="systole"):
            FuchsianPreset.from_json(data)
        with pytest.raises(DomainError, match="systole"):
            FuchsianPreset.from_json({**data, "systole": 0.0})

    def test_cocompact_needs_its_polygon(self):
        # orbit_count's cutoff rests on the Dirichlet domain at the centre
        data = octagon_data()
        with pytest.raises(DomainError, match="centre"):
            FuchsianPreset.from_json({k: v for k, v in data.items() if k != "centre"})
        with pytest.raises(DomainError, match="upper half-plane"):
            FuchsianPreset.from_json({**data, "centre": [0.0, -1.0]})
        # about these points the generators' bisectors cut out no compact
        # polygon or, 0.01 from i, one larger than the surface
        for centre in ([0.5, 1.0], [2.0, 1.0], [0.0, math.exp(1.5)], [0.01, 1.0]):
            with pytest.raises(DomainError, match="not the Dirichlet domain"):
                FuchsianPreset.from_json({**data, "centre": centre})

    def test_octagon_polygon_closed_form(self):
        # the regular octagon about i: 8 sides, interior angles pi/4, and its
        # farthest vertex at arccosh(cot^2(pi/8))
        preset = load_preset("octagon_genus2")
        polygon = _bisector_polygon(preset.centre, preset.gens_with_inverses())
        assert len(polygon) == 8
        for _, angle in polygon:
            assert angle == pytest.approx(math.pi / 4, abs=1e-12)
        farthest = max(math.atanh(abs(vertex)) for vertex, _ in polygon)
        assert farthest == pytest.approx(math.acosh(1.0 / math.tan(math.pi / 8) ** 2), abs=1e-9)

    def test_unknown_preset(self):
        with pytest.raises(DomainError):
            load_preset("no_such_preset")

    def test_bad_determinant_rejected(self, tmp_path):
        # doubling a generator's first row doubles its determinant to 2
        data = octagon_data()
        a, b, c, d = data["generators"][0]
        data["generators"][0] = [2 * a, 2 * b, c, d]
        path = tmp_path / "bad_det.json"
        path.write_text(json.dumps(data))
        with pytest.raises(DomainError, match="determinant"):
            load_preset(path)


class TestWordGrowth:
    @pytest.mark.parametrize("n,expected", [(0, 1), (1, 5), (3, 53)])
    def test_free_rank2_examples(self, n, expected):
        assert word_growth("free", 2, n) == expected

    def test_free_matches_brute_enumeration(self):
        for rank in (1, 2, 3):
            for n in range(1, 9):
                assert word_growth("free", rank, n) == brute_reduced_words(rank, n)

    def test_abelian_examples(self):
        assert word_growth("abelian", 2, 2) == 13

    def test_abelian_matches_lattice_scan(self):
        for rank in (1, 2, 3):
            for n in range(0, 7):
                assert word_growth("abelian", rank, n) == brute_l1_ball(rank, n)

    def test_domain(self):
        with pytest.raises(DomainError):
            word_growth("free", 0, 3)
        with pytest.raises(DomainError):
            word_growth("solvable", 2, 3)


class TestSchottkyOrbit:
    def test_counts_by_word_length_match_free_formula(self):
        preset = load_preset("schottky_rank2")
        x = y = 0.2 + 1.1j
        # word length L contributes 4 * 3^(L-1) new elements; with a huge radius
        # no displacement cutoff binds, so a word budget of L counts them all
        for L in range(0, 7):
            res = orbit_count(preset, x, y, [60.0], max_word_len=L)
            assert res.ball.count_series[0][1] == word_growth("free", 2, L)

    def test_identity_counts_at_zero(self):
        preset = load_preset("schottky_rank2")
        res = orbit_count(preset, 1j, 1j, [0.0, 1.0], max_word_len=3)
        assert res.ball.count_series[0] == (0.0, 1)

    def test_series_nondecreasing(self):
        preset = load_preset("schottky_rank2")
        res = orbit_count(preset, 1j, 1j, [1.0, 3.0, 5.0, 7.0])
        counts = [c for _, c in res.ball.count_series]
        assert counts == sorted(counts)

    def test_isometry_invariance_of_counts(self):
        preset = load_preset("schottky_rank2")
        g = preset.generators[0]
        x, y = 0.3 + 1.2j, -0.2 + 0.9j
        a = orbit_count(preset, x, y, [4.0, 6.0])
        b = orbit_count(preset, g.apply(x), g.apply(y), [4.0, 6.0])
        assert a.ball.count_series == b.ball.count_series

    def test_word_budget_flags_uncertified_t(self):
        # words of length 3 stop far short of radius 40: the unexpanded
        # frontier bounds the certified range
        preset = load_preset("schottky_rank2")
        res = orbit_count(preset, 1j, 1j, [1.0, 40.0], max_word_len=3)
        assert 1.0 < res.certified_t < 40.0
        assert res.certified == (True, False)


@pytest.fixture(scope="module")
def octagon_ball():
    preset = load_preset("octagon_genus2")
    grid = [float(t) for t in np.linspace(2.0, 8.0, 25)]
    return preset, orbit_count(preset, 0.03 + 0.97j, 0.03 + 0.97j, grid)


class TestCocompactOrbit:
    def test_fully_certified(self, octagon_ball):
        _, res = octagon_ball
        assert all(res.certified)

    def test_counts_track_ball_area(self, octagon_ball):
        # area model: N(t) ~ 2 pi (cosh t - 1) / (4 pi)
        _, res = octagon_ball
        for t, c in res.ball.count_series:
            if t < 5:
                continue
            model = (math.cosh(t) - 1) / 2
            assert 0.5 * model <= c <= 2.0 * model

    def test_counts_stable_under_bigger_slack(self):
        # the reference expands within t_max + 4.06 at this base point, the
        # library within t_max + 0.09
        preset = load_preset("octagon_genus2")
        grid = [3.0, 4.0, 5.0, 6.0]
        res = orbit_count(preset, 0.03 + 0.97j, 0.03 + 0.97j, grid)
        _, disp, _ = reference_orbit_count(preset, 0.03 + 0.97j, 0.03 + 0.97j, grid[-1])
        assert res.ball.count_series == tuple((t, int(np.sum(disp <= t))) for t in grid)

    def test_products_match_einsum_bitwise(self):
        # the BFS multiplies matrices without np.einsum; the rounding, signed
        # zeros included, must stay the einsum's
        gen_mats, _ = _gen_arrays(load_preset("octagon_genus2"))
        rng = np.random.default_rng(5)
        mats = rng.standard_normal((5000, 2, 2)) * np.exp(rng.uniform(-20, 20, (5000, 2, 2)))
        mats[:50] = -0.0
        mats[50:100, :, 1] = 0.0
        want = np.einsum("fij,gjk->fgik", mats, gen_mats)
        assert np.array_equal(_products(mats, gen_mats).view(np.int64), want.view(np.int64))

    def test_dedup_tolerance_robust(self, octagon_ball):
        # distinct stored elements are far apart compared to the tolerance,
        # in the ball the reference keeps at the fixture's parameters
        preset, res = octagon_ball
        mats, disp, _ = reference_orbit_count(preset, 0.03 + 0.97j, 0.03 + 0.97j, 8.0)
        assert np.array_equal(disp, res.ball.displacements)
        mats = mats[:200].reshape(-1, 4)
        for i in range(0, len(mats), 20):
            d_plus = np.abs(mats - mats[i]).max(axis=1)
            d_minus = np.abs(mats + mats[i]).max(axis=1)
            d = np.minimum(d_plus, d_minus)
            d[i] = np.inf
            assert d.min() > 1e-3

    def test_tiny_systole_trips_dedup_guard(self):
        # a systole of 1e-12 would put the dedup tolerance below the float
        # error, so the count refuses to run instead of merging elements
        preset = FuchsianPreset.from_json({**octagon_data(), "systole": 1e-12})
        with pytest.raises(BudgetExceededError, match="dedup"):
            orbit_count(preset, 0.03 + 0.97j, 0.03 + 0.97j, [3.0])

    def test_count_at_10_matches_lattice_asymptotic(self):
        # Lax-Phillips: N(t) ~ pi e^t / A with A = 4 pi
        preset = load_preset("octagon_genus2")
        res = orbit_count(preset, 0.03 + 0.97j, 0.03 + 0.97j, [10.0])
        assert res.ball.count_series == ((10.0, 5465),)
        assert res.ball.count_series[0][1] == pytest.approx(math.exp(10) / 4, rel=0.01)

    def test_counts_at_large_t(self):
        # pinned from counts made with a cutoff wider by the polygon's
        # circumradius 2.448; t = 13 is within 1% of Lax-Phillips too
        preset = load_preset("octagon_genus2")
        res = orbit_count(preset, 0.03 + 0.97j, 0.03 + 0.97j, [11.0, 12.0, 13.0])
        assert res.ball.count_series == ((11.0, 15293), (12.0, 40929), (13.0, 109665))
        assert all(res.certified)
        assert res.ball.count_series[-1][1] == pytest.approx(math.exp(13) / 4, rel=0.01)



def _equivalence_cases():
    """Seeded base points near the polygon's centre i and their images under
    a generator and under a word of length two; base points 1.5 from i;
    Schottky cases; and x 4.5 from i with y near it, where the cutoff's
    d(x, c) + d(y, c) term is the larger.  The budget cases run out of word
    budget."""
    rng = random.Random(2007)
    octagon, schottky = load_preset("octagon_genus2"), load_preset("schottky_rank2")

    def near(height=1.0):
        # near height * i
        return height * complex(rng.uniform(-0.1, 0.1), rng.uniform(0.9, 1.1))

    g = octagon.generators[rng.randrange(4)]
    w = octagon.evaluate_word("a1 b2")
    return [
        (octagon, near(), near(), 7.0, 24),
        (octagon, near(), near(), 6.5, 3),
        (octagon, g.apply(near()), g.apply(near()), 5.0, 24),
        (octagon, w.apply(near()), w.apply(near()), 4.5, 24),
        (octagon, near(math.exp(1.5)), near(math.exp(1.5)), 5.0, 24),
        (schottky, near(), near(), 6.0, 24),
        (schottky, near(), near(), 60.0, 4),
        (octagon, near(math.exp(4.5)), near(), 4.0, 24),
    ]


@pytest.mark.parametrize(
    "preset, x, y, t, max_word_len", _equivalence_cases(),
    ids=["near", "near-budget", "generator", "word2", "far", "schottky", "schottky-budget", "far-x"],
)
def test_matches_reference_orbit_count(preset, x, y, t, max_word_len):
    # the reference searches within the generator-displacement slack plus a
    # margin and deduplicates child by child; every output must agree bit for bit
    res = orbit_count(preset, x, y, [t / 2, t], max_word_len=max_word_len)
    _, disp, certified_t = reference_orbit_count(preset, x, y, t, max_word_len)
    assert np.array_equal(res.ball.displacements.view(np.int64), disp.view(np.int64))
    assert res.certified_t == certified_t
    assert res.ball.count_series == ((t / 2, int(np.sum(disp <= t / 2))), (t, len(disp)))


class TestEntropy:
    def test_ball_area_rate_is_one(self):
        series = series_from_function(
            lambda t: 2 * math.pi * (math.cosh(t) - 1), np.linspace(1, 20, 60)
        )
        cls = rate_estimate(series, "exponential")
        assert cls.parameter == pytest.approx(1.0, abs=0.05)

    def test_flat_counts_rate_near_zero(self):
        from geoblock.flatspace import FlatSpace, RationalPoint, count

        space = FlatSpace.unit_torus()
        origin = RationalPoint.of(0, 0)
        pairs = []
        for t in range(5, 101, 5):
            n, _ = count(space, origin, origin, t * t)
            pairs.append((float(t), float(n)))
        cls = rate_estimate(GrowthSeries.from_pairs(pairs), "exponential")
        assert cls.parameter <= 0.05

    def test_constant_series_rate_zero(self):
        series = series_from_function(lambda t: 7.0, range(1, 40))
        assert rate_estimate(series, "exponential").parameter == pytest.approx(0.0, abs=1e-9)


class TestUniformBound:
    def test_degenerate_floor(self):
        degenerate = FuchsianPreset.from_json({**octagon_data(), "name": "flat-dome", "D": 0.0})
        assert uniform_count_bound(degenerate, 0.0, "rigorous").value == 1.0

    def test_closed_form_genus2(self):
        preset = load_preset("octagon_genus2")
        u = uniform_count_bound(preset, 5.0, "rigorous")
        expected = (math.cosh(5.0 + 2 * preset.diameter) - 1) / 2
        assert u.value == pytest.approx(expected, rel=1e-12)
        assert u.certified

    def test_stated_area_ignored(self):
        # the bound divides by the area the relator fixes, not a stated one:
        # a preset claiming "A" = 8 pi gets the shipped octagon's bound
        preset = load_preset("octagon_genus2")
        doubled = FuchsianPreset.from_json({**octagon_data(), "name": "double-area", "A": 8 * math.pi})
        u1 = uniform_count_bound(preset, 5.0, "rigorous")
        u2 = uniform_count_bound(doubled, 5.0, "rigorous")
        assert u2.value == u1.value and u2.certified

    def test_systole_mode_sharper_and_valid(self):
        preset = load_preset("octagon_genus2")
        u_d = uniform_count_bound(preset, 4.0, "rigorous")
        u_s = uniform_count_bound(preset, 4.0, "systole")
        assert u_s.value < u_d.value
        # validity: the bound dominates observed counts at matching radius
        res = orbit_count(preset, 0.03 + 0.97j, 0.03 + 0.97j, [4.0])
        assert res.ball.count_series[0][1] <= u_s.value

    def test_schottky_rigorous_unsupported(self):
        preset = load_preset("schottky_rank2")
        with pytest.raises(UnsupportedInputError):
            uniform_count_bound(preset, 3.0, "rigorous")

    def test_empirical_deterministic(self):
        preset = load_preset("schottky_rank2")
        a = uniform_count_bound(preset, 3.0, "empirical")
        b = uniform_count_bound(preset, 3.0, "empirical")
        assert a.value == b.value
        assert not a.certified


class TestBlockingLowerBound:
    def test_small_t_vacuous(self):
        preset = load_preset("octagon_genus2")
        b = certified_blocking_lower_bound(preset, orbit_count(preset, 1j, 1j, [0.5]), 0.5)
        assert b.value <= 0.5
        assert b.certified

    def test_series_grows_and_exceeds_one(self):
        preset = load_preset("octagon_genus2")
        grid = [float(t) for t in np.linspace(3.0, 8.0, 21)]
        bounds = blocking_lower_bound_series(preset, 0.03 + 0.97j, 0.03 + 0.97j, grid)
        assert all(b.certified for b in bounds)
        exceeding = [b for b in bounds if b.value > 1.0]
        assert exceeding
        values = [b.value for b in bounds]
        tail = values[-6:]
        assert tail == sorted(tail)
