import json
import math
import random
from importlib import resources

import numpy as np
import pytest

from geoblock.cli import main
from geoblock.errors import BudgetExceededError, DomainError
from geoblock.growth import GrowthSeries, rate_estimate
from geoblock.hyperbolic import (
    _FLOAT_ERR,
    FuchsianPreset,
    MobiusMatrix,
    _apply_batch,
    _bisector_polygon,
    _cells,
    _claimed,
    _claimed_by_key,
    _distances,
    _first_in_cell,
    _frames,
    _gen_arrays,
    _gen_form,
    _gram_margin,
    _gram_norms,
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
        assert names == ["octagon_genus2"]

    def test_octagon_validates(self):
        preset = load_preset("octagon_genus2")
        # the area 4 pi (g - 1) comes from the relator's 4g = 8 letters
        assert preset.surface_area == pytest.approx(4 * math.pi)
        # relator really evaluates to +-identity
        r = preset.evaluate_word(preset.relator)
        ident = MobiusMatrix(1, 0, 0, 1)
        assert r.close_to(ident, 1e-9)

    def test_generators_hyperbolic(self):
        for name in builtin_presets():
            preset = load_preset(name)
            for g in preset.generators:
                assert abs(g.trace) > 2

    def test_bad_relator_rejected(self):
        with pytest.raises(DomainError, match="relator"):
            FuchsianPreset.from_json({**octagon_data(), "name": "broken", "relator": "a1 b1"})

    def test_cocompact_needs_positive_systole(self):
        # the orbit-point dedup derives its tolerance from the systole, and
        # the uniform count bound rests on it
        data = octagon_data()
        del data["systole"]
        for bad in ({}, {"systole": 0.0}, {"systole": -1.0}, {"systole": None}, {"systole": True}):
            with pytest.raises(DomainError, match="preset needs a positive systole"):
                FuchsianPreset.from_json({**data, **bad})

    def test_unknown_key_rejected(self, tmp_path, capsys):
        # a stated diameter or area is refused, not silently ignored
        for key, value in (("D", 3.0572), ("A", 8 * math.pi), ("kind", "cocompact")):
            with pytest.raises(DomainError, match=f"unknown preset key: '{key}'"):
                FuchsianPreset.from_json({**octagon_data(), key: value})
        # every preset is a compact surface: a file naming a kind, such as
        # this free Schottky group of infinite area, is refused
        schottky = {
            "name": "schottky_rank2", "kind": "schottky",
            "generators": [[2.23606797749979, 2.0, 2.0, 2.23606797749979],
                           [10.23606797749979, -30.0, 2.0, -5.76393202250021]],
            "generator_names": ["g1", "g2"], "relator": None, "systole": 2.887,
        }
        preset_path = tmp_path / "schottky_rank2.json"
        preset_path.write_text(json.dumps(schottky))
        cfg_path = tmp_path / "schottky_config.json"
        cfg_path.write_text(json.dumps({"geometry": {"kind": "fuchsian", "preset": str(preset_path)}, "t_grid": ["3"]}))
        assert main(["count", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ") and "'kind'" in err and err.count("\n") == 1
        assert not (tmp_path / "out" / "count.csv").exists()

    def test_generator_names_checked(self, tmp_path, capsys):
        # one distinct name per generator, none an inverse token: zip would
        # drop a generator left without a name, and "A2" is also the inverse
        # of "a2", of itself here
        for name, names in (
            ("too_few", ["a1", "b1", "a2"]),
            ("too_many", ["a1", "b1", "a2", "b2", "a3"]),
            ("duplicate", ["a1", "b1", "a1", "b2"]),
            ("inverse_token", ["a1", "b1", "a2", "A2"]),
            # a string, not a list: it loaded as the names "a", "b", "c", "d"
            ("string", "abcd"),
        ):
            preset_path = tmp_path / f"{name}.json"
            preset_path.write_text(json.dumps({**octagon_data(), "generator_names": names}))
            cfg_path = tmp_path / f"{name}_config.json"
            geometry = {"kind": "fuchsian", "preset": str(preset_path)}
            cfg_path.write_text(json.dumps({"geometry": geometry, "t_grid": ["10"]}))
            assert main(["count", "--config", str(cfg_path), "--out", str(tmp_path / name)]) == 2, name
            assert "generator_names" in capsys.readouterr().err
            assert not (tmp_path / name / "count.csv").exists()
        with pytest.raises(DomainError, match="generator_names"):
            FuchsianPreset.from_json({**octagon_data(), "generator_names": ["a1", "b1", "a2", "A2"]})

    def test_relator_must_be_a_string(self, tmp_path, capsys):
        # a list relator reached relator.split() and crashed with a
        # traceback, exit 1
        preset_path = tmp_path / "list_relator.json"
        preset_path.write_text(json.dumps({**octagon_data(), "relator": ["a1", "B1"]}))
        cfg_path = tmp_path / "list_relator_config.json"
        geometry = {"kind": "fuchsian", "preset": str(preset_path)}
        cfg_path.write_text(json.dumps({"geometry": geometry, "t_grid": ["3"]}))
        assert main(["count", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ") and "relator" in err and err.count("\n") == 1
        # every preset closes its polygon with a relator: null is refused too
        for bad in (["a1", "B1"], 7, {"word": "a1"}, None):
            with pytest.raises(DomainError, match="relator must be a string"):
                FuchsianPreset.from_json({**octagon_data(), "relator": bad})

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

    def test_octagon_words_evaluate(self):
        # loading checks the generators' determinants; a product keeps det 1
        # only up to rounding that grows with its length and entries (a1^6
        # reads 1 + 1.1e-8, past the 1e-9 budget loading allows a
        # generator), so evaluating a word checks nothing
        preset = load_preset("octagon_genus2")
        names = [name for name, _ in preset.gens_with_inverses()]
        words, level = [], [()]
        for _ in range(4):
            level = [w + (n,) for w in level for n in names if not w or n != w[-1].swapcase()]
            words += level if len(level[0]) >= 2 else []
        assert len(words) == 56 + 392 + 2744
        for word in words:
            g = preset.evaluate_word(" ".join(word))
            assert abs(g.a * g.d - g.b * g.c - 1) <= 2e-15 * len(word) * (abs(g.a * g.d) + abs(g.b * g.c))
        g = preset.evaluate_word(" ".join(["a1"] * 6))
        assert abs(g.a * g.d - g.b * g.c - 1) > 1e-9

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
    @pytest.mark.parametrize("n,expected", [(0, 1), (1, 8), (2, 56), (3, 392), (4, 2736), (5, 19096)])
    def test_surface_genus2_spheres(self, n, expected):
        # Cannon and Wagreich's series for the genus-2 surface group
        assert word_growth("surface", 2, n) - (word_growth("surface", 2, n - 1) if n else 0) == expected

    def test_surface_genus1_is_abelian_rank2(self):
        # the genus-1 surface group is Z^2
        assert [word_growth("surface", 1, n) for n in range(5)] == [1, 5, 13, 25, 41]
        for n in range(9):
            assert word_growth("surface", 1, n) == word_growth("abelian", 2, n)

    def test_abelian_examples(self):
        assert word_growth("abelian", 2, 2) == 13

    def test_abelian_matches_lattice_scan(self):
        for rank in (1, 2, 3):
            for n in range(0, 7):
                assert word_growth("abelian", rank, n) == brute_l1_ball(rank, n)

    def test_domain(self):
        with pytest.raises(DomainError):
            word_growth("surface", 0, 3)
        with pytest.raises(DomainError):
            word_growth("solvable", 2, 3)
        # the free group has no compact surface to count on
        with pytest.raises(DomainError):
            word_growth("free", 2, 3)


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
        # the BFS multiplies the (parent, generator) pairs the Gram prune
        # keeps without np.einsum; the rounding, signed zeros included, must
        # stay that of the einsum over every pair, as the reference forms them
        gen_mats, _ = _gen_arrays(load_preset("octagon_genus2"))
        rng = np.random.default_rng(5)
        mats = rng.standard_normal((5000, 2, 2)) * np.exp(rng.uniform(-20, 20, (5000, 2, 2)))
        mats[:50] = -0.0
        mats[50:100, :, 1] = 0.0
        want = np.einsum("fij,gjk->fgik", mats, gen_mats)
        # every pair of the rows with zeros, a random 30% of the others
        pairs = rng.random((5000, len(gen_mats))) < 0.3
        pairs[:100] = True
        f, g = np.nonzero(pairs)
        assert np.array_equal(_products(mats[f], gen_mats[g]).view(np.int64), want[f, g].view(np.int64))

    def test_gram_prune_is_conservative(self):
        # on words of the generators multiplied as the BFS multiplies them,
        # and on random SL(2, R) matrices, the Gram norm of every child
        # within the cutoff stays within the margin of 2 cosh of its
        # measured displacement: the prune drops no child the d <= cutoff
        # test keeps; the closed-form frames are A_x^-1 g A_y to rounding
        preset = load_preset("octagon_genus2")
        gen_mats, inv_index = _gen_arrays(preset)
        rng = np.random.default_rng(11)
        words = []
        for _ in range(400):
            g, letter = np.eye(2)[None], -1
            for _ in range(rng.integers(1, 9)):
                letter = rng.choice([s for s in range(len(gen_mats)) if letter < 0 or s != inv_index[letter]])
                g = _products(g, gen_mats[letter][None])
            words.append(g[0])
        turn = lambda a: np.array([[np.cos(a), -np.sin(a)], [np.sin(a), np.cos(a)]])
        sl2 = [turn(a) @ np.diag([np.exp(r / 2), np.exp(-r / 2)]) @ turn(b)
               for a, b, r in rng.uniform([0, 0, 0], [np.pi, np.pi, 20], (400, 3))]
        for x, y in ((0.03 + 0.97j, 0.03 + 0.97j), (0.2 + 1.1j, -0.3 + 0.8j), (0.1 + 90j, 1j)):
            for mats in (np.array(words), np.array(sl2)):
                ax_inv = np.array([[1 / np.sqrt(x.imag), -x.real / np.sqrt(x.imag)], [0, np.sqrt(x.imag)]])
                ay = np.array([[np.sqrt(y.imag), y.real / np.sqrt(y.imag)], [0, 1 / np.sqrt(y.imag)]])
                product = (ax_inv @ mats @ ay).reshape(-1, 4).T
                scale = np.abs(product).max(axis=0)
                assert np.all(np.abs(np.array(_frames(mats, x, y)) - product) <= 1e-14 * scale)
                norms = _gram_norms(mats, x, y, _gen_form(gen_mats, y))
                f, g = np.nonzero(np.ones_like(norms, dtype=bool))
                d = _distances(x, _apply_batch(_products(mats[f], gen_mats[g]), y))
                for cutoff in (4.0, 9.0, 14.0, 21.0):
                    within = d <= cutoff
                    assert within.any()
                    ratio = norms[f, g][within] / (2.0 * np.cosh(d[within]))
                    assert np.all(np.abs(ratio - 1.0) <= _gram_margin(cutoff)), (x, y, cutoff)

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

    def test_counts_by_word_length_match_surface_growth(self):
        # each generator moves i by 3.0571, so no word of length L reaches
        # past radius 3.06 L + 0.5: a word budget of L counts the ball of
        # word length L, after the dedup merges words that are one element
        preset = load_preset("octagon_genus2")
        for L in range(0, 6):
            res = orbit_count(preset, 1j, 1j, [3.06 * L + 0.5], max_word_len=L)
            assert res.ball.count_series[0][1] == word_growth("surface", 2, L)

    def test_identity_counts_at_zero(self):
        preset = load_preset("octagon_genus2")
        res = orbit_count(preset, 1j, 1j, [0.0, 1.0], max_word_len=3)
        assert res.ball.count_series[0] == (0.0, 1)

    def test_word_budget_flags_uncertified_t(self):
        # words of length 3 stop far short of radius 12: the unexpanded
        # frontier bounds the certified range
        preset = load_preset("octagon_genus2")
        res = orbit_count(preset, 1j, 1j, [1.0, 12.0], max_word_len=3)
        assert 1.0 < res.certified_t < 12.0
        assert res.certified == (True, False)

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
    and x 4.5 from i with y near it, where the cutoff's
    d(x, c) + d(y, c) term is the larger.  The budget cases run out of word
    budget."""
    rng = random.Random(2007)
    octagon = load_preset("octagon_genus2")

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
        (octagon, near(math.exp(4.5)), near(), 4.0, 24),
        # the benchmark's octagon report: its base point and largest t
        (octagon, 0.03 + 0.97j, 0.03 + 0.97j, 9.5, 24),
    ]


@pytest.mark.parametrize(
    "preset, x, y, t, max_word_len", _equivalence_cases(),
    ids=["near", "near-budget", "generator", "word2", "far", "far-x", "bench"],
)
def test_matches_reference_orbit_count(preset, x, y, t, max_word_len):
    # the reference searches within the generator-displacement slack plus a
    # margin and deduplicates child by child; every output must agree bit for bit
    res = orbit_count(preset, x, y, [t / 2, t], max_word_len=max_word_len)
    _, disp, certified_t = reference_orbit_count(preset, x, y, t, max_word_len)
    assert np.array_equal(res.ball.displacements.view(np.int64), disp.view(np.int64))
    assert res.certified_t == certified_t
    assert res.ball.count_series == ((t / 2, int(np.sum(disp <= t / 2))), (t, len(disp)))


class TestCellDedup:
    """The key dedup decides as the 3x3 scan of ``_claimed`` does wherever
    distinct elements lie at least 2h apart and copies of one element
    within the float-error budget of each other, as in the orbit BFS."""

    h = 1e-6

    def points(self, rng, cells, edge_share):
        """One point per cell (row, column) of h-cells: inside it, or with
        probability edge_share within half the budget of a side or corner."""
        h = self.h
        frac = rng.uniform(0.1, 0.9, (len(cells), 2))
        side = rng.random((len(cells), 2)) < edge_share
        frac[side] = rng.choice([0.0, 1.0], side.sum()) + rng.uniform(-0.5, 0.5, side.sum()) * _FLOAT_ERR / h
        pos = (np.asarray(cells) + frac) * h
        return pos[:, 0] + 1j * pos[:, 1]

    def copies(self, rng, pts):
        """A copy of each point, moved by at most the budget."""
        return pts + _FLOAT_ERR * rng.uniform(0, 1, len(pts)) * np.exp(2j * np.pi * rng.random(len(pts)))

    def brute_claimed(self, pts, store):
        return np.array([bool(np.any(np.abs(store - p) <= self.h)) for p in pts], dtype=bool)

    def test_duplicate_across_a_cell_side_is_claimed(self):
        # the stored point sits just left of a cell side, its copy just
        # right of it: the keys differ, and both are edge points
        h = self.h
        stored = np.array([(40 * h - 0.3 * _FLOAT_ERR) + 7.5j * h])
        copy = stored + 0.6 * _FLOAT_ERR
        (store_key,), (stored_edge,) = _cells(stored, h)
        (key,), (edge,) = _cells(copy, h)
        assert key != store_key and stored_edge and edge
        assert _claimed_by_key(np.array([key]), copy, np.array([edge]), np.array([store_key]), stored, h)[0]
        # within a level the later copy is dropped, though it is its cell's first
        level = np.concatenate([stored, copy])
        keys, edges = _cells(level, h)
        assert list(_first_in_cell(keys, level, edges, h)) == [True, False]
        assert list(_first_in_cell(keys[::-1], level[::-1], edges[::-1], h)) == [True, False]

    def test_key_dedup_matches_claimed_scan(self):
        # stored points one per 6x6 block of cells, queries their copies and
        # fresh points in the blocks' middles, 2h or more from every stored one
        rng = np.random.default_rng(2007)
        h = self.h
        for edge_share in (0.0, 0.3, 1.0):
            blocks = rng.choice(200 * 200, 3000, replace=False)
            cells = np.stack([blocks // 200, blocks % 200], axis=1) * 6 - 600
            store = self.points(rng, cells, edge_share)
            fresh = self.points(rng, cells[:1000] + 3, edge_share)
            queries = np.concatenate([self.copies(rng, store[::2]), fresh])
            rng.shuffle(queries)
            store_keys, _ = _cells(store, h)
            order = np.argsort(store_keys)
            store_keys, store_sorted = store_keys[order], store[order]
            keys, edge = _cells(queries, h)
            want = self.brute_claimed(queries, store)
            assert want.sum() == len(store[::2])
            assert np.array_equal(_claimed(keys, queries, store_keys, store_sorted, h), want)
            assert np.array_equal(_claimed_by_key(keys, queries, edge, store_keys, store_sorted, h), want)

    def test_first_in_cell_matches_lower_index_scan(self):
        # a level of up to three copies of each of 400 elements, shuffled:
        # a point is new iff no lower-indexed point lies within h
        rng = np.random.default_rng(5)
        h = self.h
        for edge_share in (0.0, 0.3, 1.0):
            blocks = rng.choice(100 * 100, 400, replace=False)
            elements = self.points(rng, np.stack([blocks // 100, blocks % 100], axis=1) * 3, edge_share)
            level = np.concatenate([elements] + [self.copies(rng, elements[rng.random(400) < 0.6]) for _ in range(2)])
            rng.shuffle(level)
            keys, edge = _cells(level, h)
            want = np.array([not np.any(np.abs(level[:i] - p) <= h) for i, p in enumerate(level)])
            assert want.sum() == 400
            assert np.array_equal(_first_in_cell(keys, level, edge, h), want)


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
    def test_closed_form(self):
        for name in builtin_presets():
            preset = load_preset(name)
            h = preset.systole / 2
            for r in (0.5, 2.0, 5.0, 9.0):
                u = uniform_count_bound(preset, r)
                assert type(u) is float
                assert u == pytest.approx((math.cosh(r + h) - 1) / (math.cosh(h) - 1), rel=1e-12)

    def test_zero_radius_counts_the_identity(self):
        for name in builtin_presets():
            preset = load_preset(name)
            assert uniform_count_bound(preset, 0.0) == 1.0
            with pytest.raises(DomainError):
                uniform_count_bound(preset, -0.5)

    def test_dominates_orbit_counts(self):
        # the bound is uniform: it holds at every base pair and radius
        grid = [1.0, 2.0, 3.0, 4.0]
        pairs = [(0.03 + 0.97j, 0.03 + 0.97j), (1j, 0.4 + 1.5j),
                 (0.2 + 1.1j, -0.3 + 0.8j), (0.5 + 0.6j, 2.0 + 3.0j)]
        for name in builtin_presets():
            preset = load_preset(name)
            for x, y in pairs:
                res = orbit_count(preset, x, y, grid)
                assert all(res.certified)
                for r, n in res.ball.count_series:
                    assert n <= uniform_count_bound(preset, r), (name, x, y, r)


class TestBlockingLowerBound:
    def test_t_past_the_grid_rejected(self):
        # the ball holds displacements up to the grid's largest t only: 9 of
        # the 2,043 elements within t = 9
        preset = load_preset("octagon_genus2")
        x = 0.03 + 0.97j
        orbit = orbit_count(preset, x, x, [4.0])
        assert certified_blocking_lower_bound(preset, orbit, 4.0).count == orbit.ball.count_series[0][1]
        with pytest.raises(DomainError, match="past the orbit's grid"):
            certified_blocking_lower_bound(preset, orbit, 9.0)
        assert certified_blocking_lower_bound(preset, orbit_count(preset, x, x, [9.0]), 9.0).count == 2043

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
