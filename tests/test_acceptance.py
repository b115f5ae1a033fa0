"""Acceptance gate: every shipped guarantee, at its stated tolerance, with
one printed pass/fail line per criterion (run with `pytest -s`)."""

import json
import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest

from geoblock.blocker import (
    PairSampler,
    blocking_cost_sampled,
    blocking_threshold,
    build_instance,
    midpoint_cover,
    recursion_harness,
    solve_exact,
    verify_cover,
)
from geoblock.cli import main
from geoblock.flatspace import FlatSpace, RationalPoint
from geoblock.growth import GrowthSeries, kappa_from_squares, rate_estimate, transform
from geoblock.hyperbolic import (
    certified_blocking_lower_bound,
    load_preset,
    orbit_count,
    word_growth,
)
from helpers import family_of, joining_of, series_from_function
from oracles import (
    assert_minimum_by_exhaustion,
    brute_enumerate_displacements,
    displacement,
    random_rational_point,
    random_rational_torus,
)

P = RationalPoint.of
F = Fraction


@contextmanager
def criterion(number, description, budget_s):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {number}: {description}")
        raise
    elapsed = time.perf_counter() - start
    print(f"PASS criterion {number}: {description} ({elapsed:.1f}s, budget {budget_s:.0f}s)")
    assert elapsed < budget_s, f"criterion {number} exceeded its {budget_s}s runtime budget"


def test_criterion_1_transform_rate_doubling():
    with criterion(1, "transform doubles exponential rates within 0.05", 1.0):
        ts = np.linspace(1, 100, 512)
        for a in (0.5, 1.0, 2.0):
            series = GrowthSeries.from_pairs(
                [(float(t), float(transform(lambda u: math.exp(a * u), 1, float(t)))) for t in ts]
            )
            rate = rate_estimate(series, "exponential").parameter
            assert 2 * a - 0.05 <= rate <= 2 * a + 0.05, (a, rate)


def test_criterion_2_transform_exactness_and_kappa_bounds():
    with criterion(2, "exact transform closed form and two-sided halving-index bounds", 5.0):
        rng = random.Random(2)
        for _ in range(1000):
            t = Fraction(rng.randint(1, 4096), rng.randint(1, 64))
            k = kappa_from_squares(t * t, 1)
            expected = t**k / Fraction(2) ** (k * (k - 1) // 2)
            assert transform(lambda u: u, 1, t) == expected
        for _ in range(100_000):
            t = Fraction(rng.randint(1, 10**6), rng.randint(1, 100))
            delta = Fraction(rng.randint(1, 10**4), rng.randint(1, 100))
            k = kappa_from_squares(t * t, delta * delta)
            if t < delta:
                assert k == 0
            else:
                assert 2**k * delta >= t, (t, delta, k)
                assert 2 ** (k - 1) * delta <= t, (t, delta, k)


def test_criterion_3_flat_counting_oracle():
    with criterion(3, "exact enumeration vs brute-force scan, plus the disk-area check", 30.0):
        rng = random.Random(3)
        for _ in range(100):
            space = random_rational_torus(rng)
            x = random_rational_point(rng, space)
            y = random_rational_point(rng, space)
            t_sq = Fraction(rng.randint(1, 100))  # t <= 10
            fam, joining = joining_of(space, x, y, t_sq)
            assert {displacement(fam, a) for a in joining} == brute_enumerate_displacements(
                space, x, y, t_sq
            )
        unit = FlatSpace.unit_torus()
        n = family_of(unit, P(0, 0), P(0, 0), 2500).n
        covolume = abs(unit.b1[0] * unit.b2[1] - unit.b1[1] * unit.b2[0])
        assert abs(n * float(covolume) / (math.pi * 2500) - 1) <= 0.1


@pytest.fixture(scope="module")
def chain_log():
    """(n, m, s, t_sq, delta_sq) rows collected across criteria 4 and 5."""
    return []


def test_criterion_4_blocking_exactness(chain_log):
    with criterion(4, "certified minimum blocking sets and the 4-midpoint cover", 120.0):
        rng = random.Random(4)
        spaces = [FlatSpace.unit_torus(), FlatSpace.torus((1, 0), (F(1, 2), F(1, 2)))]
        solved = 0
        while solved < 50:
            space = spaces[rng.randrange(2)]
            x = random_rational_point(rng, space, den=8)
            y = random_rational_point(rng, space, den=8)
            t_sq = Fraction(rng.randint(1, 24), 4)
            fam = family_of(space, x, y, t_sq)
            if not 1 <= fam.m <= 20:
                continue
            inst = build_instance(fam)
            sol = solve_exact(inst)
            assert sol.optimal
            assert_minimum_by_exhaustion(inst, sol.size)
            assert verify_cover(fam, sol.keys)
            assert sol.size <= 4
            cover = midpoint_cover(fam)
            assert len(cover) <= 4
            assert verify_cover(fam, cover)
            chain_log.append((fam.n, fam.m, sol.size, t_sq, space.delta_sq))
            solved += 1


def test_criterion_5_recursion_verification(chain_log):
    with criterion(5, "halving recursion inequalities and the product-form count bound", 300.0):
        space = FlatSpace.unit_torus()
        pairs = [
            (P(0, 0), P("1/2", 0)),
            (P(0, 0), P("1/2", "1/2")),
            (P(0, 0), P(0, 0)),
            (P("1/8", "1/8"), P("3/8", "5/8")),
            (P(0, 0), P("1/4", 0)),
            (P("1/8", 0), P("5/8", "1/2")),
            (P(0, "3/8"), P("1/2", "3/8")),
        ]
        t_sqs = [F(49, 100), F(36, 25), F(121, 25)]  # t = 0.7, 1.2, 2.2
        kappas = {kappa_from_squares(t_sq, space.delta_sq) for t_sq in t_sqs}
        assert kappas == {1, 2, 3}

        sampled = PairSampler(seed=5, count=8, denominator=8).pairs(space)
        cost_cache = {}

        def sampled_cost(t_sq):
            if t_sq not in cost_cache:
                cost_cache[t_sq] = blocking_cost_sampled(space, t_sq, sampled).value
            return cost_cache[t_sq]

        instances = 0
        for x, y in pairs:
            for t_sq in t_sqs:
                fam = family_of(space, x, y, t_sq)
                rep = recursion_harness(fam)
                assert rep.certified
                assert rep.passed, [c for c in rep.checks if not c.passed]
                s_val = blocking_threshold(space, x, y, t_sq).value
                chain_log.append((fam.n, fam.m, s_val, t_sq, space.delta_sq))
                # n_t <= (t^3 / (2 delta^3)) * S(t) with the sampled cost
                kap = kappa_from_squares(t_sq, space.delta_sq)
                S = 1
                cur = t_sq
                for _ in range(kap):
                    S *= sampled_cost(cur)
                    cur /= 4
                assert 4 * fam.n**2 * space.delta_sq**3 <= t_sq**3 * S**2, (x, y, t_sq, fam.n, S)
                instances += 1
        assert instances >= 20


def test_criterion_6_inequality_suite(chain_log, tmp_path):
    with criterion(6, "blocking <= blocked-count <= count chain and the quadratic envelope", 120.0):
        assert len(chain_log) >= 70
        for n, m, s, t_sq, delta_sq in chain_log:
            assert s <= m <= n
            if t_sq >= 4 * delta_sq:
                assert 4 * delta_sq * n <= t_sq * m, (n, m, t_sq, delta_sq)

        # end-to-end harness pass: a 10-pair suite on t in {1, 2, 4}
        rng = random.Random(6)
        pairs = []
        while len(pairs) < 10:
            p = [str(Fraction(rng.randrange(8), 8)) for _ in range(4)]
            if p[:2] != p[2:]:
                pairs.append([[p[0], p[1]], [p[2], p[3]]])
        config = {
            "geometry": {"kind": "torus", "basis": ["1", "0", "0", "1"]},
            "pairs": pairs,
            "t_grid": ["1", "2", "4"],
            "seed": 42,
            "sampler": {"count": 6, "denominator": 8},
        }
        cfg_path = tmp_path / "suite.json"
        cfg_path.write_text(json.dumps(config))
        out = tmp_path / "suite-out"
        assert main(["verify", "--config", str(cfg_path), "--out", str(out)]) == 0
        report = json.loads((out / "verify.json").read_text())
        assert report["summary"]["hard_failures"] == 0
        applied = [
            c for c in report["checks"] if c["name"] == "count-envelope" and c["pass"] is not None
        ]
        assert applied and all(c["pass"] for c in applied)


_OCTAGON_CACHE: dict = {}


def count_series(orbit):
    """The orbit counts as a growth series, zero counts left out."""
    return GrowthSeries.from_pairs((t, c) for t, c in orbit.ball.count_series if c > 0)


def octagon_orbit():
    """Shared octagon orbit ball; computed once, inside the first criterion
    that needs it so its cost counts against that criterion's budget."""
    if not _OCTAGON_CACHE:
        preset = load_preset("octagon_genus2")
        grid = [float(t) for t in np.linspace(3.0, 9.5, 27)]
        res = orbit_count(preset, 0.03 + 0.97j, 0.03 + 0.97j, grid)
        _OCTAGON_CACHE["value"] = (preset, grid, res)
    return _OCTAGON_CACHE["value"]


def test_criterion_7_hyperbolic_counting():
    with criterion(7, "surface-group word counts, area-law entropy, and the orbit growth rate", 300.0):
        octagon = load_preset("octagon_genus2")
        # each generator moves i by 3.0571, so no word of length L reaches
        # past this radius: a word budget of L counts the genus-2 surface
        # group's ball of word length L
        for L in range(0, 6):
            res = orbit_count(octagon, 1j, 1j, [3.06 * L + 0.5], max_word_len=L)
            assert res.ball.count_series[0][1] == word_growth("surface", 2, L)

        areas = series_from_function(
            lambda t: 2 * math.pi * (math.cosh(t) - 1), np.linspace(1, 20, 60)
        )
        assert rate_estimate(areas, "exponential").parameter == pytest.approx(1.0, abs=0.05)

        preset, grid, orbit = octagon_orbit()
        assert grid[-1] >= 9.0
        assert all(orbit.certified)
        counts = [c for _, c in orbit.ball.count_series]
        assert counts == sorted(counts)
        rate = rate_estimate(count_series(orbit), "exponential").parameter
        assert 0.8 <= rate <= 1.2, rate


def test_criterion_8_certified_insecurity_trend():
    with criterion(8, "certified blocking lower bound grows and clears 1", 300.0):
        preset, grid, orbit = octagon_orbit()
        # reuse the shared orbit ball rather than recomputing it
        bounds = [
            certified_blocking_lower_bound(preset, orbit, t)
            for t in grid
        ]
        assert all(b.certified for b in bounds)
        exceeding = [b.t for b in bounds if b.value > 1.0]
        assert exceeding, "lower bound never exceeded 1 on the certified range"
        values = [b.value for b in bounds]
        tail = values[-8:]
        assert tail == sorted(tail), "lower bound not eventually increasing"
        lb_rate = rate_estimate(
            GrowthSeries.from_pairs([(b.t, b.value) for b in bounds if b.value > 0]),
            "exponential",
        ).parameter
        n_rate = rate_estimate(count_series(orbit), "exponential").parameter
        assert lb_rate >= 0.3 * n_rate, (lb_rate, n_rate)


def test_criterion_9_determinism_across_runs(tmp_path):
    with criterion(9, "byte-identical outputs across two runs of one config and seed", 120.0):
        config = {
            "geometry": {"kind": "torus", "basis": ["1", "0", "0", "1"]},
            "pairs": [
                [["0", "0"], ["1/2", "0"]],
                [["0", "0"], ["1/2", "1/2"]],
                [["1/8", "1/8"], ["5/8", "3/8"]],
            ],
            "t_grid": ["1", "2"],
            "seed": 42,
            "sampler": {"count": 6, "denominator": 8},
            "verify": {"recursion": True, "recursion_t_max": "1"},
        }
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(config))
        outputs = []
        for run in ("run1", "run2"):
            out = tmp_path / run
            for command in ("count", "block", "verify"):
                code = main([command, "--config", str(cfg_path), "--seed", "42", "--out", str(out)])
                assert code == 0
            outputs.append({
                name: (out / name).read_bytes()
                for name in ("count.csv", "block.csv", "verify.json")
            })
        assert outputs[0] == outputs[1]
