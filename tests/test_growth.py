import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geoblock.errors import DomainError, InsufficientDataError, RangeError
from geoblock.growth import (
    BoundCheckParams,
    ClosedForm,
    GrowthSeries,
    TransformParams,
    bound_check,
    classify_growth,
    kappa,
    rate_estimate,
    transform,
)
from helpers import series_from_function


def kappa_oracle(t: Fraction, delta: Fraction) -> int:
    """Direct loop: smallest k with t/2**k < delta."""
    k = 0
    cur = Fraction(t)
    while cur >= delta:
        cur /= 2
        k += 1
    return k


class TestKappa:
    def test_below_delta_is_zero(self):
        assert kappa(0.5, TransformParams(1)) == 0

    @pytest.mark.parametrize(
        "t,delta,expected",
        [(8, 1, 4), (Fraction(8), Fraction(1, 2), 5)],
    )
    def test_examples_match_loop_oracle(self, t, delta, expected):
        assert kappa_oracle(Fraction(t), Fraction(delta)) == expected
        assert kappa(t, TransformParams(delta)) == expected

    def test_float_and_rational_agree(self):
        for num in range(1, 200):
            t = Fraction(num, 7)
            delta = Fraction(3, 5)
            k_exact = kappa(t, TransformParams(delta))
            k_float = kappa(float(t), TransformParams(float(delta)))
            assert k_exact == kappa_oracle(t, delta)
            assert k_exact == k_float

    def test_power_of_two_boundary_is_strict(self):
        # t = delta * 2^j needs one more halving because the comparison is strict
        for j in range(6):
            assert kappa(Fraction(2) ** j, TransformParams(1)) == j + 1

    @given(
        tn=st.integers(1, 10**6),
        td=st.integers(1, 10**3),
        dn=st.integers(1, 10**4),
        dd=st.integers(1, 10**3),
    )
    @settings(max_examples=300, deadline=None)
    def test_two_sided_bounds(self, tn, td, dn, dd):
        t, delta = Fraction(tn, td), Fraction(dn, dd)
        k = kappa(t, TransformParams(delta))
        assert k == kappa_oracle(t, delta)
        if t >= delta:
            # log2(t/delta) <= k <= log2(t/delta) + 1, exactly
            assert 2**k * delta >= t
            assert 2 ** (k - 1) * delta <= t
        else:
            assert k == 0

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            kappa(0, TransformParams(1))
        with pytest.raises(DomainError):
            kappa(-1.0, TransformParams(1))
        with pytest.raises(DomainError):
            TransformParams(0)
        for bad in (math.inf, math.nan):
            with pytest.raises(DomainError):
                kappa(bad, TransformParams(1))
            with pytest.raises(DomainError):
                TransformParams(bad)


class TestTransform:
    def test_constant_one(self):
        assert transform(ClosedForm.constant(1), TransformParams(1), 8) == 1

    def test_linear_example(self):
        # 8 * 4 * 2 * 1 by direct product
        assert transform(ClosedForm.linear(), TransformParams(1), 8) == 64

    def test_constant_two_example(self):
        assert transform(ClosedForm.constant(2), TransformParams(1), 8) == 16

    def test_empty_product_below_delta(self):
        assert transform(ClosedForm.linear(), TransformParams(1), Fraction(1, 2)) == 1

    def test_exact_closed_form_for_linear(self):
        # independent oracle: t^kappa * 2^(-kappa(kappa-1)/2)
        p = TransformParams(Fraction(1))
        for num in range(1, 60):
            t = Fraction(num, 7)
            k = kappa(t, p)
            expected = t**k * Fraction(2) ** Fraction(-k * (k - 1), 2) if k * (k - 1) % 2 == 0 else None
            assert k * (k - 1) % 2 == 0  # product of consecutive ints is even
            expected = t**k / 2 ** (k * (k - 1) // 2)
            assert transform(ClosedForm.linear(), p, t) == expected

    def test_series_interpolation_and_range_error(self):
        series = series_from_function(lambda t: t, np.linspace(1, 16, 61))
        val = transform(series, TransformParams(1), 8.0)
        assert val == pytest.approx(64.0, rel=1e-9)
        with pytest.raises(RangeError):
            transform(series, TransformParams(0.25), 8.0)

    def test_value_at_samples_and_midpoints(self):
        ts = np.cumsum(np.random.default_rng(71).uniform(0.1, 2.0, 300))
        series = series_from_function(lambda t: 1.0 + t * t, ts)
        pts = series.samples
        for t, v in pts:
            assert series.value_at(t) == pytest.approx(v, rel=1e-12)
        # log-linear interpolation: the geometric mean halfway between samples
        for (t0, v0), (t1, v1) in zip(pts, pts[1:]):
            assert series.value_at((t0 + t1) / 2) == pytest.approx(math.sqrt(v0 * v1), rel=1e-12)

    @given(st.integers(1, 400), st.integers(1, 8))
    @settings(max_examples=120, deadline=None)
    def test_multiplicative(self, num, den):
        t = num / den
        p = TransformParams(1)
        f1 = lambda u: 1.5 + math.sin(u)
        f2 = lambda u: 0.5 + 0.1 * u
        lhs = transform(lambda u: f1(u) * f2(u), p, t)
        rhs = transform(f1, p, t) * transform(f2, p, t)
        assert lhs == pytest.approx(rhs, rel=1e-12)

    @given(st.integers(1, 400))
    @settings(max_examples=80, deadline=None)
    def test_pointwise_monotone(self, num):
        t = num / 10
        p = TransformParams(1)
        grid = np.linspace(0.001, 41, 400)
        f = series_from_function(lambda u: 1.0 + u, grid)
        g = series_from_function(lambda u: 1.5 + u + 0.1 * u * u, grid)
        assert transform(f, p, t) <= transform(g, p, t)

    def test_rejects_nonpositive_values(self):
        with pytest.raises(DomainError):
            transform(lambda u: u - 10, TransformParams(1), 8)


class TestRateEstimate:
    def test_exponential_exact(self):
        series = series_from_function(lambda t: math.exp(2 * t), range(1, 51))
        cls = rate_estimate(series, "exponential")
        assert cls.kind == "exponential"
        assert cls.parameter == pytest.approx(2.0, abs=0.01)
        assert cls.residual < 1e-9

    def test_polynomial_exact(self):
        series = series_from_function(lambda t: t**3, range(1, 51))
        cls = rate_estimate(series, "polynomial")
        assert cls.parameter == pytest.approx(3.0, abs=0.01)

    def test_quasi_polynomial_of_linear_transform(self):
        # oracle: closed form t^kappa 2^(-kappa(kappa-1)/2) evaluated on a grid,
        # fitted as log F against (log t)^2; asymptotic slope 1/(2 ln 2)
        p = TransformParams(1)
        ts = np.geomspace(2.0, 2.0**24, 400)
        pairs = []
        for t in ts:
            k = kappa(float(t), p)
            logf = k * math.log(t) - (k * (k - 1) / 2) * math.log(2)
            pairs.append((float(t), math.exp(min(logf, 700))))
        series = GrowthSeries.from_pairs(pairs)
        cls = rate_estimate(series, "quasi-polynomial")
        assert cls.parameter == pytest.approx(1 / (2 * math.log(2)), abs=0.05)

    def test_insufficient_data(self):
        series = series_from_function(lambda t: t, range(1, 8))
        with pytest.raises(InsufficientDataError):
            rate_estimate(series, "exponential", window=0.5)

    def test_unknown_mode(self):
        series = series_from_function(lambda t: t, range(1, 30))
        with pytest.raises(DomainError):
            rate_estimate(series, "linear")


class TestClassifyGrowth:
    def test_bounded(self):
        series = series_from_function(lambda t: 3.0, range(1, 40))
        assert classify_growth(series).kind == "bounded"

    def test_exponential_beats_polynomial(self):
        series = series_from_function(lambda t: math.exp(0.8 * t), range(1, 40))
        assert classify_growth(series).kind == "exponential"

    def test_polynomial(self):
        series = series_from_function(lambda t: t**2.5, range(1, 60))
        cls = classify_growth(series)
        assert cls.kind == "polynomial"
        assert cls.parameter == pytest.approx(2.5, abs=0.05)

    def test_super_exponential(self):
        series = series_from_function(lambda t: math.exp(0.05 * t * t), range(1, 40))
        assert classify_growth(series).kind == "super-exponential"


class TestBoundCheck:
    def _transform_series(self, fn, delta, ts):
        p = TransformParams(delta)
        return GrowthSeries.from_pairs([(float(t), float(transform(fn, p, float(t)))) for t in ts])

    def test_exp_rate_doubling_passes(self):
        ts = np.linspace(1, 40, 200)
        f = series_from_function(lambda t: math.exp(t), ts)
        F = self._transform_series(lambda t: math.exp(t), 1.0, ts)
        rep = bound_check(f, F, "exp-rate-doubling", BoundCheckParams(rate=1.0, epsilon=0.1))
        assert rep.passed
        assert rate_estimate(F, "exponential").parameter <= 2.1

    def test_bounded_gives_polynomial_envelope(self):
        ts = np.linspace(1, 200, 400)
        f = series_from_function(lambda t: 3.0, ts)
        F = self._transform_series(ClosedForm.constant(3), 1, ts)
        rep = bound_check(f, F, "bounded-to-polynomial", BoundCheckParams(epsilon=0.01))
        assert rep.passed
        # 3^kappa <= 3 * t^(log2 3): the constant stays tame
        assert rep.constant <= 3.0 + 1e-9

    def test_trivial_ones(self):
        ts = np.linspace(1, 50, 100)
        one = series_from_function(lambda t: 1.0, ts)
        rep = bound_check(one, one, "bounded-to-polynomial", BoundCheckParams())
        assert rep.passed

    def test_poly_to_quasipoly(self):
        ts = np.geomspace(1, 2**16, 300)
        f = series_from_function(lambda t: t, ts)
        F = self._transform_series(lambda t: t, 1.0, ts)
        rep = bound_check(f, F, "poly-to-quasipoly", BoundCheckParams(degree=1.0, const_cap=10.0))
        assert rep.passed
        assert rep.alpha is not None and 0 < rep.alpha < 2

    def test_dominated_and_equivalent(self):
        ts = np.linspace(1, 30, 150)
        f = series_from_function(lambda t: math.exp(t), ts)
        F = self._transform_series(lambda t: math.exp(t), 1.0, ts)
        g = series_from_function(lambda t: 2 * math.exp(t), ts)
        G = self._transform_series(lambda t: 2 * math.exp(t), 1.0, ts)
        rep = bound_check(
            f, F, "dominated", BoundCheckParams(other=g, other_transformed=G, const_cap=1e6)
        )
        assert rep.passed
        rep2 = bound_check(
            f, F, "equivalent", BoundCheckParams(other=g, other_transformed=G, const_cap=1e6)
        )
        assert rep2.passed

    def test_strictly_dominated(self):
        ts = np.linspace(1, 60, 200)
        f = series_from_function(lambda t: math.exp(t), ts)
        F = self._transform_series(lambda t: math.exp(t), 1.0, ts)
        g = series_from_function(lambda t: t, ts)
        G = self._transform_series(lambda t: t, 1.0, ts)
        rep = bound_check(
            f,
            F,
            "strictly-dominated",
            BoundCheckParams(other=g, other_transformed=G, betas=(0.0,), const_cap=10.0),
        )
        assert rep.passed

    def test_failure_carries_witness(self):
        ts = np.linspace(1, 30, 100)
        f = series_from_function(lambda t: math.exp(t), ts)
        too_big = series_from_function(lambda t: math.exp(4 * t), ts)
        rep = bound_check(f, too_big, "exp-rate-doubling", BoundCheckParams(rate=1.0, epsilon=0.1, const_cap=100.0))
        assert not rep.passed
        assert rep.witness_t is not None

    def test_mismatched_ranges(self):
        a = series_from_function(lambda t: t, np.linspace(1, 2, 10))
        b = series_from_function(lambda t: t, np.linspace(5, 6, 10))
        with pytest.raises(RangeError):
            bound_check(a, a, "dominated", BoundCheckParams(other=b, other_transformed=b))


class TestSeriesIO:
    def test_csv_roundtrip(self, tmp_path):
        series = series_from_function(lambda t: 2.0 * t, [1, 2, 4, 8], monotone=True)
        path = tmp_path / "series.csv"
        series.to_csv(path)
        back = GrowthSeries.from_csv(path)
        assert back.samples == series.samples
        assert path.read_text().splitlines()[0] == "t,value"

    def test_validation(self):
        with pytest.raises(DomainError):
            GrowthSeries(((1.0, 1.0), (1.0, 2.0)))
        with pytest.raises(DomainError):
            GrowthSeries(((1.0, 0.0),))
        with pytest.raises(DomainError):
            GrowthSeries(((1.0, 2.0), (2.0, 1.0)), monotone=True)

    def test_growthclass_json_shape(self):
        series = series_from_function(lambda t: math.exp(t), range(1, 30))
        data = rate_estimate(series).to_json()
        assert set(data) == {"kind", "parameter", "residual", "window"}
