import math
import struct
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geoblock.errors import DomainError, InsufficientDataError, RangeError
from geoblock.growth import (
    GrowthSeries,
    TransformParams,
    classify_growth,
    format_sig,
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
        assert transform(lambda u: 1, TransformParams(1), 8) == 1

    def test_linear_example(self):
        # 8 * 4 * 2 * 1 by direct product
        assert transform(lambda u: u, TransformParams(1), 8) == 64

    def test_constant_two_example(self):
        assert transform(lambda u: 2, TransformParams(1), 8) == 16

    def test_empty_product_below_delta(self):
        assert transform(lambda u: u, TransformParams(1), Fraction(1, 2)) == 1

    def test_exact_closed_form_for_linear(self):
        # independent oracle: t^kappa * 2^(-kappa(kappa-1)/2)
        p = TransformParams(Fraction(1))
        for num in range(1, 60):
            t = Fraction(num, 7)
            k = kappa(t, p)
            expected = t**k * Fraction(2) ** Fraction(-k * (k - 1), 2) if k * (k - 1) % 2 == 0 else None
            assert k * (k - 1) % 2 == 0  # product of consecutive ints is even
            expected = t**k / 2 ** (k * (k - 1) // 2)
            assert transform(lambda u: u, p, t) == expected

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


class TestSeriesIO:
    def test_csv_roundtrip(self, tmp_path):
        series = series_from_function(lambda t: 2.0 * t, [1, 2, 4, 8])
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

    def test_growthclass_json_shape(self):
        series = series_from_function(lambda t: math.exp(t), range(1, 30))
        data = rate_estimate(series).to_json()
        assert set(data) == {"kind", "parameter", "residual", "window"}


def numpy_sig(x: float) -> str:
    """12 significant digits, positional, trailing zeros and point trimmed, as numpy prints them."""
    return np.format_float_positional(x, precision=12, unique=False, fractional=False, trim="-")


# every finite float, by its bit pattern
bit_floats = st.integers(0, 2**64 - 1).map(lambda b: struct.unpack("<d", struct.pack("<Q", b))[0]).filter(math.isfinite)
# k + j/2^p with 13 significant digits ending in 5 when j is odd: exact ties at 12 digits
tie_floats = st.integers(1, 4).flatmap(
    lambda p: st.builds(lambda k, j: k + j / 2**p, st.integers(10 ** (12 - p), 10 ** (13 - p) - 1), st.integers(1, 2**p - 1))
)


class TestFormatSig:
    """format_sig prints integers below 1e15 exactly and every other finite
    float as numpy does, from the interpreter's own '%e' and Decimal."""

    @pytest.mark.parametrize("x,text", [
        (5e-324, "0." + "0" * 323 + "494065645841"),  # the least subnormal
        (2.5e-310, "0." + "0" * 309 + "25"),
        (-0.0, "0"),
        (1e15, "1000000000000000"),
        (1e16, "10000000000000000"),
        (-1e16, "-10000000000000000"),
        (1.5e300, "15" + "0" * 299),
        (123456789012.5, "123456789012"),  # a tie, rounded to even
        (123456789013.5, "123456789014"),
        (0.5, "0.5"),
        (1 / 3, "0.333333333333"),
        (-2 / 3, "-0.666666666667"),
        (123456789012345.0, "123456789012345"),
    ])
    def test_pinned(self, x, text):
        assert format_sig(x) == text
        if not (x == int(x) and abs(x) < 1e15):
            assert numpy_sig(x) == text

    @given(st.one_of(st.floats(allow_nan=False, allow_infinity=False), bit_floats, tie_floats, tie_floats.map(float.__neg__)))
    @settings(max_examples=1000, deadline=None)
    def test_matches_numpy(self, x):
        if x == int(x) and abs(x) < 1e15:
            assert format_sig(x) == str(int(x))
        else:
            assert format_sig(x) == numpy_sig(x)
