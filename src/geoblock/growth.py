"""Growth-function calculus.

The central object is a halving transform on positive functions: given a
scale parameter ``delta``, a function ``f`` is mapped to the partial product
of its values at ``t, t/2, t/4, ...`` down to the first argument below
``delta``.  The transform doubles exponential rates, turns bounded functions
into polynomially bounded ones, and turns polynomially bounded functions
into quasi-polynomial ones; :func:`bound_check` verifies those envelopes
numerically on sampled data and :func:`rate_estimate` measures rates.
"""

from __future__ import annotations

import csv
import math
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational
from pathlib import Path
from typing import Callable, Iterable, Union

import numpy as np

from .errors import DomainError, InsufficientDataError, RangeError

Real = Union[int, float, Fraction]

__all__ = [
    "TransformParams",
    "GrowthSeries",
    "GrowthClass",
    "ClosedForm",
    "BoundCheckParams",
    "BoundCheckReport",
    "kappa",
    "kappa_from_squares",
    "format_sig",
    "transform",
    "rate_estimate",
    "classify_growth",
    "bound_check",
]


@dataclass(frozen=True)
class TransformParams:
    """Scale parameter of the halving transform (a length, finite and strictly positive)."""

    delta: Real = 1

    def __post_init__(self) -> None:
        _positive(self.delta, "delta")


def _is_rational(x: Real) -> bool:
    return isinstance(x, Rational)


def _positive(x: Real, name: str) -> Fraction:
    """x as an exact Fraction (binary floats convert exactly), finite and > 0."""
    try:
        q = Fraction(x)
    except (OverflowError, ValueError):  # inf, nan
        q = None
    if q is None or q <= 0:
        raise DomainError(f"{name} must be finite and positive, got {x}")
    return q


def _halving_depth(ratio: Fraction, power: int) -> int:
    """Least k >= 0 with ratio < 2**(power*k), for ratio = (t/delta)**power.

    2**(power*k) is an integer, so it exceeds ratio iff it exceeds floor(ratio),
    which holds iff power*k >= floor(ratio).bit_length().
    """
    return -(-(ratio.numerator // ratio.denominator).bit_length() // power)


def kappa(t: Real, params: TransformParams) -> int:
    """Least k >= 0 with t / 2**k < delta, exact for rationals and floats."""
    return _halving_depth(_positive(t, "t") / Fraction(params.delta), 1)


def kappa_from_squares(t_sq: Real, delta_sq: Real) -> int:
    """Least k >= 0 with t / 2**k < delta, from the squared lengths."""
    return _halving_depth(_positive(t_sq, "t^2") / _positive(delta_sq, "delta^2"), 2)


def format_sig(x: float) -> str:
    """Decimal with 12 significant digits, no exponent notation; x is finite."""
    if float(x) == int(x) and abs(x) < 1e15:
        return str(int(x))
    return np.format_float_positional(
        float(x), precision=12, unique=False, fractional=False, trim="-"
    )


@dataclass(frozen=True)
class ClosedForm:
    """Positive shape c * t**degree, kept exact under the transform.

    The named forms are the constants and the identity; other shapes are
    built from the fields.
    """

    coeff: Fraction
    degree: int

    def __post_init__(self) -> None:
        if self.coeff <= 0:
            raise DomainError("closed form must be positive")
        if self.degree < 0:
            raise DomainError("closed form degree must be >= 0")

    @classmethod
    def constant(cls, c: Real) -> "ClosedForm":
        return cls(Fraction(c), 0)

    @classmethod
    def linear(cls) -> "ClosedForm":
        return cls(Fraction(1), 1)

    def __call__(self, t: Real) -> Real:
        if _is_rational(t):
            return self.coeff * Fraction(t) ** self.degree
        return float(self.coeff) * float(t) ** self.degree


@dataclass(frozen=True)
class GrowthSeries:
    """Sampled positive function of t, with finite, strictly increasing sample points."""

    samples: tuple[tuple[float, float], ...]
    monotone: bool = False

    def __post_init__(self) -> None:
        if not self.samples:
            raise DomainError("a growth series needs at least one sample")
        prev_t = 0.0
        prev_v = None
        for t, v in self.samples:
            if not (math.isfinite(t) and math.isfinite(v)):
                raise DomainError(f"samples must be finite, got ({t}, {v})")
            if t <= prev_t:
                raise DomainError("sample points must be positive and strictly increasing")
            if v <= 0:
                raise DomainError("sample values must be strictly positive")
            if self.monotone and prev_v is not None and v < prev_v:
                raise DomainError("series flagged monotone but values decrease")
            prev_t, prev_v = t, v

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[float, float]], monotone: bool = False) -> "GrowthSeries":
        return cls(tuple((float(t), float(v)) for t, v in pairs), monotone=monotone)

    @property
    def ts(self) -> np.ndarray:
        return np.array([t for t, _ in self.samples])

    @property
    def values(self) -> np.ndarray:
        return np.array([v for _, v in self.samples])

    @property
    def t_range(self) -> tuple[float, float]:
        return self.samples[0][0], self.samples[-1][0]

    def value_at(self, t: float) -> float:
        """Piecewise-linear interpolation in (t, log value) inside the sampled range."""
        t = float(t)
        lo, hi = self.t_range
        if t < lo or t > hi:
            raise RangeError(f"t={t} outside sampled range [{lo}, {hi}]")
        pts = self.samples
        if len(pts) == 1:
            return pts[0][1]
        i = bisect_left(pts, t, key=lambda p: p[0])
        i = min(max(i, 1), len(pts) - 1)
        (t0, v0), (t1, v1) = pts[i - 1], pts[i]
        w = (t - t0) / (t1 - t0)
        return math.exp((1 - w) * math.log(v0) + w * math.log(v1))

    def to_csv(self, path: str | Path) -> None:
        """A 't,value' CSV, LF line endings, numbers by :func:`format_sig`."""
        lines = ["t,value"] + [f"{format_sig(t)},{format_sig(v)}" for t, v in self.samples]
        with open(path, "w", newline="\n") as fh:
            fh.write("\n".join(lines) + "\n")

    @classmethod
    def from_csv(cls, path: str | Path) -> "GrowthSeries":
        """A series from a CSV with a header naming a t column.

        The values are the n column when there is one (count.csv: the largest
        n over the pairs at each t), else the column after t ('t,value',
        't,count,certified').  Each t keeps its largest value, and
        non-positive values are dropped.
        """
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            fields = reader.fieldnames or []
            if "t" not in fields[:-1]:
                raise DomainError(f"{path}: needs a header with a t column and a value column")
            column = "n" if "n" in fields else fields[fields.index("t") + 1]
            best: dict[float, float] = {}
            for row in reader:
                try:
                    t, v = float(row["t"]), float(row[column])
                except (TypeError, ValueError):  # a short row reads None
                    t = v = math.nan
                if not (math.isfinite(t) and math.isfinite(v)):
                    raise DomainError(f"{path}, line {reader.line_num}: t and {column} must be finite numbers")
                best[t] = max(best.get(t, v), v)
        return cls.from_pairs([(t, v) for t, v in best.items() if v > 0])


Evaluatable = Union[GrowthSeries, ClosedForm, Callable[[float], float]]


def transform(f: Evaluatable, params: TransformParams, t: Real) -> Real:
    """Product of f(t / 2**k) for k = 0 .. kappa(t) - 1.

    The empty product (t < delta) is 1.  With a :class:`ClosedForm` and
    rational t the result is an exact Fraction; otherwise a float.  A
    :class:`GrowthSeries` is evaluated by :meth:`GrowthSeries.value_at`, so
    every halved argument must lie in its sampled range.
    """
    depth = kappa(t, params)  # validates t
    exact = isinstance(f, ClosedForm) and _is_rational(t)
    if exact:
        acc: Real = Fraction(1)
        tk: Real = Fraction(t)
    else:
        acc = 1.0
        tk = float(t)
    for _ in range(depth):
        if isinstance(f, GrowthSeries):
            val: Real = f.value_at(float(tk))
        else:
            val = f(tk)
        if val <= 0:
            raise DomainError(f"f must be positive on (0, t]; f({tk}) = {val}")
        acc = acc * val
        tk = tk / 2
    return acc


@dataclass(frozen=True)
class GrowthClass:
    """Fitted growth classification of a sampled series.

    ``parameter`` is the exponential rate, the polynomial degree, or the
    quasi-polynomial coefficient, depending on ``kind``; None for the kinds
    that carry no parameter.
    """

    kind: str
    parameter: float | None
    residual: float
    window: tuple[float, float]

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "parameter": self.parameter,
            "residual": self.residual,
            "window": list(self.window),
        }


_MODES = ("exponential", "polynomial", "quasi-polynomial")


def _tail(f: GrowthSeries, window: float) -> tuple[np.ndarray, np.ndarray]:
    ts, vs = f.ts, f.values
    lo = ts[0] + (1.0 - window) * (ts[-1] - ts[0])
    mask = ts >= lo
    return ts[mask], vs[mask]


def rate_estimate(f: GrowthSeries, mode: str = "exponential", window: float = 0.5) -> GrowthClass:
    """Least-squares growth rate over the tail window.

    exponential: slope of log f vs t;  polynomial: vs log t;
    quasi-polynomial: vs (log t)^2.  The fit is over the last ``window``
    fraction of the sampled t range, which needs at least 8 samples; the
    residual is the root-mean-square deviation of log f from the fitted line.
    """
    if mode not in _MODES:
        raise DomainError(f"unknown mode {mode!r}, expected one of {_MODES}")
    if not 0 < window <= 1:
        raise DomainError("window must be a fraction in (0, 1]")
    ts, vs = _tail(f, window)
    if len(ts) < 8:
        raise InsufficientDataError(f"need >= 8 samples in the fit window, got {len(ts)}")
    y = np.log(vs)
    if mode == "exponential":
        x = ts
    elif mode == "polynomial":
        x = np.log(ts)
    else:
        x = np.log(ts) ** 2
    slope, intercept = np.polyfit(x, y, 1)
    resid = float(np.sqrt(np.mean((y - (slope * x + intercept)) ** 2)))
    return GrowthClass(mode, float(slope), resid, (float(ts[0]), float(ts[-1])))


def classify_growth(f: GrowthSeries, window: float = 0.5) -> GrowthClass:
    """Pick the best-fitting growth kind at desk scale.

    Heuristic: a flat tail is bounded; a rising local exponential rate is
    super-exponential; otherwise the smallest-residual fit among the three
    modes wins.
    """
    ts, vs = _tail(f, window)
    if len(ts) < 8:
        raise InsufficientDataError(f"need >= 8 samples in the fit window, got {len(ts)}")
    if vs.max() <= vs.min() * 1.05:
        return GrowthClass("bounded", None, 0.0, (float(ts[0]), float(ts[-1])))
    fits = {mode: rate_estimate(f, mode, window) for mode in _MODES}
    half = len(ts) // 2
    y = np.log(vs)
    r1 = np.polyfit(ts[:half], y[:half], 1)[0] if half >= 2 else 0.0
    r2 = np.polyfit(ts[half:], y[half:], 1)[0] if len(ts) - half >= 2 else 0.0
    if r1 > 1e-9 and r2 > 1.25 * r1 + 0.05:
        best = fits["exponential"]
        return GrowthClass("super-exponential", None, best.residual, best.window)
    best_mode = min(_MODES, key=lambda m: fits[m].residual)
    return fits[best_mode]


_CLAIMS = (
    "exp-rate-doubling",
    "bounded-to-polynomial",
    "poly-to-quasipoly",
    "dominated",
    "strictly-dominated",
    "equivalent",
)


@dataclass(frozen=True)
class BoundCheckParams:
    """Knobs for :func:`bound_check`.

    ``rate``/``degree`` give the premise envelope of f; ``other`` and
    ``other_transformed`` carry the second pair (g, G) for the domination
    claims.  Envelopes use (t/delta) as the base so they stay meaningful for
    t below 1.
    """

    delta: Real = 1
    rate: float | None = None
    degree: float | None = None
    epsilon: float = 0.1
    alpha_cap: float = 64.0
    const_cap: float = 1e9
    betas: tuple[float, ...] = (0.0, -1.0, -2.0)
    other: GrowthSeries | None = None
    other_transformed: GrowthSeries | None = None


@dataclass(frozen=True)
class BoundCheckReport:
    claim: str
    passed: bool
    constant: float | None
    alpha: float | None
    witness_t: float | None
    premise_ok: bool
    details: dict

    def to_json(self) -> dict:
        return {
            "claim": self.claim,
            "passed": self.passed,
            "constant": self.constant,
            "alpha": self.alpha,
            "witness_t": self.witness_t,
            "premise_ok": self.premise_ok,
            "details": self.details,
        }


def _shared_points(primary: GrowthSeries, other: GrowthSeries) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Primary's sample points restricted to the overlap, other interpolated."""
    lo = max(primary.t_range[0], other.t_range[0])
    hi = min(primary.t_range[1], other.t_range[1])
    if lo > hi:
        raise RangeError("series do not cover a shared t range")
    ts = primary.ts
    mask = (ts >= lo) & (ts <= hi)
    ts = ts[mask]
    pv = primary.values[mask]
    ov = np.array([other.value_at(t) for t in ts])
    return ts, pv, ov


def _smallest_constant(num: np.ndarray, env: np.ndarray, ts: np.ndarray) -> tuple[float, float]:
    ratios = num / env
    i = int(np.argmax(ratios))
    return float(ratios[i]), float(ts[i])


def _smallest_alpha(
    ts: np.ndarray, num: np.ndarray, base: np.ndarray, exponent_of_alpha: np.ndarray, params: BoundCheckParams
) -> tuple[float | None, float, float]:
    """Binary search the least alpha with max(num / (base^... )) <= const_cap.

    The envelope is base**(alpha * exponent_of_alpha); the ratio decreases in
    alpha wherever exponent_of_alpha >= 0.
    """

    log_num = np.log(num)
    log_base = np.log(base)

    def worst(alpha: float) -> tuple[float, float]:
        log_ratio = log_num - alpha * exponent_of_alpha * log_base
        i = int(np.argmax(log_ratio))
        return float(np.exp(min(log_ratio[i], 700.0))), float(ts[i])

    c_hi, w_hi = worst(params.alpha_cap)
    if c_hi > params.const_cap:
        return None, c_hi, w_hi
    lo, hi = 0.0, params.alpha_cap
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        c_mid, _ = worst(mid)
        if c_mid <= params.const_cap:
            hi = mid
        else:
            lo = mid
    c, w = worst(hi)
    return hi, c, w


def bound_check(
    f: GrowthSeries, F: GrowthSeries, claim: str, params: BoundCheckParams = BoundCheckParams()
) -> BoundCheckReport:
    """Verify one of the transform's envelope laws on sampled data.

    The claims relate a function ``f`` (premise envelope) to its transform
    ``F`` (conclusion envelope), or a pair (g, G) against (f, F) for the
    domination claims.  Verification searches for the smallest admissible
    constant on the shared sampled range; a failure carries the witness t
    where no constant within ``const_cap`` works.
    """
    if claim not in _CLAIMS:
        raise DomainError(f"unknown claim {claim!r}, expected one of {_CLAIMS}")
    delta = float(params.delta)
    details: dict = {}

    if claim == "exp-rate-doubling":
        if params.rate is None:
            raise DomainError("exp-rate-doubling needs params.rate (the premise rate a)")
        a = params.rate
        c_f, _ = _smallest_constant(f.values, np.exp(a * f.ts), f.ts)
        premise_ok = c_f <= params.const_cap
        env = np.exp((2 * a + params.epsilon) * F.ts)
        c, w = _smallest_constant(F.values, env, F.ts)
        passed = premise_ok and c <= params.const_cap
        details = {"premise_constant": c_f, "envelope_rate": 2 * a + params.epsilon}
        return BoundCheckReport(claim, passed, c, None, None if passed else w, premise_ok, details)

    if claim == "bounded-to-polynomial":
        c_bound = float(np.max(f.values))
        degree = math.log2(c_bound) + params.epsilon if c_bound > 0 else params.epsilon
        base = F.ts / delta
        env = np.power(np.maximum(base, 1.0), degree)
        c, w = _smallest_constant(F.values, env, F.ts)
        passed = c <= params.const_cap
        details = {"premise_constant": c_bound, "envelope_degree": degree}
        return BoundCheckReport(claim, passed, c, None, None if passed else w, True, details)

    if claim == "poly-to-quasipoly":
        if params.degree is None:
            raise DomainError("poly-to-quasipoly needs params.degree (the premise degree r)")
        base_f = np.maximum(f.ts / delta, 1.0)
        c_f, _ = _smallest_constant(f.values, np.power(base_f, params.degree), f.ts)
        premise_ok = c_f <= params.const_cap
        base = np.maximum(F.ts / delta, 1.0)
        alpha, c, w = _smallest_alpha(F.ts, F.values, base, np.log2(base), params)
        passed = premise_ok and alpha is not None
        details = {"premise_constant": c_f}
        return BoundCheckReport(claim, passed, c, alpha, None if passed else w, premise_ok, details)

    if params.other is None or params.other_transformed is None:
        raise DomainError(f"claim {claim!r} needs params.other and params.other_transformed (g and G)")
    g, G = params.other, params.other_transformed

    def dominated(f1: GrowthSeries, F1: GrowthSeries, g1: GrowthSeries, G1: GrowthSeries):
        ts, gv, fv = _shared_points(g1, f1)
        c_p, _ = _smallest_constant(gv, fv, ts)
        premise_ok = c_p <= params.const_cap
        ts2, Gv, Fv = _shared_points(G1, F1)
        base = np.maximum(ts2 / delta, 1.0)
        alpha, c, w = _smallest_alpha(ts2, Gv / Fv, base, np.ones_like(ts2), params)
        return premise_ok, c_p, alpha, c, w

    if claim == "dominated":
        premise_ok, c_p, alpha, c, w = dominated(f, F, g, G)
        passed = premise_ok and alpha is not None
        return BoundCheckReport(claim, passed, c, alpha, None if passed else w, premise_ok, {"premise_constant": c_p})

    if claim == "strictly-dominated":
        ts, gv, fv = _shared_points(g, f)
        tail = ts >= ts[0] + 0.5 * (ts[-1] - ts[0])
        ratio_drop = float(np.max((gv / fv)[tail])) <= 0.5 * float(np.max(gv / fv))
        ts2, Gv, Fv = _shared_points(G, F)
        base = np.maximum(ts2 / delta, 1.0)
        worst_beta = {}
        passed = True
        witness = None
        for beta in params.betas:
            env = np.power(base, beta)
            c, w = _smallest_constant(Gv / Fv, env, ts2)
            worst_beta[beta] = c
            if c > params.const_cap:
                passed = False
                witness = w
        details = {"constants_by_beta": worst_beta, "premise_ratio_decays": ratio_drop}
        return BoundCheckReport(claim, passed, max(worst_beta.values()), None, witness, ratio_drop, details)

    # equivalent: domination both ways
    ok1, c1, alpha1, cc1, w1 = dominated(f, F, g, G)
    ok2, c2, alpha2, cc2, w2 = dominated(g, G, f, F)
    passed = ok1 and ok2 and alpha1 is not None and alpha2 is not None
    details = {
        "forward": {"premise_constant": c1, "alpha": alpha1, "constant": cc1},
        "backward": {"premise_constant": c2, "alpha": alpha2, "constant": cc2},
    }
    witness = None if passed else (w1 if alpha1 is None else w2)
    return BoundCheckReport(claim, passed, max(cc1, cc2), alpha1, witness, ok1 and ok2, details)
