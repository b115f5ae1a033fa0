"""Growth-function calculus.

The central object is a halving transform on positive functions: given a
scale parameter ``delta``, a function ``f`` is mapped to the partial product
of its values at ``t, t/2, t/4, ...`` down to the first argument below
``delta``.  The transform doubles exponential rates, turns bounded functions
into polynomially bounded ones, and turns polynomially bounded functions
into quasi-polynomial ones.  :func:`transform` evaluates it, exactly for
rational t and exact f; it takes ``delta**2`` as a flat space holds it, and
its depth is :func:`kappa_from_squares`, the one halving-depth rule.
:func:`rate_estimate` and :func:`classify_growth` measure the growth of
sampled series.
"""

from __future__ import annotations

import csv
import math
from bisect import bisect_left
from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction
from numbers import Rational
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, Union

from .errors import DomainError, InsufficientDataError, RangeError

if TYPE_CHECKING:
    import numpy as np

Real = Union[int, float, Fraction]

__all__ = [
    "GrowthSeries",
    "GrowthClass",
    "kappa_from_squares",
    "format_sig",
    "transform",
    "rate_estimate",
    "classify_growth",
]


def _positive(x: Real, name: str) -> Fraction:
    """x as an exact Fraction (binary floats convert exactly), finite and > 0."""
    try:
        q = Fraction(x)
    except (OverflowError, ValueError):  # inf, nan
        q = None
    if q is None or q <= 0:
        raise DomainError(f"{name} must be finite and positive, got {x}")
    return q


def kappa_from_squares(t_sq: Real, delta_sq: Real) -> int:
    """Least k >= 0 with t / 2**k < delta, from the squared lengths, exact
    for rationals and floats.

    With r = t^2 / delta^2 that is r < 4**k; 4**k is an integer, so it
    exceeds r iff it exceeds floor(r), which holds iff
    2k >= floor(r).bit_length().
    """
    ratio = _positive(t_sq, "t^2") / _positive(delta_sq, "delta^2")
    return -(-(ratio.numerator // ratio.denominator).bit_length() // 2)


def format_sig(x: float) -> str:
    """Decimal with 12 significant digits, no exponent notation; x is finite."""
    if float(x) == int(x) and abs(x) < 1e15:
        return str(int(x))
    # '%e' rounds correctly to 12 digits; Decimal spells them out positionally
    text = format(Decimal("%.11e" % float(x)), "f")
    return text.rstrip("0").rstrip(".") if "." in text else text


@dataclass(frozen=True)
class GrowthSeries:
    """Sampled positive function of t, with finite, strictly increasing sample points."""

    samples: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        if not self.samples:
            raise DomainError("a growth series needs at least one sample")
        prev_t = 0.0
        for t, v in self.samples:
            if not (math.isfinite(t) and math.isfinite(v)):
                raise DomainError(f"samples must be finite, got ({t}, {v})")
            if t <= prev_t:
                raise DomainError("sample points must be positive and strictly increasing")
            if v <= 0:
                raise DomainError("sample values must be strictly positive")
            prev_t = t

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[float, float]]) -> "GrowthSeries":
        return cls(tuple((float(t), float(v)) for t, v in pairs))

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
        with open(path, newline="", encoding="utf-8") as fh:
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


Evaluatable = Union[GrowthSeries, Callable[[Real], Real]]


def transform(f: Evaluatable, delta_sq: Real, t: Real) -> Real:
    """Product of f(t / 2**k) for k = 0 .. kappa - 1, with kappa =
    ``kappa_from_squares(t**2, delta_sq)``: t and delta_sq are exact, so
    the depth is too.

    The empty product (t < delta) is 1.  With rational t (an int or a
    Fraction) f receives the halved arguments as exact Fractions, so an f
    that keeps Fractions exact (such as ``lambda u: u``) gives an exact
    Fraction, and the empty product is ``Fraction(1)``; an f that needs
    floats, such as ``np.exp``, must be called with ``float(t)``.  With a
    float t every argument and the result are floats.  A
    :class:`GrowthSeries` is evaluated by :meth:`GrowthSeries.value_at`, so
    every halved argument must lie in its sampled range.
    """
    depth = kappa_from_squares(_positive(t, "t") ** 2, delta_sq)
    if isinstance(t, Rational):
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
    """The samples in the last ``window`` fraction of the t range, as arrays."""
    import numpy as np
    ts = np.array([t for t, _ in f.samples])
    vs = np.array([v for _, v in f.samples])
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
    import numpy as np
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


def classify_growth(f: GrowthSeries) -> GrowthClass:
    """Pick the best-fitting growth kind at desk scale.

    Heuristic, over the last half of the sampled t range: a flat tail is
    bounded; a rising local exponential rate is super-exponential; otherwise
    the smallest-residual fit among the three modes wins.
    """
    import numpy as np
    ts, vs = _tail(f, 0.5)
    if len(ts) < 8:
        raise InsufficientDataError(f"need >= 8 samples in the fit window, got {len(ts)}")
    if vs.max() <= vs.min() * 1.05:
        return GrowthClass("bounded", None, 0.0, (float(ts[0]), float(ts[-1])))
    fits = {mode: rate_estimate(f, mode) for mode in _MODES}
    half = len(ts) // 2
    y = np.log(vs)
    r1 = np.polyfit(ts[:half], y[:half], 1)[0] if half >= 2 else 0.0
    r2 = np.polyfit(ts[half:], y[half:], 1)[0] if len(ts) - half >= 2 else 0.0
    if r1 > 1e-9 and r2 > 1.25 * r1 + 0.05:
        best = fits["exponential"]
        return GrowthClass("super-exponential", None, best.residual, best.window)
    best_mode = min(_MODES, key=lambda m: fits[m].residual)
    return fits[best_mode]
