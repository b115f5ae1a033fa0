"""Geodesic counting, blocking thresholds, and growth-rate verification on
flat and hyperbolic geometries."""

from .blocker import (
    IncidenceInstance,
    PairSampler,
    RecursionReport,
    ThresholdResult,
    blocking_cost_sampled,
    blocking_threshold,
    build_instance,
    midpoint_cover,
    recursion_harness,
    solve_exact,
)
from .flatspace import (
    FlatSpace,
    RationalPoint,
    connecting_family,
    count,
    intersection_candidates,
    shortest_vector,
)
from .growth import (
    GrowthClass,
    GrowthSeries,
    classify_growth,
    rate_estimate,
    transform,
)

__version__ = "0.1.0"
