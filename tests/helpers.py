"""Small builders shared by the test modules."""

from geoblock.blocker import SolverCaps, build_instance
from geoblock.flatspace import connecting_family
from geoblock.growth import GrowthSeries


def series_from_function(fn, ts):
    """A GrowthSeries sampling fn at the points ts."""
    return GrowthSeries.from_pairs((t, fn(t)) for t in ts)


def family_of(space, x, y, t_sq):
    """``connecting_family`` between two points, passed as their keys."""
    return connecting_family(space, space.key(x), space.key(y), t_sq)


def instance_of(space, x, y, t_sq, caps=SolverCaps()):
    """``build_instance`` of the family between two points."""
    return build_instance(family_of(space, x, y, t_sq), caps)
