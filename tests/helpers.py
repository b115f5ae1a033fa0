"""Small builders shared by the test modules."""

from geoblock.blocker import SolverCaps, build_instance
from geoblock.flatspace import _enumerate, connecting_family
from geoblock.growth import GrowthSeries


def series_from_function(fn, ts):
    """A GrowthSeries sampling fn at the points ts."""
    return GrowthSeries.from_pairs((t, fn(t)) for t in ts)


def family_of(space, x, y, t_sq):
    """``connecting_family`` between two points, passed as their keys."""
    return connecting_family(space, space.key(x), space.key(y), t_sq)


def joining_of(space, x, y, t_sq):
    """The family between two points and all its joining displacements, in
    the family's order: those through an endpoint too, which only
    ``flatspace._enumerate`` lists."""
    family = family_of(space, x, y, t_sq)
    return family, _enumerate(space, family.x, family.y, family.t_sq)[1]


def instance_of(space, x, y, t_sq, caps=SolverCaps()):
    """``build_instance`` of the family between two points."""
    return build_instance(family_of(space, x, y, t_sq), caps)
