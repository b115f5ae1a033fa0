"""Small builders shared by the test modules."""

from fractions import Fraction

from geoblock.blocker import blocking_cost_sampled, build_instance, recursion_harness
from geoblock.flatspace import _enumerate, _point_order, connecting_family, intersection_candidates
from geoblock.growth import GrowthSeries


def series_from_function(fn, ts):
    """A GrowthSeries sampling fn at the points ts."""
    return GrowthSeries.from_pairs((t, fn(t)) for t in ts)


def family_of(space, x, y, t_sq):
    """``connecting_family`` between two points, passed as their keys."""
    return connecting_family(space, space.key(x), space.key(y), t_sq)


def sampled_cost(space, t_sq, sampled):
    """``blocking_cost_sampled`` with the sampled pairs' families enumerated at t_sq."""
    return blocking_cost_sampled(space, t_sq, sampled, [family_of(space, p, q, t_sq) for p, q in sampled])


def recursion_of(space, x, y, t_sq):
    """``recursion_harness`` of the family between two points."""
    return recursion_harness(family_of(space, x, y, t_sq))


def joining_of(space, x, y, t_sq):
    """The family between two points and all its joining displacements, in
    the family's order: those through an endpoint too, which only
    ``flatspace._enumerate`` lists."""
    family = family_of(space, x, y, t_sq)
    return family, _enumerate(space, family.x, family.y, family.t_sq)[1]


def instance_of(space, x, y, t_sq):
    """``build_instance`` of the family between two points."""
    return build_instance(family_of(space, x, y, t_sq))


def crossing_points(family, a, b):
    """The points where the family's segments a and b cross, as
    ``build_instance`` records them for that pair: the keys of
    ``intersection_candidates`` once each, with the least s on a, the
    endpoints dropped, in point order."""
    least = {}
    for key, sn, sd, _ in intersection_candidates(family, a, b):
        least[key] = min(Fraction(sn, sd), least.get(key, 1))
    for end in (family.x, family.y):
        least.pop(end, None)
    order = _point_order(family.space, least)
    return sorted(least.items(), key=lambda item: order(item[0]))
