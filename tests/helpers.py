"""Small builders shared by the test modules."""

from geoblock.growth import GrowthSeries


def series_from_function(fn, ts, monotone=False):
    """A GrowthSeries sampling fn at the points ts."""
    return GrowthSeries.from_pairs(((t, fn(t)) for t in ts), monotone=monotone)
