"""Property tests for the invariances of (n_t, m_t, s_t) on the flat
geometries: translation on the torus, swapping the endpoints, monotonicity
in t, and the symmetries of the square billiard table; and of the octagon
orbit counts under swapping the base points and moving both by a generator.

Thresholds stay at t^2 <= 4 so each example solves in well under a second.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from geoblock.blocker import blocking_threshold
from geoblock.flatspace import FlatSpace, RationalPoint
from geoblock.hyperbolic import load_preset, orbit_count

F = Fraction
TORI = [FlatSpace.unit_torus(), FlatSpace.torus(("1", "0"), ("1/3", "5/4"))]
BILLIARD = FlatSpace.square_billiard()
OCTAGON = load_preset("octagon_genus2")
PROPERTY = settings(max_examples=15, deadline=None)

tori = st.sampled_from(TORI)
t_sqs = st.integers(1, 16).map(lambda k: F(k, 4))
plane_coords = st.builds(F, st.integers(-6, 6), st.integers(1, 6))
plane_points = st.builds(RationalPoint, plane_coords, plane_coords)
table_coords = st.integers(2, 7).flatmap(lambda d: st.integers(1, d - 1).map(lambda n: F(n, d)))
table_points = st.builds(RationalPoint, table_coords, table_coords)


def nms(space, x, y, t_sq):
    """(n_t, m_t, s_t) from one certified threshold computation."""
    thr = blocking_threshold(space, x, y, t_sq)
    assert thr.certified
    fam = thr.family
    return fam.n, fam.m, thr.value


def square_symmetries(p):
    """The images of a table point under the 8 symmetries of the square."""
    out = []
    for u, v in ((p.x, p.y), (p.y, p.x)):
        for fu in (u, 1 - u):
            for fv in (v, 1 - v):
                out.append(RationalPoint(fu, fv))
    return out


@PROPERTY
@given(tori, plane_points, plane_points, t_sqs)
def test_torus_translation(space, x, y, t_sq):
    origin = RationalPoint(F(0), F(0))
    assert nms(space, x, y, t_sq) == nms(space, origin, RationalPoint(y.x - x.x, y.y - x.y), t_sq)


@PROPERTY
@given(tori, plane_points, plane_points, t_sqs)
def test_torus_swap(space, x, y, t_sq):
    assert nms(space, x, y, t_sq) == nms(space, y, x, t_sq)


@PROPERTY
@given(table_points, table_points, t_sqs)
def test_billiard_swap(x, y, t_sq):
    assert nms(BILLIARD, x, y, t_sq) == nms(BILLIARD, y, x, t_sq)


@PROPERTY
@given(st.one_of(tori, st.just(BILLIARD)), table_points, table_points, t_sqs, t_sqs)
def test_monotone_in_t(space, x, y, t1, t2):
    lo, hi = sorted((t1, t2))
    assert all(a <= b for a, b in zip(nms(space, x, y, lo), nms(space, x, y, hi)))


@PROPERTY
@given(table_points, table_points, t_sqs)
def test_billiard_square_symmetries(x, y, t_sq):
    want = nms(BILLIARD, x, y, t_sq)
    for gx, gy in zip(square_symmetries(x), square_symmetries(y)):
        assert nms(BILLIARD, gx, gy, t_sq) == want


def orbit_counts(x, y, t):
    res = orbit_count(OCTAGON, x, y, [t / 2, t])
    assert all(res.certified)
    return res.ball.count_series


near_base = st.builds(complex, st.floats(-0.02, 0.08), st.floats(0.92, 1.02))


@settings(max_examples=5, deadline=None)
@given(near_base, near_base, st.floats(2.0, 5.0), st.integers(0, 3))
def test_octagon_swap_and_isometry(x, y, t, k):
    # N(x, y) = N(y, x) = N(g x, g y): each moves the disc the dedup works in
    want = orbit_counts(x, y, t)
    g = OCTAGON.generators[k]
    assert orbit_counts(y, x, t) == want
    assert orbit_counts(g.apply(x), g.apply(y), t) == want
