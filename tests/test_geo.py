import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from routeforge.geo import (
    METERS_PER_RADIAN,
    GeoPoint,
    HaversineKernel,
    haversine_distance,
    pairwise_meters,
)

# One degree along the equator on the fixed sphere radius, R * pi / 180.
EQUATOR_DEGREE_M = 111_195.0802335329


def _law_of_cosines(a: GeoPoint, b: GeoPoint) -> float:
    # independent great-circle formula for cross-checking
    phi1, phi2 = math.radians(a.lat), math.radians(b.lat)
    dlon = math.radians(b.lon - a.lon)
    cos_angle = math.sin(phi1) * math.sin(phi2) + math.cos(phi1) * math.cos(phi2) * math.cos(dlon)
    return METERS_PER_RADIAN * math.acos(max(-1.0, min(1.0, cos_angle)))


def test_identical_points_have_zero_distance():
    p = GeoPoint(22.3, 114.2)
    assert haversine_distance(p, p) == 0.0


def test_equatorial_degree():
    d = haversine_distance(GeoPoint(0.0, 0.0), GeoPoint(0.0, 1.0))
    assert d == pytest.approx(EQUATOR_DEGREE_M, abs=0.01)
    # the closed form the value comes from
    assert d == pytest.approx(METERS_PER_RADIAN * math.pi / 180.0, abs=1e-6)


def test_harbour_scale_pair():
    a, b = GeoPoint(22.3, 114.1), GeoPoint(22.4, 114.2)
    d = haversine_distance(a, b)
    assert d == pytest.approx(15_150, abs=50)
    assert d == pytest.approx(_law_of_cosines(a, b), abs=0.5)


coords = st.tuples(
    st.floats(min_value=-85.0, max_value=85.0),
    st.floats(min_value=-179.0, max_value=179.0),
)


@given(coords, coords)
@settings(max_examples=150, deadline=None)
def test_symmetry(p, q):
    a, b = GeoPoint(*p), GeoPoint(*q)
    assert haversine_distance(a, b) == haversine_distance(b, a)


anywhere = st.tuples(st.floats(min_value=-90.0, max_value=90.0), st.floats(min_value=-180.0, max_value=180.0))


@st.composite
def far_pairs(draw):
    """Near-antipodal pairs, and pairs near a pole or across lon 180."""
    lat, lon = draw(anywhere)
    dlat = draw(st.floats(min_value=-1e-3, max_value=1e-3))
    dlon = draw(st.floats(min_value=-1e-3, max_value=1e-3))
    kind = draw(st.sampled_from(["antipode", "pole", "antimeridian"]))
    if kind == "antipode":
        a = (lat, lon)
        b = (-lat + dlat, lon - math.copysign(180.0, lon) + dlon)
    elif kind == "pole":
        pole = draw(st.sampled_from([-90.0, 90.0]))
        a = (pole - math.copysign(abs(dlat), pole), lon)
        b = (pole - math.copysign(abs(dlon), pole), draw(anywhere)[1])
    else:
        a = (lat, 180.0 - abs(dlon))
        b = (lat + dlat, -180.0 + abs(dlat))
    clamp = lambda p: (min(90.0, max(-90.0, p[0])), min(180.0, max(-180.0, p[1])))
    return clamp(a), clamp(b)


@given(st.lists(st.one_of(st.tuples(coords, coords), far_pairs()), min_size=1, max_size=40))
@settings(max_examples=150, deadline=None)
def test_array_kernel_agrees_with_scalar_reference(pairs):
    points = [GeoPoint(*p) for pair in pairs for p in pair]
    kernel = HaversineKernel(points)
    i = np.arange(0, len(points), 2)
    meters = kernel(i, i + 1)
    assert meters.shape == (len(pairs),)
    assert meters.tolist() == [haversine_distance(points[a], points[a + 1]) for a in i.tolist()]
    # and every cell of the symmetric fill, both triangles, to the bit
    dense = pairwise_meters(points)
    assert dense.tolist() == [[haversine_distance(p, q) for q in points] for p in points]


@given(coords, coords, coords)
@settings(max_examples=150, deadline=None)
def test_triangle_inequality(p, q, r):
    a, b, c = GeoPoint(*p), GeoPoint(*q), GeoPoint(*r)
    direct = haversine_distance(a, c)
    detour = haversine_distance(a, b) + haversine_distance(b, c)
    assert direct <= detour * (1.0 + 1e-6) + 1e-6


@given(
    st.floats(min_value=-60.0, max_value=60.0),
    st.floats(min_value=-179.0, max_value=179.0),
    st.floats(min_value=-0.04, max_value=0.04),
    st.floats(min_value=-0.04, max_value=0.04),
)
@settings(max_examples=150, deadline=None)
def test_short_range_agrees_with_equirectangular(lat, lon, dlat, dlon):
    a = GeoPoint(lat, lon)
    b = GeoPoint(lat + dlat, lon + dlon)
    d = haversine_distance(a, b)
    if d < 1.0 or d > 10_000.0:
        return
    mean_phi = math.radians((a.lat + b.lat) / 2.0)
    x = math.radians(b.lon - a.lon) * math.cos(mean_phi)
    y = math.radians(b.lat - a.lat)
    flat = METERS_PER_RADIAN * math.hypot(x, y)
    assert d == pytest.approx(flat, rel=0.005)
