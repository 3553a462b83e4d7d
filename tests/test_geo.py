import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from routeforge.geo import (
    METERS_PER_RADIAN,
    GeoPoint,
    h_meters,
    haversine_distance,
    haversine_h,
    radian_arrays,
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


@given(coords, coords)
@settings(max_examples=150, deadline=None)
def test_array_kernel_agrees_with_scalar_reference(p, q):
    # numpy's and math's sin may round apart by an ulp, which near the
    # antipode moves the distance by centimeters
    a, b = GeoPoint(*p), GeoPoint(*q)
    meters = h_meters(haversine_h(*radian_arrays([a]), *radian_arrays([b])))
    assert meters.shape == (1,)
    assert meters[0] == pytest.approx(haversine_distance(a, b), rel=1e-8, abs=1e-6)


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
