import math
import multiprocessing
import os
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from routeforge import geo
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


# --- the fill split across processes ---


def fork_size() -> int:
    """The least n whose upper triangle reaches the fork threshold."""
    n = 2
    while n * (n - 1) // 2 < geo._FORK_MIN_CELLS:
        n += 1
    return n


def random_points(n: int, seed: int, lat=(22.15, 22.55), lon=(113.85, 114.35)) -> list[GeoPoint]:
    rng = np.random.default_rng(seed)
    return [GeoPoint(float(a), float(o)) for a, o in zip(rng.uniform(*lat, n), rng.uniform(*lon, n))]


def coincident_block(n: int) -> list[GeoPoint]:
    # three quarters of the points on one spot, spread over every row range
    points = random_points(n, 3)
    return [GeoPoint(22.3, 114.2) if k % 4 else p for k, p in enumerate(points)]


def across_antimeridian(n: int) -> list[GeoPoint]:
    points = random_points(n, 4, lat=(-0.5, 0.5), lon=(179.5, 180.0))
    return [p if k % 2 else GeoPoint(p.lat, -p.lon) for k, p in enumerate(points)]


# (name, points, fork threshold or None to keep the real one).  The tiny
# sizes drop the threshold to 0 so that they are split too.
SPLIT_CASES = [
    *[(f"n{n}", random_points(n, n), 0) for n in range(4)],
    ("below-threshold", random_points(fork_size() - 1, 5), None),
    ("at-threshold", random_points(fork_size(), 6), None),
    ("odd-n2001", random_points(2001, 7), None),
    ("coincident-block", coincident_block(fork_size() + 40), None),
    ("across-lon-180", across_antimeridian(fork_size() + 41), None),
    ("across-lon-180-tiny", across_antimeridian(9), 0),
]


def logged_fill(monkeypatch, points, workers):
    """pairwise_meters(points) with `workers` usable CPUs, and the (pid, lo,
    hi) row range that each process filled."""
    log = multiprocessing.get_context("fork").SimpleQueue()
    fill = geo._fill_upper

    def logged(kernel, flat, n, lo, hi):
        log.put((os.getpid(), lo, hi))
        fill(kernel, flat, n, lo, hi)

    monkeypatch.setattr(geo, "_fill_upper", logged)
    monkeypatch.setattr(geo, "usable_cpus", lambda: workers)
    out = pairwise_meters(points)
    entries = []
    while not log.empty():
        entries.append(log.get())
    log.close()
    return out, entries


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("name, points, min_cells", SPLIT_CASES, ids=[c[0] for c in SPLIT_CASES])
def test_split_fill_equals_one_process_fill(monkeypatch, name, points, min_cells, workers):
    if min_cells is not None:
        monkeypatch.setattr(geo, "_FORK_MIN_CELLS", min_cells)
    monkeypatch.setattr(geo, "usable_cpus", lambda: 1)
    serial = pairwise_meters(points)
    out, logged = logged_fill(monkeypatch, points, workers)
    assert multiprocessing.active_children() == []
    assert out.shape == serial.shape and out.dtype == serial.dtype
    assert out.tobytes() == serial.tobytes()
    n = len(points)
    # The ranges are contiguous and cover rows 0..n-2 once.
    ranges = sorted((lo, hi) for _, lo, hi in logged)
    assert [lo for lo, _ in ranges[1:]] == [hi for _, hi in ranges[:-1]]
    assert ranges[0][0] == 0 and ranges[-1][1] == max(n - 1, 0)
    processes = len({pid for pid, _, _ in logged})
    cells = n * (n - 1) // 2
    if workers == 1 or cells < geo._FORK_MIN_CELLS:
        assert processes == 1
    elif n > workers:
        # one range per process, of about equal cell count: within one row
        assert processes == workers
        for lo, hi in ranges:
            assert abs((hi - lo) * (2 * n - lo - hi - 1) // 2 - cells / workers) < n


def test_fill_with_a_second_thread_stays_in_process(monkeypatch):
    done = threading.Event()
    waiter = threading.Thread(target=done.wait)
    waiter.start()
    try:
        _, logged = logged_fill(monkeypatch, random_points(fork_size() + 10, 8), 2)
    finally:
        done.set()
        waiter.join()
    assert {pid for pid, _, _ in logged} == {os.getpid()}


def test_failed_child_raises_and_leaves_no_process(monkeypatch):
    parent = os.getpid()
    fill = geo._fill_upper

    def dying(kernel, flat, n, lo, hi):
        if os.getpid() != parent:
            os._exit(3)
        fill(kernel, flat, n, lo, hi)

    monkeypatch.setattr(geo, "_fill_upper", dying)
    monkeypatch.setattr(geo, "usable_cpus", lambda: 3)
    n = fork_size() + 100
    first = geo._row_ranges(n, 3)[1]
    with pytest.raises(RuntimeError, match=rf"rows {first[0]}\.\.{first[1] - 1} exited with code 3"):
        pairwise_meters(random_points(n, 9))
    assert multiprocessing.active_children() == []


def test_failed_parent_share_stops_every_child(monkeypatch):
    parent = os.getpid()

    def stuck_children(kernel, flat, n, lo, hi):
        if os.getpid() != parent:
            time.sleep(60)
        raise KeyError("the parent's share failed")

    monkeypatch.setattr(geo, "_fill_upper", stuck_children)
    monkeypatch.setattr(geo, "usable_cpus", lambda: 3)
    started = time.perf_counter()
    with pytest.raises(KeyError, match="parent's share"):
        pairwise_meters(random_points(fork_size() + 100, 10))
    assert multiprocessing.active_children() == []
    assert time.perf_counter() - started < 30.0
