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


def _half_sines(a: GeoPoint, b: GeoPoint) -> tuple[float, float]:
    lat1, lat2 = math.radians(a.lat), math.radians(b.lat)
    return math.sin((lat2 - lat1) / 2.0), math.sin(math.radians(b.lon - a.lon) / 2.0)


def _haversine_squaring_by(square, a: GeoPoint, b: GeoPoint) -> float:
    s_lat, s_lon = _half_sines(a, b)
    cos1, cos2 = math.cos(math.radians(a.lat)), math.cos(math.radians(b.lat))
    h = square(s_lat) + cos1 * cos2 * square(s_lon)
    return 2.0 * METERS_PER_RADIAN * math.asin(math.sqrt(h))


def _product_square(s):
    return s * s


def _pow_square(s):
    return pow(s, 2.0)


def test_squares_are_products_where_pow_differs():
    # Seeded random pairs of which a half-difference sine s has
    # pow(s, 2.0) != s * s: libm pow and an IEEE product part in the last bit.
    rng = np.random.default_rng(11)
    lats = rng.uniform(-90.0, 90.0, (20_000, 2)).tolist()
    lons = rng.uniform(-180.0, 180.0, (20_000, 2)).tolist()
    pairs = [
        (a, b)
        for a, b in ((GeoPoint(la, oa), GeoPoint(lb, ob)) for (la, lb), (oa, ob) in zip(lats, lons))
        if any(_pow_square(s) != _product_square(s) for s in _half_sines(a, b))
    ]
    assert len(pairs) >= 10
    scalar = [haversine_distance(a, b) for a, b in pairs]
    # Some of them would move the distance itself if squared by pow.
    assert scalar != [_haversine_squaring_by(_pow_square, a, b) for a, b in pairs]
    assert scalar == [_haversine_squaring_by(_product_square, a, b) for a, b in pairs]
    points = [p for pair in pairs for p in pair]
    i = np.arange(0, len(points), 2)
    assert HaversineKernel(points)(i, i + 1).tolist() == scalar
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
    # three quarters of the points on one spot, spread over every row block
    points = random_points(n, 3)
    return [GeoPoint(22.3, 114.2) if k % 4 else p for k, p in enumerate(points)]


def across_antimeridian(n: int) -> list[GeoPoint]:
    points = random_points(n, 4, lat=(-0.5, 0.5), lon=(179.5, 180.0))
    return [p if k % 2 else GeoPoint(p.lat, -p.lon) for k, p in enumerate(points)]


# (name, points, tiny).  The tiny sizes drop the threshold to 0 and the
# block to one row so that they are split too.
SPLIT_CASES = [
    *[(f"n{n}", random_points(n, n), True) for n in range(4)],
    ("below-threshold", random_points(fork_size() - 1, 5), False),
    ("at-threshold", random_points(fork_size(), 6), False),
    ("odd-n2001", random_points(2001, 7), False),
    ("coincident-block", coincident_block(fork_size() + 40), False),
    ("across-lon-180", across_antimeridian(fork_size() + 41), False),
    ("across-lon-180-tiny", across_antimeridian(9), True),
]


def logged_fill(monkeypatch, points, workers):
    """pairwise_meters(points) with `workers` usable CPUs, and the (pid, lo,
    hi) row block of each task, with the process that filled it."""
    log = multiprocessing.get_context("fork").SimpleQueue()
    fill = geo._fill_upper

    def logged(kernel, flat, n, lo, hi):
        log.put((os.getpid(), lo, hi))
        fill(kernel, flat, n, lo, hi)

    monkeypatch.setattr(geo, "_fill_upper", logged)
    monkeypatch.setattr(geo, "usable_cpus", lambda: workers)
    out = pairwise_meters(points)
    return out, drain_queue(log)


def drain_queue(queue) -> list:
    items = []
    while not queue.empty():
        items.append(queue.get())
    return items


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("name, points, tiny", SPLIT_CASES, ids=[c[0] for c in SPLIT_CASES])
def test_split_fill_equals_one_process_fill(monkeypatch, name, points, tiny, workers):
    if tiny:
        monkeypatch.setattr(geo, "_FORK_MIN_CELLS", 0)
        monkeypatch.setattr(geo, "_UPPER_BLOCK", 1)
    monkeypatch.setattr(geo, "usable_cpus", lambda: 1)
    serial = pairwise_meters(points)
    out, logged = logged_fill(monkeypatch, points, workers)
    assert multiprocessing.active_children() == []
    assert out.shape == serial.shape and out.dtype == serial.dtype
    assert out.tobytes() == serial.tobytes()
    n = len(points)
    # The blocks are contiguous and cover rows 0..n-2 once.
    blocks = sorted((lo, hi) for _, lo, hi in logged)
    if n <= 1:
        assert blocks == []
        return
    assert [lo for lo, _ in blocks[1:]] == [hi for _, hi in blocks[:-1]]
    assert blocks[0][0] == 0 and blocks[-1][1] == n - 1
    processes = {pid for pid, _, _ in logged}
    if workers == 1 or len(blocks) == 1:
        assert processes == {os.getpid()}
    else:
        # the children fill every block, and the parent none
        assert os.getpid() not in processes and len(processes) <= workers


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
    with pytest.raises(RuntimeError, match=r"^pairwise_meters child [0-2] of 3 exited with code 3$"):
        pairwise_meters(random_points(fork_size() + 100, 9))
    assert multiprocessing.active_children() == []


def stall_parent(monkeypatch, job):
    """`job`, run in children that take a minute over it, and a parent that
    is interrupted while it waits for them."""
    parent = os.getpid()

    def slow(*args):
        if os.getpid() != parent:
            time.sleep(60)
        return job(*args)

    def interrupted(self):
        raise KeyboardInterrupt

    monkeypatch.setattr("multiprocessing.connection.Connection.recv", interrupted)
    return slow


def test_interrupted_parent_stops_every_fill_child(monkeypatch):
    monkeypatch.setattr(geo, "_fill_upper", stall_parent(monkeypatch, geo._fill_upper))
    monkeypatch.setattr(geo, "usable_cpus", lambda: 3)
    started = time.perf_counter()
    with pytest.raises(KeyboardInterrupt):
        pairwise_meters(random_points(fork_size() + 100, 10))
    assert multiprocessing.active_children() == []
    assert time.perf_counter() - started < 30.0


def logged_square(log):
    def job(i):
        log.put((os.getpid(), i))
        return i * i, os.getpid()

    return job


def fork_map_in_pool_worker(count):
    """fork_map in a daemonic pool worker, where os.fork now fails."""

    def refused():
        raise AssertionError("fork_map forked in a daemonic process")

    os.fork = refused
    return list(geo.fork_map("square", lambda i: (i * i, os.getpid()), count)), os.getpid()


def test_fork_map_runs_every_task_in_index_order(monkeypatch):
    parent = os.getpid()
    log = multiprocessing.get_context("fork").SimpleQueue()
    job = logged_square(log)
    squares = [i * i for i in range(7)]
    # forked: the children take the tasks in index order, the parent none
    monkeypatch.setattr(geo, "usable_cpus", lambda: 3)
    results = geo.fork_map("square", job, 7)
    assert [r for r, _ in results] == squares
    started = drain_queue(log)
    assert sorted(i for _, i in started) == list(range(7))
    children = {pid for pid, _ in started}
    assert parent not in children and 1 <= len(children) <= 3
    for child in children:
        taken = [i for pid, i in started if pid == child]
        assert taken == sorted(taken)
    assert {pid for _, pid in results} == children
    assert multiprocessing.active_children() == []
    # in process, each task when its result is read: on one CPU, for one
    # task, and in a process that runs a second thread
    monkeypatch.setattr(geo, "usable_cpus", lambda: 1)
    lazy = iter(geo.fork_map("square", job, 7))
    assert drain_queue(log) == []
    assert next(lazy) == (0, parent) and drain_queue(log) == [(parent, 0)]
    assert list(lazy) == [(i * i, parent) for i in range(1, 7)]
    monkeypatch.setattr(geo, "usable_cpus", lambda: 3)
    assert list(geo.fork_map("square", job, 1)) == [(0, parent)]
    done = threading.Event()
    other = threading.Thread(target=done.wait)
    other.start()
    try:
        assert list(geo.fork_map("square", job, 7)) == [(i * i, parent) for i in range(7)]
    finally:
        done.set()
        other.join()
    assert [i for _, i in drain_queue(log)] == list(range(1, 7)) + [0] + list(range(7))
    # in a daemonic caller
    with multiprocessing.get_context("fork").Pool(1) as outer:
        results, worker = outer.apply_async(fork_map_in_pool_worker, (7,)).get(timeout=60)
    assert results == [(i * i, worker) for i in range(7)]
    assert list(geo.fork_map("square", job, 0)) == []


def test_fork_map_names_a_failed_child_and_leaves_no_process(monkeypatch):
    parent = os.getpid()

    def dying(i):
        if os.getpid() != parent:
            os._exit(3)
        return i

    monkeypatch.setattr(geo, "usable_cpus", lambda: 2)
    with pytest.raises(RuntimeError, match=r"^square child [01] of 2 exited with code 3$"):
        geo.fork_map("square", dying, 5)
    assert multiprocessing.active_children() == []


def test_interrupted_fork_map_stops_every_child(monkeypatch):
    monkeypatch.setattr(geo, "usable_cpus", lambda: 2)
    started = time.perf_counter()
    with pytest.raises(KeyboardInterrupt):
        geo.fork_map("square", stall_parent(monkeypatch, lambda i: i * i), 5)
    assert multiprocessing.active_children() == []
    assert time.perf_counter() - started < 30.0


def test_fork_join_returns_in_job_order_and_names_a_failed_job():
    def job(k):
        time.sleep(0.1 * (2 - k))  # the first job ends last
        return k, os.getpid()

    def fails():
        raise ValueError("the second job fails")

    parent = os.getpid()
    ran_here = []
    # three jobs on two CPUs
    jobs = [(f"job {k}", k % 2, lambda k=k: job(k)) for k in range(3)]
    values = geo.fork_join(lambda: ran_here.append(os.getpid()), jobs)
    assert [k for k, _ in values] == [0, 1, 2]
    assert ran_here == [parent]
    assert parent not in {pid for _, pid in values} and len({pid for _, pid in values}) == 3
    jobs[1] = ("job 1", 1, fails)
    with pytest.raises(RuntimeError, match=r"^job 1 exited with code 1$"):
        geo.fork_join(lambda: None, jobs)
    assert multiprocessing.active_children() == []


def test_one_process_fill_needs_no_fork_context(monkeypatch):
    # where fork is missing (Windows), asking for its context raises
    def no_fork(method=None):
        raise ValueError(f"cannot find context for {method!r}")

    monkeypatch.setattr(multiprocessing, "get_context", no_fork)
    points = random_points(50, 11)
    out = pairwise_meters(points)
    assert out[3, 17] == haversine_distance(points[3], points[17]) == out[17, 3]
    assert geo.fork_join(lambda: None, []) == []


def test_usable_cpus_env(monkeypatch):
    # The affinity count, or 1 where the platform has no CPU affinity.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
    assert geo.usable_cpus() == 4
    monkeypatch.delattr(os, "sched_getaffinity")
    assert geo.usable_cpus() == 1
