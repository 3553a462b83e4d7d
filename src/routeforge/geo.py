"""Spherical geometry primitives shared by the clustering and routing layers.

HaversineKernel, the array form of haversine_distance, is the one array
distance kernel: the solver's matrix (pairwise_meters) and the clustering
tree both use it, so each of their values equals haversine_distance to the bit.
A distance makes three libm calls (two math.sin, one math.asin); the squares
of the half-difference sines are IEEE products, correctly rounded in Python
and numpy alike.

pairwise_meters fills a large matrix on every usable CPU: forked children
fill contiguous row ranges of one shared mapping, each cell through the same
kernel call, so the array is bit for bit the one-process fill.  fork_join
starts those children, the pipeline's pre-solve children and the fenced
child of a budgeted bench run alike.  usable_cpus (the CPU affinity) sizes
the fill and the pre-solves, and may_fork decides for both whether forking
is safe; a process run on one CPU (taskset -c 0) keeps both in process.
"""

from __future__ import annotations

import math
import mmap
import multiprocessing
import os
import threading
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Optional, Sequence

import numpy as np

# Mean Earth radius in meters.  Every distance and every clustering radius is
# in meters on this sphere; it is deliberately not configurable so that
# clustering radii and reported distances stay on the same sphere.
METERS_PER_RADIAN = 6_371_008.8

# Cells (i < j) per pairwise_meters block: enough to amortize its numpy
# calls at every n, few enough that the block's temporaries stay small.
_UPPER_BLOCK = 1 << 15
_MIRROR_BLOCK = 256  # rows per block of the pairwise_meters mirror pass
# Fewest upper-triangle cells that pairwise_meters splits across processes.
# Below it, starting and placing a child costs more than the half of the
# fill it takes over: on a 2-vCPU Xeon the two met near 65k cells.
_FORK_MIN_CELLS = 1 << 16


@dataclass(frozen=True)
class GeoPoint:
    """A WGS84 coordinate pair in decimal degrees."""

    lat: float
    lon: float


def check_coordinate(point: GeoPoint, label: str, error: type[ValueError] = ValueError) -> None:
    """Raise error unless lat is in [-90, 90] and lon in [-180, 180]; NaN is in neither."""
    if not (-90.0 <= point.lat <= 90.0 and -180.0 <= point.lon <= 180.0):
        raise error(f"{label} coordinate out of range: {point}")


def haversine_distance(a: GeoPoint, b: GeoPoint) -> float:
    """Great-circle distance between two points in meters.

    Uses the haversine formulation on a sphere of radius METERS_PER_RADIAN,
    which is numerically stable for the short hops typical of urban routing.
    """
    lat1 = math.radians(a.lat)
    lat2 = math.radians(b.lat)
    dlat = lat2 - lat1
    dlon = math.radians(b.lon - a.lon)
    s_lat = math.sin(dlat / 2.0)
    s_lon = math.sin(dlon / 2.0)
    h = s_lat * s_lat + math.cos(lat1) * math.cos(lat2) * (s_lon * s_lon)
    return 2.0 * METERS_PER_RADIAN * math.asin(math.sqrt(h))


class HaversineKernel:
    """haversine_distance between points of one sequence, a whole array of
    index pairs at a time.

    kernel(i, j)[k] equals haversine_distance(points[i[k]], points[j[k]]) to
    the last bit.  numpy does only steps that IEEE 754 rounds correctly, in
    the scalar expression's order: the differences, the halving, np.radians
    (the same x * (pi / 180) as math.radians), the squares and the other
    products, the sum and the square root.  The three libm calls per cell,
    math.sin twice and math.asin once, run through map over Python floats,
    so every libm call gets the scalar kernel's argument.  lat holds the
    latitudes in radians, lon the longitudes in degrees and cos_lat math.cos
    of lat: the values every cell reads.  Coordinates must pass check_coordinate, so that the haversine
    term is never negative.
    """

    def __init__(self, points: Sequence[GeoPoint]):
        n = len(points)
        self.lat = np.radians(np.fromiter((p.lat for p in points), dtype=np.float64, count=n))
        self.lon = np.fromiter((p.lon for p in points), dtype=np.float64, count=n)
        self.cos_lat = np.fromiter(map(math.cos, self.lat.tolist()), dtype=np.float64, count=n)

    def __call__(self, i: np.ndarray, j: np.ndarray) -> np.ndarray:
        cells = len(i)
        # A memoryview iterates as Python floats.
        half_dlat = memoryview((self.lat[j] - self.lat[i]) / 2.0)
        half_dlon = memoryview(np.radians(self.lon[j] - self.lon[i]) / 2.0)
        s_lat = np.fromiter(map(math.sin, half_dlat), dtype=np.float64, count=cells)
        s_lon = np.fromiter(map(math.sin, half_dlon), dtype=np.float64, count=cells)
        h = s_lat * s_lat + self.cos_lat[i] * self.cos_lat[j] * (s_lon * s_lon)
        arc = np.fromiter(map(math.asin, memoryview(np.sqrt(h))), dtype=np.float64, count=cells)
        return 2.0 * METERS_PER_RADIAN * arc


def usable_cpus() -> int:
    """The number of CPUs this process may run on, or 1 where the platform
    has no CPU affinity (macOS, Windows), and no safe fork either."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return 1


def place_on(cpu: int) -> None:
    """Move this process to `cpu`, then let it run on the CPUs it inherited
    again: placed, not pinned.  Left to the scheduler, a process and the
    child it just forked can share one CPU for a whole fill or pre-solve phase;
    the restored set still lets the scheduler move a process off a CPU that
    another process keeps busy.  Where the affinity calls fail, the process
    runs where it is."""
    try:
        inherited = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {cpu})
        os.sched_setaffinity(0, inherited)
    except OSError:
        pass


def may_fork() -> bool:
    """Whether this process may start forked children: the one rule for the
    matrix fill and the pipeline's pre-solves.  A daemonic process (a fill
    or pre-solve child, the fenced child of a budgeted bench run) may not
    start children, and a fork would copy whatever locks other threads hold."""
    return not multiprocessing.current_process().daemon and threading.active_count() == 1


def fork_join(here: Callable[[], None], jobs: Sequence[tuple[str, Optional[int], Callable[[], Any]]]) -> list:
    """Run each (name, cpu, job) in a forked daemonic child placed on `cpu`,
    or left where it starts if `cpu` is None, and here() in this process
    meanwhile.  Return the jobs' values in job order, each sent once over
    its child's own pipe (None if it sent none).  Every child is joined, or
    terminated when this process fails first; one that exits non-zero, or
    is killed by a signal, raises RuntimeError "{name} exited with code
    {code}".  The matrix fill and the pre-solves check may_fork() first.
    Without jobs, no fork context is used."""
    if not jobs:
        here()
        return []
    context = multiprocessing.get_context("fork")
    children = []
    try:
        for name, cpu, job in jobs:
            reader, writer = context.Pipe(duplex=False)
            child = context.Process(target=_run_job, args=(cpu, job, writer), daemon=True)
            child.start()
            writer.close()  # so that reading a child that died ends in EOFError
            children.append((name, child, reader))
        here()
        values = []
        for _, child, reader in children:
            try:
                values.append(reader.recv())
            except EOFError:
                values.append(None)
            child.join()
    finally:
        for _, child, reader in children:
            reader.close()
            if child.exitcode is None:
                child.terminate()
                child.join()
    for name, child, _ in children:
        if child.exitcode != 0:
            raise RuntimeError(f"{name} exited with code {child.exitcode}")
    return values


def _run_job(cpu: Optional[int], job: Callable[[], Any], out) -> None:
    if cpu is not None:
        place_on(cpu)
    out.send(job())


def _fill_workers(cells: int) -> int:
    """How many processes fill `cells` upper-triangle cells.  One, unless
    the fill is large enough to pay for a fork and may_fork() holds."""
    if cells < _FORK_MIN_CELLS or not may_fork():
        return 1
    return usable_cpus()


def _row_ranges(n: int, parts: int) -> list[tuple[int, int]]:
    """Rows 0..n-2 of the upper triangle as `parts` contiguous [lo, hi)
    ranges of about equal cell count; the last ones may be empty."""
    before = np.concatenate(([0], np.cumsum(np.arange(n - 1, 0, -1))))  # cells in rows < r
    bounds = np.searchsorted(before, before[-1] * np.arange(parts + 1) / parts).tolist()
    return list(zip(bounds, bounds[1:]))


def _fill_upper(kernel: HaversineKernel, flat: np.ndarray, n: int, lo: int, hi: int) -> None:
    """Write the cells i < j of rows lo..hi-1 into the row-major n * n `flat`,
    a block of whole rows at a time."""
    step = max(1, _UPPER_BLOCK // max(n, 1))
    for a in range(lo, hi, step):
        rows = np.arange(a, min(a + step, hi))
        counts = n - 1 - rows
        cells = int(counts.sum())
        i = np.repeat(rows, counts)
        # Row r's cells start at block offset s_r = cumsum - counts, and the
        # one at offset s_r + k holds j = r + 1 + k.
        j = np.arange(cells) - np.repeat(np.cumsum(counts) - counts - rows - 1, counts)
        flat[i * n + j] = kernel(i, j)


def pairwise_meters(points: Sequence[GeoPoint]) -> np.ndarray:
    """The full symmetric (n, n) array of haversine_distance in meters, equal
    to the last bit, with 0.0 on the diagonal.

    HaversineKernel fills the upper triangle, and adding the transpose
    mirrors it exactly, because x + 0.0 == x.  The upper triangle is split
    into contiguous row ranges of equal cell count, one per process (see
    _fill_workers): this process fills the first on the first usable CPU,
    and fork_join's children fill the rest, on the next CPUs, into one
    shared anonymous mapping.  The kernel is elementwise, so every cell is
    the same float whatever the split.  A failed child raises RuntimeError.
    """
    n = len(points)
    kernel = HaversineKernel(points)
    own, *rest = _row_ranges(n, _fill_workers(n * (n - 1) // 2))
    rest = [(lo, hi) for lo, hi in rest if lo < hi]
    # Children write into a shared anonymous mapping; it starts zeroed, as
    # np.zeros does.
    out = np.frombuffer(mmap.mmap(-1, n * n * 8), dtype=np.float64).reshape(n, n) if rest else np.zeros((n, n))
    flat = out.reshape(-1)
    cpus = sorted(os.sched_getaffinity(0)) if rest else []
    fill = partial(_fill_upper, kernel, flat, n)

    def fill_own() -> None:
        if cpus:
            place_on(cpus[0])
        fill(*own)

    jobs = [
        (f"pairwise_meters: the child filling rows {lo}..{hi - 1}", cpus[k % len(cpus)], partial(fill, lo, hi))
        for k, (lo, hi) in enumerate(rest, start=1)
    ]
    fork_join(fill_own, jobs)
    # Block by rows so that the transpose's copy stays small: rows a..b
    # read only columns a..b, which no earlier block wrote.
    for a in range(0, n, _MIRROR_BLOCK):
        b = a + _MIRROR_BLOCK
        out[a:b, :b] += out[:b, a:b].T
    return out
