"""Spherical geometry primitives shared by the clustering and routing layers.

HaversineKernel, the array form of haversine_distance, is the one array
distance kernel: the solver's matrix (pairwise_meters) and the clustering
tree both use it, so each of their values equals haversine_distance to the bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat
from typing import Sequence

import numpy as np

# Mean Earth radius in meters.  Every distance and every clustering radius is
# in meters on this sphere; it is deliberately not configurable so that
# clustering radii and reported distances stay on the same sphere.
METERS_PER_RADIAN = 6_371_008.8

# Cells (i < j) per pairwise_meters block: enough to amortize its numpy
# calls at every n, few enough that the block's temporaries stay small.
_UPPER_BLOCK = 1 << 15
_MIRROR_BLOCK = 256  # rows per block of the pairwise_meters mirror pass


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
    h = math.sin(dlat / 2.0) ** 2 + math.cos(lat1) * math.cos(lat2) * math.sin(dlon / 2.0) ** 2
    return 2.0 * METERS_PER_RADIAN * math.asin(math.sqrt(h))


class HaversineKernel:
    """haversine_distance between points of one sequence, a whole array of
    index pairs at a time.

    kernel(i, j)[k] equals haversine_distance(points[i[k]], points[j[k]]) to
    the last bit.  numpy does only steps that IEEE 754 rounds correctly, in
    the scalar expression's order: the differences, the halving, np.radians
    (the same x * (pi / 180) as math.radians), the products, the sum and the
    square root.  math.sin, the ** 2 (libm pow, through float.__pow__) and
    math.asin run through map over Python floats, so every libm call gets the
    scalar kernel's argument.  lat holds the latitudes in radians, lon the
    longitudes in degrees and cos_lat math.cos of lat: the values every cell
    reads.  Coordinates must pass check_coordinate, so that the haversine
    term is never negative.
    """

    def __init__(self, points: Sequence[GeoPoint]):
        n = len(points)
        self.lat = np.radians(np.fromiter((p.lat for p in points), dtype=np.float64, count=n))
        self.lon = np.fromiter((p.lon for p in points), dtype=np.float64, count=n)
        self.cos_lat = np.fromiter(map(math.cos, self.lat.tolist()), dtype=np.float64, count=n)

    def __call__(self, i: np.ndarray, j: np.ndarray) -> np.ndarray:
        cells = len(i)
        # A memoryview iterates as Python floats; pow(x, 2.0) is the call
        # that x ** 2 makes once it has turned the int 2 into 2.0.
        half_dlat = memoryview((self.lat[j] - self.lat[i]) / 2.0)
        half_dlon = memoryview(np.radians(self.lon[j] - self.lon[i]) / 2.0)
        sin2_lat = np.fromiter(map(pow, map(math.sin, half_dlat), repeat(2.0)), dtype=np.float64, count=cells)
        sin2_lon = np.fromiter(map(pow, map(math.sin, half_dlon), repeat(2.0)), dtype=np.float64, count=cells)
        h = sin2_lat + self.cos_lat[i] * self.cos_lat[j] * sin2_lon
        arc = np.fromiter(map(math.asin, memoryview(np.sqrt(h))), dtype=np.float64, count=cells)
        return 2.0 * METERS_PER_RADIAN * arc


def pairwise_meters(points: Sequence[GeoPoint]) -> np.ndarray:
    """The full symmetric (n, n) array of haversine_distance in meters, equal
    to the last bit, with 0.0 on the diagonal.

    HaversineKernel fills the upper triangle a block of whole rows at a
    time, and adding the transpose mirrors it exactly, because x + 0.0 == x.
    """
    n = len(points)
    out = np.zeros((n, n))
    kernel = HaversineKernel(points)
    flat = out.reshape(-1)
    step = max(1, _UPPER_BLOCK // max(n, 1))
    for a in range(0, n - 1, step):
        rows = np.arange(a, min(a + step, n - 1))
        counts = n - 1 - rows
        cells = int(counts.sum())
        i = np.repeat(rows, counts)
        # Row r's cells start at block offset s_r = cumsum - counts, and the
        # one at offset s_r + k holds j = r + 1 + k.
        j = np.arange(cells) - np.repeat(np.cumsum(counts) - counts - rows - 1, counts)
        flat[i * n + j] = kernel(i, j)
    # Block by rows so that the transpose's copy stays small: rows a..b
    # read only columns a..b, which no earlier block wrote.
    for a in range(0, n, _MIRROR_BLOCK):
        b = a + _MIRROR_BLOCK
        out[a:b, :b] += out[:b, a:b].T
    return out
