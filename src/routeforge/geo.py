"""Spherical geometry primitives shared by the clustering and routing layers."""

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

# Cells (i < j) per haversine_upper block: enough to amortize its numpy
# calls at every n, few enough that the block's temporaries stay small.
_UPPER_BLOCK = 1 << 15


@dataclass(frozen=True)
class GeoPoint:
    """A WGS84 coordinate pair in decimal degrees."""

    lat: float
    lon: float


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


def haversine_upper(points: Sequence[GeoPoint]) -> np.ndarray:
    """An (n, n) array with haversine_distance(points[i], points[j]) in every
    cell i < j, equal to the last bit, and 0.0 in every other cell.

    The cells are computed a block of whole rows at a time.  numpy does only
    steps that IEEE 754 rounds correctly, in the scalar expression's order:
    the differences, the halving, np.radians (the same x * (pi / 180) as
    math.radians), the products, the sum and the square root.  math.sin, the
    ** 2 (libm pow, through float.__pow__) and math.asin run through map over
    Python floats, so every libm call gets the scalar kernel's argument.
    Latitudes must lie in [-90, 90], as ProblemInstance checks, so that the
    haversine term is never negative.
    """
    n = len(points)
    out = np.zeros((n, n))
    lat = np.radians(np.fromiter((p.lat for p in points), dtype=np.float64, count=n))
    lon = np.fromiter((p.lon for p in points), dtype=np.float64, count=n)
    cos_lat = np.fromiter(map(math.cos, lat.tolist()), dtype=np.float64, count=n)
    flat = out.reshape(-1)
    two_r = 2.0 * METERS_PER_RADIAN
    sin, asin = math.sin, math.asin
    step = max(1, _UPPER_BLOCK // max(n, 1))
    for a in range(0, n - 1, step):
        rows = np.arange(a, min(a + step, n - 1))
        counts = n - 1 - rows
        cells = int(counts.sum())
        i = np.repeat(rows, counts)
        # Row r's cells start at block offset s_r = cumsum - counts, and the
        # one at offset s_r + k holds j = r + 1 + k.
        j = np.arange(cells) - np.repeat(np.cumsum(counts) - counts - rows - 1, counts)
        # A memoryview iterates as Python floats; pow(x, 2.0) is the call
        # that x ** 2 makes once it has turned the int 2 into 2.0.
        half_dlat = memoryview((lat[j] - lat[i]) / 2.0)
        half_dlon = memoryview(np.radians(lon[j] - lon[i]) / 2.0)
        sin2_lat = np.fromiter(map(pow, map(sin, half_dlat), repeat(2.0)), dtype=np.float64, count=cells)
        sin2_lon = np.fromiter(map(pow, map(sin, half_dlon), repeat(2.0)), dtype=np.float64, count=cells)
        h = sin2_lat + cos_lat[i] * cos_lat[j] * sin2_lon
        arc = np.fromiter(map(asin, memoryview(np.sqrt(h))), dtype=np.float64, count=cells)
        flat[i * n + j] = two_r * arc
    return out


def radian_arrays(points: Sequence[GeoPoint]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Latitudes and longitudes in radians, and the cosines of the latitudes."""
    lat = np.radians(np.fromiter((p.lat for p in points), dtype=np.float64, count=len(points)))
    lon = np.radians(np.fromiter((p.lon for p in points), dtype=np.float64, count=len(points)))
    return lat, lon, np.cos(lat)


def haversine_h(lat1, lon1, cos1, lat2, lon2, cos2) -> np.ndarray:
    """haversine_distance's term h, clipped to [0, 1], between broadcastable
    radian_arrays.  Every array distance goes through it and h_meters, so
    equal inputs give equal meters to the last bit in every caller."""
    h = np.sin((lat1 - lat2) / 2.0) ** 2 + cos1 * cos2 * np.sin((lon1 - lon2) / 2.0) ** 2
    return np.clip(h, 0.0, 1.0, out=h)


def h_meters(h: np.ndarray) -> np.ndarray:
    """Great-circle meters of a haversine term, a monotone function of h."""
    return 2.0 * METERS_PER_RADIAN * np.arcsin(np.sqrt(h))
