"""Spherical geometry primitives shared by the clustering and routing layers."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

# Mean Earth radius in meters.  Every distance and every clustering radius is
# in meters on this sphere; it is deliberately not configurable so that
# clustering radii and reported distances stay on the same sphere.
METERS_PER_RADIAN = 6_371_008.8


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
