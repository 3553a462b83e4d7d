"""Density clustering over geographic points.

The clustering radius is angular (radians on the unit sphere) so callers
convert metric radii through geo.meters_to_radians.  With min_samples = 1 the
result is exactly the connected components of the epsilon-neighborhood graph,
which is the property the radius search above this module relies on.  Those
components are the cuts at epsilon of one minimum spanning tree (Gower and
Ross, 1969), so a single SpanningTree answers every radius over the same
points, and the part of it inside one cluster answers every radius over that
cluster.  The seeded expansion with a dense matrix or a grid index serves
min_samples > 1 and callers that pass their own pairwise matrix.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .geo import METERS_PER_RADIAN, GeoPoint

# With min_samples > 1, above this point count the O(n^2) neighborhood scan
# gets replaced by a grid index whose cell edge equals the search radius.  The
# min_samples = 1 case cuts a spanning tree at every size instead.
BRUTE_FORCE_LIMIT = 2000

_UNSEEN = -2
NOISE = -1


class EmptyInputError(ValueError):
    """Raised when clustering is asked to label zero points."""


@dataclass(frozen=True)
class DbscanParams:
    """Angular radius and the core-point density threshold."""

    epsilon: float
    min_samples: int = 1

    def __post_init__(self) -> None:
        if self.epsilon <= 0 or not math.isfinite(self.epsilon):
            raise ValueError(f"epsilon must be finite and positive, got {self.epsilon}")
        if self.min_samples < 1:
            raise ValueError(f"min_samples must be at least 1, got {self.min_samples}")


@dataclass(frozen=True)
class ClusterLabels:
    """Per-point cluster labels, contiguous from 0 in discovery order."""

    labels: tuple[int, ...]

    @property
    def n_clusters(self) -> int:
        return max(self.labels, default=NOISE) + 1

    def clusters(self) -> list[list[int]]:
        """Member indices per cluster; noise points are not included."""
        out: list[list[int]] = [[] for _ in range(self.n_clusters)]
        for idx, label in enumerate(self.labels):
            if label != NOISE:
                out[label].append(idx)
        return out


def _radian_arrays(points: Sequence[GeoPoint]) -> tuple[np.ndarray, np.ndarray]:
    lat = np.radians(np.fromiter((p.lat for p in points), dtype=np.float64, count=len(points)))
    lon = np.radians(np.fromiter((p.lon for p in points), dtype=np.float64, count=len(points)))
    return lat, lon


def pairwise_meters(points: Sequence[GeoPoint]) -> np.ndarray:
    """Full symmetric haversine distance matrix in meters."""
    lat, lon = _radian_arrays(points)
    dlat = lat[:, None] - lat[None, :]
    dlon = lon[:, None] - lon[None, :]
    h = np.sin(dlat / 2.0) ** 2 + np.cos(lat)[:, None] * np.cos(lat)[None, :] * np.sin(dlon / 2.0) ** 2
    np.clip(h, 0.0, 1.0, out=h)
    return 2.0 * METERS_PER_RADIAN * np.arcsin(np.sqrt(h))


@dataclass(frozen=True, eq=False)
class SpanningTree:
    """Minimum spanning tree over n points, edges ascending by weight in meters.

    Edge k joins heads[k] and tails[k] at weights[k].  The weights are the
    exact pairwise_meters values, so a cut agrees with the dense path at
    every radius, ties included.
    """

    n: int
    heads: np.ndarray
    tails: np.ndarray
    weights: np.ndarray

    def cut(self, eps_m: float) -> ClusterLabels:
        """Components joined by the edges of weight at most eps_m, labeled so
        that the component holding the lowest untouched index gets the next
        label."""
        k = int(np.searchsorted(self.weights, eps_m, side="right"))
        root = list(range(self.n))

        def find(x: int) -> int:
            while root[x] != x:
                root[x] = root[root[x]]
                x = root[x]
            return x

        for a, b in zip(self.heads[:k].tolist(), self.tails[:k].tolist()):
            ra, rb = find(a), find(b)
            if ra != rb:
                root[max(ra, rb)] = min(ra, rb)
        label_of: dict[int, int] = {}
        labels = (label_of.setdefault(find(i), len(label_of)) for i in range(self.n))
        return ClusterLabels(tuple(labels))

    def subtree(self, members: Sequence[int]) -> SpanningTree:
        """The edges inside one cluster of some cut, re-indexed so that
        members[k] becomes point k.  That subtree is the cluster's own
        minimum spanning tree."""
        pos = np.full(self.n, -1, dtype=np.int64)
        pos[np.asarray(members, dtype=np.int64)] = np.arange(len(members))
        heads, tails = pos[self.heads], pos[self.tails]
        inside = (heads >= 0) & (tails >= 0)
        if int(inside.sum()) != len(members) - 1:
            raise ValueError("members are not one connected piece of the tree")
        return SpanningTree(len(members), heads[inside], tails[inside], self.weights[inside])


def spanning_tree(points: Sequence[GeoPoint]) -> SpanningTree:
    """Prim's algorithm over exact haversine weights.

    Each step computes one row of the haversine term h, from the point just
    added to the points still outside the tree, written term for term like
    pairwise_meters.  Prim compares h itself: meters are a monotone function
    of h, so the tree is a minimum spanning tree in meters too.  Only the
    n - 1 chosen h become meters, with the pairwise_meters expression, so the
    weights match it bit for bit.  Memory stays O(n).
    """
    n = len(points)
    if n == 0:
        raise EmptyInputError("cannot build a spanning tree over an empty point set")
    lat, lon = _radian_arrays(points)
    cos_lat = np.cos(lat)
    # The points outside the tree sit in the first m slots of the out_*,
    # best and via arrays: the one that joins swaps places with the last.
    out_idx = np.arange(1, n, dtype=np.int64)
    out_lat, out_lon, out_cos = lat[1:].copy(), lon[1:].copy(), cos_lat[1:].copy()
    best = np.full(n - 1, np.inf)
    via = np.zeros(n - 1, dtype=np.int64)
    heads = np.empty(n - 1, dtype=np.int64)
    tails = np.empty(n - 1, dtype=np.int64)
    weights = np.empty(n - 1)
    u = 0
    for step, m in enumerate(range(n - 1, 0, -1)):
        dlat = lat[u] - out_lat[:m]
        dlon = lon[u] - out_lon[:m]
        h = np.sin(dlat / 2.0) ** 2 + cos_lat[u] * out_cos[:m] * np.sin(dlon / 2.0) ** 2
        np.clip(h, 0.0, 1.0, out=h)
        closer = h < best[:m]
        best[:m][closer] = h[closer]
        via[:m][closer] = u
        j = int(np.argmin(best[:m]))
        v = int(out_idx[j])
        heads[step], tails[step], weights[step] = via[j], v, best[j]
        u = v
        for arr in (out_idx, out_lat, out_lon, out_cos, best, via):
            arr[j], arr[m - 1] = arr[m - 1], arr[j]
    weights = 2.0 * METERS_PER_RADIAN * np.arcsin(np.sqrt(weights))
    order = np.argsort(weights, kind="stable")
    return SpanningTree(n, heads[order], tails[order], weights[order])


def region_query(points: Sequence[GeoPoint], center_index: int, epsilon: float) -> list[int]:
    """Indices of all points within the angular radius of the given center.

    The center itself is always included and the boundary is inclusive.
    """
    if not 0 <= center_index < len(points):
        raise IndexError(f"center index {center_index} out of range for {len(points)} points")
    if epsilon < 0:
        raise ValueError("epsilon must be non-negative")
    eps_m = epsilon * METERS_PER_RADIAN
    center = points[center_index]
    clat = math.radians(center.lat)
    clon = math.radians(center.lon)
    cos_clat = math.cos(clat)
    out = []
    for idx, p in enumerate(points):
        dlat = math.radians(p.lat) - clat
        dlon = math.radians(p.lon) - clon
        h = math.sin(dlat / 2.0) ** 2 + cos_clat * math.cos(math.radians(p.lat)) * math.sin(dlon / 2.0) ** 2
        if 2.0 * METERS_PER_RADIAN * math.asin(math.sqrt(min(h, 1.0))) <= eps_m:
            out.append(idx)
    return out


class _GridIndex:
    """Uniform lat/lon grid with cell edge equal to the search radius.

    A neighborhood query only has to look at the 3x3 block of cells around
    the center, then filter the candidates by exact distance.
    """

    def __init__(self, points: Sequence[GeoPoint], epsilon: float):
        self.lat, self.lon = _radian_arrays(points)
        self.eps_m = epsilon * METERS_PER_RADIAN
        eps_deg = math.degrees(epsilon)
        max_abs_lat = max((abs(p.lat) for p in points), default=0.0)
        lon_shrink = max(math.cos(math.radians(min(max_abs_lat, 89.9))), 1e-9)
        self.cell_lat = max(eps_deg, 1e-12)
        self.cell_lon = max(eps_deg / lon_shrink, 1e-12)
        self.cells: dict[tuple[int, int], list[int]] = {}
        for idx, p in enumerate(points):
            key = (math.floor(p.lat / self.cell_lat), math.floor(p.lon / self.cell_lon))
            self.cells.setdefault(key, []).append(idx)
        self._points = points

    def neighbors(self, index: int) -> np.ndarray:
        p = self._points[index]
        ci = math.floor(p.lat / self.cell_lat)
        cj = math.floor(p.lon / self.cell_lon)
        candidates: list[int] = []
        for di in (-1, 0, 1):
            for dj in (-1, 0, 1):
                bucket = self.cells.get((ci + di, cj + dj))
                if bucket:
                    candidates.extend(bucket)
        cand = np.array(sorted(candidates), dtype=np.int64)
        dlat = self.lat[cand] - self.lat[index]
        dlon = self.lon[cand] - self.lon[index]
        h = np.sin(dlat / 2.0) ** 2 + math.cos(self.lat[index]) * np.cos(self.lat[cand]) * np.sin(dlon / 2.0) ** 2
        np.clip(h, 0.0, 1.0, out=h)
        dist = 2.0 * METERS_PER_RADIAN * np.arcsin(np.sqrt(h))
        return cand[dist <= self.eps_m]


def _components_dense(adjacency: np.ndarray) -> ClusterLabels:
    """Connected components of a dense adjacency matrix, labeled so that the
    component holding the lowest untouched index gets the next label.

    Equivalent to the seeded expansion below when every point is core, but
    runs whole frontiers per step instead of single points.
    """
    n = adjacency.shape[0]
    labels = np.full(n, _UNSEEN, dtype=np.int64)
    cluster = 0
    for seed in range(n):
        if labels[seed] != _UNSEEN:
            continue
        member = adjacency[seed].copy()
        member[seed] = True
        frontier_size = int(member.sum())
        while True:
            reached = adjacency[member].any(axis=0)
            member |= reached
            size = int(member.sum())
            if size == frontier_size:
                break
            frontier_size = size
        labels[member] = cluster
        cluster += 1
    return ClusterLabels(tuple(int(x) for x in labels))


def dbscan(
    points: Sequence[GeoPoint],
    params: DbscanParams,
    *,
    pairwise: Optional[np.ndarray] = None,
    tree: Optional[SpanningTree] = None,
) -> ClusterLabels:
    """Label every point with its density cluster.

    Seeds are scanned in ascending index order and expansion is breadth-first
    over ascending neighbor indices, so labels are deterministic.  With
    min_samples = 1 and no pairwise matrix the labels are a cut of the
    spanning tree; pass one from spanning_tree(points) to amortize repeated
    runs over the same points at different radii.  A pairwise matrix selects
    the dense path instead.
    """
    n = len(points)
    if n == 0:
        raise EmptyInputError("cannot cluster an empty point set")

    eps_m = params.epsilon * METERS_PER_RADIAN
    if params.min_samples == 1 and pairwise is None:
        if tree is None:
            tree = spanning_tree(points)
        elif tree.n != n:
            raise ValueError(f"spanning tree covers {tree.n} points, got {n}")
        return tree.cut(eps_m)

    if pairwise is None and n <= BRUTE_FORCE_LIMIT:
        pairwise = pairwise_meters(points)

    if pairwise is not None:
        if params.min_samples == 1:
            # Every point is core, so the clusters are plain connected
            # components and can be flooded a frontier at a time.
            return _components_dense(pairwise <= eps_m)
        matrix = pairwise

        def neighbors(i: int) -> np.ndarray:
            return np.flatnonzero(matrix[i] <= eps_m)

    else:
        grid = _GridIndex(points, params.epsilon)
        neighbors = grid.neighbors

    labels = np.full(n, _UNSEEN, dtype=np.int64)
    cluster = 0
    for seed in range(n):
        if labels[seed] != _UNSEEN:
            continue
        seed_neighbors = neighbors(seed)
        if len(seed_neighbors) < params.min_samples:
            labels[seed] = NOISE
            continue
        labels[seed] = cluster
        queue = deque(int(j) for j in seed_neighbors if labels[j] in (_UNSEEN, NOISE))
        while queue:
            j = queue.popleft()
            if labels[j] == NOISE:
                labels[j] = cluster  # border point adopted by the first core reaching it
                continue
            if labels[j] != _UNSEEN:
                continue
            labels[j] = cluster
            j_neighbors = neighbors(j)
            if len(j_neighbors) >= params.min_samples:
                queue.extend(int(k) for k in j_neighbors if labels[k] in (_UNSEEN, NOISE))
        cluster += 1
    return ClusterLabels(tuple(int(x) for x in labels))
