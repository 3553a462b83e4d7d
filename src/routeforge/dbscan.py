"""Density clustering over geographic points.

The clustering radius is angular (radians on the unit sphere) so callers
convert metric radii through geo.meters_to_radians.  A cluster is a connected
component of the epsilon-neighborhood graph, which is DBSCAN with every point
a core point and the property the radius search above this module relies on.
Those components are the cuts at epsilon of one minimum spanning tree (Gower
and Ross, 1969), so a single SpanningTree answers every radius over the same
points, and the part of it inside one cluster answers every radius over that
cluster.  Flooding the thresholded pairwise matrix gives the same labels in
O(n^2) memory; it stays as the reference the tree cut is tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .geo import METERS_PER_RADIAN, GeoPoint

# No package code branches on this point count: every probe cuts the spanning
# tree at any size.  It stays bound because perfbench/tracer.py reads it to
# label probes; retargeting those labels to the tree is an open ROADMAP item.
BRUTE_FORCE_LIMIT = 2000


class EmptyInputError(ValueError):
    """Raised when clustering is asked to label zero points."""


@dataclass(frozen=True)
class DbscanParams:
    """Angular neighborhood radius."""

    epsilon: float

    def __post_init__(self) -> None:
        if self.epsilon <= 0 or not math.isfinite(self.epsilon):
            raise ValueError(f"epsilon must be finite and positive, got {self.epsilon}")


@dataclass(frozen=True)
class ClusterLabels:
    """Per-point cluster labels, contiguous from 0 in discovery order."""

    labels: tuple[int, ...]

    @property
    def n_clusters(self) -> int:
        return max(self.labels, default=-1) + 1

    def clusters(self) -> list[list[int]]:
        """Member indices per cluster, ascending."""
        out: list[list[int]] = [[] for _ in range(self.n_clusters)]
        for idx, label in enumerate(self.labels):
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


def _components_dense(adjacency: np.ndarray) -> ClusterLabels:
    """Connected components of a dense adjacency matrix, labeled so that the
    component holding the lowest untouched index gets the next label.

    Each component is flooded a whole frontier per step.
    """
    n = adjacency.shape[0]
    labels = np.full(n, -1, dtype=np.int64)
    cluster = 0
    for seed in range(n):
        if labels[seed] != -1:
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

    Labels count up from 0 in order of each cluster's lowest index.  Without
    a pairwise matrix the labels are a cut of the spanning tree; pass one
    from spanning_tree(points) to amortize repeated runs over the same points
    at different radii.  With a pairwise matrix the labels are its connected
    components at the radius instead, the dense reference for the tree cut.
    """
    n = len(points)
    if n == 0:
        raise EmptyInputError("cannot cluster an empty point set")

    eps_m = params.epsilon * METERS_PER_RADIAN
    if pairwise is not None:
        return _components_dense(pairwise <= eps_m)
    if tree is None:
        tree = spanning_tree(points)
    elif tree.n != n:
        raise ValueError(f"spanning tree covers {tree.n} points, got {n}")
    return tree.cut(eps_m)
