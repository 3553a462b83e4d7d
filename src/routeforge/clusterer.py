"""Radius search and recursive decomposition on top of density clustering.

The searches exploit two monotone facts about clusters that are the
connected components at a radius: growing the radius only ever merges
clusters, so the cluster count shrinks and the average cluster size grows.
Feasibility under either criterion is therefore a prefix of the radius axis
and a plain integer binary search finds the largest workable radius.  Every
probe is a lookup on one spanning tree built per search, and only the
winning radius is cut.  Radii stay whole meters up to that cut, whose member
lists become the clusters.  Each recursion level probes the part of the tree
inside one oversized cluster and cuts it once the same way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence

from .dbscan import SpanningTree, dbscan, spanning_tree

# pairwise_meters is not called here; it stays bound because
# perfbench/tracer.py wraps this module's calls into the dbscan layer.
from .geo import GeoPoint, haversine_distance, pairwise_meters  # noqa: F401
from .model import _whole

# Beyond this depth the decomposition is assumed to be stuck on pathological
# input (for example large blocks of coincident points).
RECURSION_LIMIT = 32


class NoSolutionFoundError(Exception):
    """Raised when a solve finds no plan; run_strategy sets its wall time."""

    def __init__(self, message: str):
        super().__init__(message)
        self.wall_time_ms: Optional[float] = None


class RecursionLimitError(NoSolutionFoundError):
    """Raised when the decomposition recurses implausibly deep."""


class Feasibility(str, Enum):
    """What makes a probed clustering acceptable during the radius search."""

    MAX_SIZE_CAP = "MAX_SIZE_CAP"
    MIN_CLUSTER_COUNT = "MIN_CLUSTER_COUNT"


@dataclass(frozen=True)
class ClusterConfig:
    """Search range in whole meters plus the cluster size targets."""

    min_radius: int = 1
    max_radius: int = 10_000
    max_cluster_size: int = 500
    min_cluster_size: int = 35

    def __post_init__(self) -> None:
        for name in ("min_radius", "max_radius", "max_cluster_size", "min_cluster_size"):
            object.__setattr__(self, name, _whole(getattr(self, name), name))
        if self.min_radius < 0:
            raise ValueError("min_radius must be non-negative")
        if self.min_radius > self.max_radius:
            raise ValueError(f"min_radius {self.min_radius} exceeds max_radius {self.max_radius}")
        if self.max_cluster_size < 1:
            raise ValueError("max_cluster_size must be at least 1")
        if self.min_cluster_size < 0:
            raise ValueError("min_cluster_size must be non-negative")


@dataclass(frozen=True)
class Cluster:
    """One group of point indices with bookkeeping about how it was found."""

    members: tuple[int, ...]
    centroid: GeoPoint
    radius: int
    depth: int

    @property
    def size(self) -> int:
        return len(self.members)


@dataclass(frozen=True)
class ClusterSet:
    clusters: tuple[Cluster, ...]

    def sizes(self) -> list[int]:
        return [c.size for c in self.clusters]

    @property
    def n_points(self) -> int:
        return sum(c.size for c in self.clusters)


def _centroid(points: Sequence[GeoPoint], members: Sequence[int]) -> GeoPoint:
    lat = sum(points[i].lat for i in members) / len(members)
    lon = sum(points[i].lon for i in members) / len(members)
    return GeoPoint(lat, lon)


def _make_cluster(
    points: Sequence[GeoPoint], members: Sequence[int], radius: int, depth: int
) -> Cluster:
    members = tuple(sorted(members))
    assert members, "clusters are never empty"
    return Cluster(members, _centroid(points, members), radius, depth)


def _best_radius(tree: SpanningTree, config: ClusterConfig, feasibility: Feasibility, max_radius: int) -> int:
    """The integer radius in [config.min_radius, max_radius] with the best
    feasible clustering of the tree's n points; MIN_CLUSTER_COUNT asks for
    at least ceil(n / max_cluster_size) clusters.

    Probes the midpoint radius, grows the range on feasible probes and
    shrinks it otherwise, keeping the feasible probe with the largest average
    cluster size.  Every probe reads the cluster count, or the largest
    cluster, of the tree's cut without making the cut.  Raises
    NoSolutionFoundError when no probe is feasible.
    """
    n = tree.n
    min_no = max(1, math.ceil(n / config.max_cluster_size))
    peaks = tree.peak_sizes() if feasibility is Feasibility.MAX_SIZE_CAP else None

    lo, hi = config.min_radius, max_radius
    best: Optional[tuple[float, int]] = None
    while lo <= hi:
        mid = (lo + hi) // 2
        joined = tree.edges_within(float(mid))
        count = n - joined
        if peaks is not None:
            feasible = peaks[joined] <= config.max_cluster_size
        else:
            feasible = count >= min_no
        if feasible:
            average = n / count
            if best is None or average > best[0]:
                best = (average, mid)
            lo = mid + 1
        else:
            hi = mid - 1

    if best is None:
        raise NoSolutionFoundError(
            f"no radius in [{config.min_radius}, {max_radius}] m satisfies "
            f"{feasibility.value} over {n} points"
        )
    return best[1]


def binary_search_clusters(
    points: Sequence[GeoPoint],
    config: ClusterConfig,
    feasibility: Feasibility = Feasibility.MAX_SIZE_CAP,
) -> tuple[ClusterSet, int]:
    """The depth-0 clusters at the integer radius with the best feasible
    clustering, and that radius.

    The radius search probes the points' spanning tree, and only the
    winning radius is cut into clusters.  Raises NoSolutionFoundError when
    no probe is feasible, and ValueError for an unknown feasibility value.
    """
    feasibility = Feasibility(feasibility)
    tree = spanning_tree(points)
    radius = _best_radius(tree, config, feasibility, config.max_radius)
    clusters = tuple(
        _make_cluster(points, members, radius, 0)
        for members in dbscan(points, float(radius), tree=tree)
    )
    return ClusterSet(clusters), radius


def _recurse(
    points: Sequence[GeoPoint],
    indices: list[int],
    config: ClusterConfig,
    max_radius: int,
    tree: SpanningTree,
    depth: int,
    out: list[Cluster],
) -> None:
    """Cut the tree of `indices` at its best MIN_CLUSTER_COUNT radius up to
    `max_radius`; append the clusters within the cap to `out` and recurse
    into the others."""
    if depth > RECURSION_LIMIT:
        raise RecursionLimitError(
            f"decomposition exceeded depth {RECURSION_LIMIT}; input looks degenerate"
        )
    radius = _best_radius(tree, config, Feasibility.MIN_CLUSTER_COUNT, max_radius)
    # The cut goes through dbscan() rather than tree.cut() because
    # perfbench/tracer.py counts the dbscan() calls as probes.
    for members in dbscan([points[i] for i in indices], float(radius), tree=tree):
        original = [indices[i] for i in members]
        if len(members) <= config.max_cluster_size:
            out.append(_make_cluster(points, original, radius, depth))
            continue
        # An oversized cluster is re-clustered on a strictly smaller radius
        # range so the recursion always makes progress.
        _recurse(points, original, config, radius - 1, tree.subtree(members), depth + 1, out)


def _merge_small_clusters(
    points: Sequence[GeoPoint], clusters: list[Cluster], config: ClusterConfig
) -> list[Cluster]:
    """Fold undersized clusters into their nearest neighbor when the cap allows.

    Clusters that cannot merge anywhere without breaking the size cap are
    left alone.
    """
    merged = list(clusters)
    while True:
        small = sorted(
            (c for c in merged if c.size < config.min_cluster_size),
            key=lambda c: (c.size, c.members[0]),
        )
        performed = False
        for candidate in small:
            targets = [
                t
                for t in merged
                if t is not candidate and t.size + candidate.size <= config.max_cluster_size
            ]
            if not targets:
                continue
            target = min(
                targets,
                key=lambda t: (haversine_distance(candidate.centroid, t.centroid), t.members[0]),
            )
            merged.remove(candidate)
            merged.remove(target)
            merged.append(
                _make_cluster(
                    points, candidate.members + target.members, target.radius, target.depth
                )
            )
            performed = True
            break
        if not performed:
            return merged


def recursive_dbscan(points: Sequence[GeoPoint], config: ClusterConfig) -> ClusterSet:
    """Decompose a point set into clusters no larger than the configured cap.

    Runs the radius search for at least ceil(n / max_cluster_size) clusters,
    then re-clusters every oversized cluster the same way on a tighter radius
    range until all clusters respect the cap.  Undersized clusters are merged
    into their nearest neighbors afterwards where the cap allows.
    """
    n = len(points)
    found: list[Cluster] = []
    _recurse(points, list(range(n)), config, config.max_radius, spanning_tree(points), 0, found)
    found = _merge_small_clusters(points, found, config)
    found.sort(key=lambda c: c.members[0])
    return ClusterSet(tuple(found))


def cluster_order(cluster_set: ClusterSet, depot: GeoPoint) -> list[int]:
    """Deterministic processing order: big clusters first, near ties broken
    by centroid distance to the depot, then by lowest contained index."""
    return sorted(
        range(len(cluster_set.clusters)),
        key=lambda i: (
            -cluster_set.clusters[i].size,
            haversine_distance(cluster_set.clusters[i].centroid, depot),
            cluster_set.clusters[i].members[0],
        ),
    )
