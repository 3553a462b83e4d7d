import math

import numpy as np
import pytest

from routeforge.bench import GeneratorConfig, _cell_seed, generate_instance
from routeforge.clusterer import (
    Cluster,
    ClusterConfig,
    ClusterSet,
    Feasibility,
    NoSolutionFoundError,
    RecursionLimitError,
    binary_search_clusters,
    cluster_order,
    recursive_dbscan,
)
from routeforge.dbscan import spanning_tree
from routeforge.geo import METERS_PER_RADIAN, GeoPoint

EQUATOR_DEGREE_M = 111_195.0802335329


def east(meters: float) -> GeoPoint:
    return GeoPoint(0.0, meters / EQUATOR_DEGREE_M)


def blob(rng, center: GeoPoint, n: int, spread_m: float = 50.0) -> list:
    lat = center.lat + rng.normal(0, spread_m, n) / EQUATOR_DEGREE_M
    lon = center.lon + rng.normal(0, spread_m, n) / EQUATOR_DEGREE_M
    return [GeoPoint(float(a), float(b)) for a, b in zip(lat, lon)]


def box_points(rng, n, box_meters, origin=(22.3, 114.0)):
    lat0, lon0 = origin
    lat = lat0 + rng.uniform(0, box_meters, n) / EQUATOR_DEGREE_M
    lon = lon0 + rng.uniform(0, box_meters, n) / (EQUATOR_DEGREE_M * math.cos(math.radians(lat0)))
    return [GeoPoint(float(a), float(b)) for a, b in zip(lat, lon)]


def oracle_distances(points):
    lat = np.radians([p.lat for p in points])
    lon = np.radians([p.lon for p in points])
    dlat = lat[:, None] - lat[None, :]
    dlon = lon[:, None] - lon[None, :]
    h = np.sin(dlat / 2) ** 2 + np.cos(lat[:, None]) * np.cos(lat[None, :]) * np.sin(dlon / 2) ** 2
    return 2.0 * METERS_PER_RADIAN * np.arcsin(np.sqrt(np.clip(h, 0.0, 1.0)))


class SizedUnionFind:
    def __init__(self, n):
        self.parent = list(range(n))
        self.size = [1] * n

    def find(self, x):
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        if self.size[ra] < self.size[rb]:
            ra, rb = rb, ra
        self.parent[rb] = ra
        self.size[ra] += self.size[rb]
        return True


def radius_profile(points, min_r, max_r):
    """(cluster count, max cluster size) at every integer radius, by sweeping
    the sorted edge list through one union-find."""
    n = len(points)
    dist = oracle_distances(points)
    edges = sorted((dist[i, j], i, j) for i in range(n) for j in range(i + 1, n))
    uf = SizedUnionFind(n)
    profile = {}
    k = 0
    count, max_size = n, 1
    for r in range(min_r, max_r + 1):
        while k < len(edges) and edges[k][0] <= r:
            _, i, j = edges[k]
            if uf.union(i, j):
                count -= 1
                max_size = max(max_size, uf.size[uf.find(i)])
            k += 1
        profile[r] = (count, max_size)
    return profile


def partition_at(points, radius_m):
    n = len(points)
    dist = oracle_distances(points)
    uf = SizedUnionFind(n)
    for i in range(n):
        for j in range(i + 1, n):
            if dist[i, j] <= radius_m:
                uf.union(i, j)
    groups = {}
    for i in range(n):
        groups.setdefault(uf.find(i), []).append(i)
    return {frozenset(g) for g in groups.values()}


def as_partition(cluster_set: ClusterSet):
    return {frozenset(c.members) for c in cluster_set.clusters}


# --- config ---


def test_config_validation():
    with pytest.raises(ValueError):
        ClusterConfig(min_radius=-1)
    with pytest.raises(ValueError):
        ClusterConfig(max_cluster_size=0)
    with pytest.raises(ValueError):
        ClusterConfig(min_cluster_size=-1)
    with pytest.raises(ValueError, match=r"^min_radius 5 exceeds max_radius 4$"):
        ClusterConfig(min_radius=5, max_radius=4)


def test_config_defaults():
    config = ClusterConfig()
    assert config.max_cluster_size == 500
    assert config.min_cluster_size == 35
    assert (config.min_radius, config.max_radius) == (1, 10_000)


# --- binary search ---


def test_coincident_block_over_cap_has_no_solution():
    points = [east(0)] * 600
    with pytest.raises(NoSolutionFoundError):
        binary_search_clusters(points, ClusterConfig(), Feasibility.MAX_SIZE_CAP)


def test_single_blob_within_cap_is_one_cluster():
    rng = np.random.default_rng(5)
    points = blob(rng, GeoPoint(22.3, 114.0), 100)
    cluster_set, radius = binary_search_clusters(points, ClusterConfig(), Feasibility.MAX_SIZE_CAP)
    assert cluster_set.sizes() == [100]
    assert ClusterConfig().min_radius <= radius <= ClusterConfig().max_radius


def test_two_far_blobs_stay_separate_under_count_floor():
    rng = np.random.default_rng(6)
    points = blob(rng, GeoPoint(22.3, 114.0), 300) + blob(rng, GeoPoint(22.3, 114.05), 300)
    config = ClusterConfig(max_cluster_size=300)  # a count floor of 600 / 300 = 2
    cluster_set, _ = binary_search_clusters(points, config, Feasibility.MIN_CLUSTER_COUNT)
    assert sorted(cluster_set.sizes()) == [300, 300]
    # blob membership survives: each cluster is one side of the 5 km gap
    assert as_partition(cluster_set) == {frozenset(range(300)), frozenset(range(300, 600))}


@pytest.mark.parametrize("seed", range(8))
def test_size_cap_search_matches_exhaustive_sweep(seed):
    rng = np.random.default_rng(400 + seed)
    n = int(rng.integers(100, 160))
    points = box_points(rng, n, 1_500.0)
    cap = n // 5
    config = ClusterConfig(min_radius=1, max_radius=2_000, max_cluster_size=cap)
    cluster_set, radius = binary_search_clusters(points, config, Feasibility.MAX_SIZE_CAP)

    profile = radius_profile(points, 1, 2_000)
    feasible = {r: c for r, (c, m) in profile.items() if m <= cap}
    assert feasible, "cap should be attainable at the singleton end"
    best_avg = max(n / c for c in feasible.values())

    assert max(cluster_set.sizes()) <= cap
    assert cluster_set.n_points == n
    assert n / len(cluster_set.clusters) == pytest.approx(best_avg)
    assert as_partition(cluster_set) == partition_at(points, radius)


@pytest.mark.parametrize("seed", range(4))
def test_count_floor_search_matches_exhaustive_sweep(seed):
    rng = np.random.default_rng(900 + seed)
    n = int(rng.integers(100, 160))
    points = box_points(rng, n, 1_500.0)
    cap = math.ceil(n / 4)
    min_no = math.ceil(n / cap)
    config = ClusterConfig(min_radius=1, max_radius=2_000, max_cluster_size=cap)
    cluster_set, radius = binary_search_clusters(points, config, Feasibility.MIN_CLUSTER_COUNT)

    profile = radius_profile(points, 1, 2_000)
    feasible = {r: c for r, (c, _) in profile.items() if c >= min_no}
    best_avg = max(n / c for c in feasible.values())

    assert len(cluster_set.clusters) >= min_no
    assert n / len(cluster_set.clusters) == pytest.approx(best_avg)
    assert as_partition(cluster_set) == partition_at(points, radius)


# --- recursive decomposition ---


def test_small_input_never_recurses():
    rng = np.random.default_rng(8)
    points = blob(rng, GeoPoint(22.3, 114.0), 200)
    cluster_set = recursive_dbscan(points, ClusterConfig())
    assert cluster_set.n_points == 200
    assert all(c.depth == 0 for c in cluster_set.clusters)


def test_long_chain_splits_to_cap():
    # 1,200 points in a 10 m spaced line: no radius yields a handful of
    # chain pieces (it is one chain or all singletons), so the result is
    # carried by the merge pass; only the contract matters here
    points = [east(10.0 * i) for i in range(1_200)]
    cluster_set = recursive_dbscan(points, ClusterConfig())
    assert sorted(i for c in cluster_set.clusters for i in c.members) == list(range(1_200))
    assert max(cluster_set.sizes()) <= 500


@pytest.mark.parametrize("recursive", [False, True])
def test_radius_zero_probe_clusters_coincident_points(recursive):
    # coincident pairs 1 km apart: a 0 m radius joins each pair and no more
    points = [east(1_000.0 * (i // 2)) for i in range(10)]
    config = ClusterConfig(min_radius=0, max_radius=0, max_cluster_size=2)
    if recursive:
        cluster_set = recursive_dbscan(points, config)
    else:
        cluster_set, radius = binary_search_clusters(points, config, Feasibility.MAX_SIZE_CAP)
        assert radius == 0
    assert [list(c.members) for c in cluster_set.clusters] == [[2 * k, 2 * k + 1] for k in range(5)]
    assert [c.radius for c in cluster_set.clusters] == [0] * 5


@pytest.mark.parametrize("recursive", [False, True])
def test_radius_zero_probe_on_oversized_coincident_blocks_has_no_solution(recursive):
    # two blocks of 5 coincident points, each over the cap at every radius,
    # so the search probes down to 0 m and finds nothing feasible
    points = [east(0)] * 5 + [east(1_000)] * 5
    config = ClusterConfig(min_radius=0, max_radius=5, max_cluster_size=4)
    with pytest.raises(NoSolutionFoundError):
        if recursive:
            recursive_dbscan(points, config)
        else:
            binary_search_clusters(points, config, Feasibility.MAX_SIZE_CAP)


def test_child_with_an_empty_radius_range_has_no_solution():
    # five coincident points, then two more 1.5 m apart: the root's only
    # feasible radius is 1 m, which leaves the block over the cap of 4 with
    # the radius range [1, 0] m
    points = [east(0)] * 5 + [east(1.5), east(3.0)]
    config = ClusterConfig(max_cluster_size=4)
    with pytest.raises(NoSolutionFoundError, match=r"^no radius in \[1, 0\] m satisfies MIN_CLUSTER_COUNT over 5 points$"):
        recursive_dbscan(points, config)


def test_feasibility_given_by_value_runs_the_rule_it_names():
    instance = generate_instance(GeneratorConfig(n_waypoints=1_200, seed=1))
    points = [w.location for w in instance.waypoints]
    config = ClusterConfig()
    by_member, radius = binary_search_clusters(points, config, Feasibility.MAX_SIZE_CAP)
    assert max(by_member.sizes()) <= config.max_cluster_size
    assert binary_search_clusters(points, config, "MAX_SIZE_CAP") == (by_member, radius)
    with pytest.raises(ValueError):
        binary_search_clusters(points, config, "bogus")


def test_coincident_block_fails_recursively():
    points = [east(0)] * 600
    with pytest.raises(NoSolutionFoundError):
        recursive_dbscan(points, ClusterConfig())


def test_undersized_cluster_merges_into_nearest():
    rng = np.random.default_rng(9)
    small = blob(rng, GeoPoint(22.3, 114.0), 30)
    near = blob(rng, GeoPoint(22.3, 114.02), 200)  # ~2 km
    far = blob(rng, GeoPoint(22.3, 114.10), 100)  # ~10 km
    farther = blob(rng, GeoPoint(22.3, 114.20), 100)  # ~20 km
    points = small + near + far + farther
    config = ClusterConfig(max_cluster_size=200)
    cluster_set = recursive_dbscan(points, config)
    sizes = sorted(cluster_set.sizes())
    assert sizes == [100, 130, 200]
    merged = next(c for c in cluster_set.clusters if c.size == 130)
    # near would reach 230, so the small blob folds into the nearest
    # cluster with room: the far one
    assert set(merged.members) == set(range(30)) | set(range(230, 330))


def test_merge_refused_when_cap_would_break():
    rng = np.random.default_rng(10)
    small = blob(rng, GeoPoint(22.3, 114.0), 30)
    big = blob(rng, GeoPoint(22.3, 114.02), 495)
    points = small + big
    cluster_set = recursive_dbscan(points, ClusterConfig())
    assert sorted(cluster_set.sizes()) == [30, 495]  # 525 would break the cap


def test_deep_shedding_chain_hits_recursion_limit():
    # descending gaps make every level cut off only a point or two, which
    # cannot finish before the depth guard fires
    positions = [0.0]
    for i in range(499):
        positions.append(positions[-1] + (1_000.0 - i))
    points = [east(x) for x in positions]
    config = ClusterConfig(max_cluster_size=400)
    with pytest.raises(RecursionLimitError):
        recursive_dbscan(points, config)


def test_deeper_clusters_are_cut_below_the_depth_0_radius():
    # this instance recurses to depth 2
    instance = generate_instance(GeneratorConfig(n_waypoints=3_000, seed=2))
    points = [w.location for w in instance.waypoints]
    clusters = recursive_dbscan(points, ClusterConfig()).clusters
    top = {c.radius for c in clusters if c.depth == 0}
    assert len(top) == 1
    (r0,) = top
    deeper = [c for c in clusters if c.depth > 0]
    assert deeper
    assert all(c.radius < r0 for c in deeper)
    for c in clusters:
        tree = spanning_tree([points[i] for i in c.members])
        assert tree.weights.max(initial=0.0) <= c.radius, (c.depth, c.radius)


@pytest.mark.parametrize("rep", range(5))
def test_decomposition_cuts_matrix_cells(rep):
    # the deterministic side of the acceptance runtime test, on its five
    # n = 1500 instances: the sub-solves' (size + 1)^2 matrix cells, depot
    # included, stay under the same 0.60 of the monolithic (n + 1)^2
    n = 1_500
    instance = generate_instance(GeneratorConfig(n_waypoints=n, seed=_cell_seed(1729, n, rep)))
    cluster_set = recursive_dbscan([w.location for w in instance.waypoints], ClusterConfig())
    ratio = sum((size + 1) ** 2 for size in cluster_set.sizes()) / (n + 1) ** 2
    assert ratio < 0.60, ratio


def test_recursive_runs_are_identical():
    rng1 = np.random.default_rng(12)
    rng2 = np.random.default_rng(12)
    points1 = box_points(rng1, 400, 20_000.0)
    points2 = box_points(rng2, 400, 20_000.0)
    config = ClusterConfig(max_cluster_size=120)
    assert recursive_dbscan(points1, config) == recursive_dbscan(points2, config)


# --- processing order ---


def fake_cluster(first_id: int, size: int, centroid: GeoPoint) -> Cluster:
    return Cluster(tuple(range(first_id, first_id + size)), centroid, radius=100, depth=0)


def test_order_prefers_size_then_depot_distance():
    depot = GeoPoint(22.3, 114.0)
    clusters = ClusterSet(
        (
            fake_cluster(0, 120, GeoPoint(22.3, 114.09)),
            fake_cluster(200, 480, GeoPoint(22.3, 114.07)),
            fake_cluster(700, 480, GeoPoint(22.3, 114.02)),
        )
    )
    assert cluster_order(clusters, depot) == [2, 1, 0]


def test_order_single_cluster():
    depot = GeoPoint(22.3, 114.0)
    clusters = ClusterSet((fake_cluster(0, 10, GeoPoint(22.3, 114.01)),))
    assert cluster_order(clusters, depot) == [0]


def test_order_full_tie_breaks_on_lowest_member():
    depot = GeoPoint(22.3, 114.0)
    same = GeoPoint(22.3, 114.05)
    clusters = ClusterSet((fake_cluster(5, 40, same), fake_cluster(3, 40, same)))
    assert cluster_order(clusters, depot) == [1, 0]
