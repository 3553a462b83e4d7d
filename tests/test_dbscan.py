import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from routeforge.clusterer import ClusterConfig, Feasibility, binary_search_clusters
from routeforge.dbscan import (
    ClusterLabels,
    DbscanParams,
    EmptyInputError,
    dbscan,
    pairwise_meters,
    spanning_tree,
)
from routeforge.geo import METERS_PER_RADIAN, GeoPoint, meters_to_radians

EQUATOR_DEGREE_M = 111_195.0802335329


def east(meters: float) -> GeoPoint:
    return GeoPoint(0.0, meters / EQUATOR_DEGREE_M)


def random_points(rng, n, box_meters=2_000.0, origin=(22.3, 114.0)):
    lat0, lon0 = origin
    lat = lat0 + rng.uniform(0, box_meters, n) / EQUATOR_DEGREE_M
    lon = lon0 + rng.uniform(0, box_meters, n) / (EQUATOR_DEGREE_M * math.cos(math.radians(lat0)))
    return [GeoPoint(float(a), float(b)) for a, b in zip(lat, lon)]


def oracle_distances(points):
    # standalone haversine, vectorized, no package code involved
    lat = np.radians([p.lat for p in points])
    lon = np.radians([p.lon for p in points])
    dlat = lat[:, None] - lat[None, :]
    dlon = lon[:, None] - lon[None, :]
    h = np.sin(dlat / 2) ** 2 + np.cos(lat[:, None]) * np.cos(lat[None, :]) * np.sin(dlon / 2) ** 2
    return 2.0 * METERS_PER_RADIAN * np.arcsin(np.sqrt(np.clip(h, 0.0, 1.0)))


class UnionFind:
    def __init__(self, n):
        self.parent = list(range(n))

    def find(self, x):
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra


def components_oracle(points, eps_meters):
    dist = oracle_distances(points)
    uf = UnionFind(len(points))
    for i, j in zip(*np.nonzero(dist <= eps_meters)):
        if i < j:
            uf.union(int(i), int(j))
    groups = {}
    for i in range(len(points)):
        groups.setdefault(uf.find(i), []).append(i)
    return {frozenset(members) for members in groups.values()}


def as_partition(labels: ClusterLabels):
    return {frozenset(members) for members in labels.clusters()}


# --- params ---


def test_params_validation():
    with pytest.raises(ValueError):
        DbscanParams(epsilon=0.0)
    with pytest.raises(ValueError):
        DbscanParams(epsilon=-1e-9)
    with pytest.raises(ValueError):
        DbscanParams(epsilon=math.inf)


# --- dbscan ---


def test_empty_input_rejected():
    with pytest.raises(EmptyInputError):
        dbscan([], DbscanParams(epsilon=1e-4))


def test_chain_within_epsilon_is_one_cluster():
    points = [east(0), east(50), east(100)]
    labels = dbscan(points, DbscanParams(epsilon=meters_to_radians(60)))
    assert labels.n_clusters == 1
    assert set(labels.labels) == {0}


def test_far_points_are_singletons():
    points = [east(0), east(500)]
    labels = dbscan(points, DbscanParams(epsilon=meters_to_radians(100)))
    assert labels.n_clusters == 2
    assert labels.labels == (0, 1)


def test_labels_are_contiguous_and_lowest_index_first():
    rng = np.random.default_rng(3)
    points = random_points(rng, 60, box_meters=800.0)
    labels = dbscan(points, DbscanParams(epsilon=meters_to_radians(120)))
    assert labels.labels[0] == 0
    seen = set()
    order = []
    for label in labels.labels:
        if label not in seen:
            seen.add(label)
            order.append(label)
    assert order == list(range(labels.n_clusters))  # first occurrences count up


@pytest.mark.parametrize("seed", range(12))
def test_partition_matches_union_find_oracle(seed):
    rng = np.random.default_rng(100 + seed)
    n = int(rng.integers(20, 120))
    radius = float(rng.uniform(60, 500))
    points = random_points(rng, n, box_meters=1_500.0)
    labels = dbscan(points, DbscanParams(epsilon=meters_to_radians(radius)))
    assert as_partition(labels) == components_oracle(points, radius)


def test_partition_is_permutation_stable():
    rng = np.random.default_rng(11)
    points = random_points(rng, 80)
    eps = meters_to_radians(250)
    base = as_partition(dbscan(points, DbscanParams(epsilon=eps)))
    perm = rng.permutation(len(points))
    shuffled = [points[i] for i in perm]
    shuffled_part = as_partition(dbscan(shuffled, DbscanParams(epsilon=eps)))
    remapped = {frozenset(int(perm[i]) for i in members) for members in shuffled_part}
    assert remapped == base


def test_smaller_epsilon_refines_partition():
    rng = np.random.default_rng(21)
    points = random_points(rng, 90)
    for r1, r2 in [(100, 300), (200, 800), (400, 401)]:
        fine = as_partition(dbscan(points, DbscanParams(epsilon=meters_to_radians(r1))))
        coarse = as_partition(dbscan(points, DbscanParams(epsilon=meters_to_radians(r2))))
        for cluster in fine:
            assert any(cluster <= parent for parent in coarse)


def test_tree_cut_agrees_with_dense_path_above_2000():
    rng = np.random.default_rng(31)
    points = random_points(rng, 2_300, box_meters=20_000.0)
    params = DbscanParams(epsilon=meters_to_radians(700))
    assert dbscan(points, params).labels == dbscan(points, params, pairwise=pairwise_meters(points)).labels


def test_identical_points_single_cluster():
    points = [east(0)] * 25
    labels = dbscan(points, DbscanParams(epsilon=meters_to_radians(1)))
    assert labels.n_clusters == 1


# --- spanning tree cuts against the dense reference ---


def test_tree_over_other_points_rejected():
    points = [east(0), east(50), east(100)]
    with pytest.raises(ValueError):
        dbscan(points, DbscanParams(epsilon=meters_to_radians(60)), tree=spanning_tree(points[:2]))


def test_subtree_across_clusters_rejected():
    tree = spanning_tree([east(0), east(10), east(5_000), east(5_010)])
    first, second = tree.cut(100.0).clusters()
    with pytest.raises(ValueError):
        tree.subtree([first[0], second[0]])


def test_antimeridian_cluster_is_not_split():
    # 2,100 points (above BRUTE_FORCE_LIMIT) within a 70 m disc centred on
    # lon 180, so half of them carry lon near -180
    rng = np.random.default_rng(41)
    angle = rng.uniform(0.0, 2.0 * math.pi, 2_100)
    dist = 70.0 * np.sqrt(rng.uniform(0.0, 1.0, 2_100))
    lat0 = 10.0
    lat = lat0 + dist * np.sin(angle) / EQUATOR_DEGREE_M
    lon = 180.0 + dist * np.cos(angle) / (EQUATOR_DEGREE_M * math.cos(math.radians(lat0)))
    lon = np.where(lon > 180.0, lon - 360.0, lon)
    points = [GeoPoint(float(a), float(b)) for a, b in zip(lat, lon)]
    assert min(lon) < -179.99 and max(lon) > 179.99

    params = DbscanParams(epsilon=meters_to_radians(150))
    labels = dbscan(points, params)
    assert labels.labels == dbscan(points, params, pairwise=pairwise_meters(points)).labels
    assert labels.n_clusters == 1

    config = ClusterConfig(max_cluster_size=2_100)
    cluster_set, _ = binary_search_clusters(points, config, Feasibility.MAX_SIZE_CAP)
    assert cluster_set.sizes() == [2_100]


@st.composite
def point_sets(draw):
    """Up to 300 points in a box of 10 m to 5 km, some of them coincident,
    anywhere on the globe including across lon 180."""
    n = draw(st.integers(1, 300))
    seed = draw(st.integers(0, 2**32 - 1))
    box = draw(st.sampled_from([10.0, 300.0, 5_000.0]))
    lat0 = draw(st.floats(-80.0, 80.0))
    lon0 = draw(st.one_of(st.floats(-180.0, 180.0), st.sampled_from([-180.0, 180.0])))
    repeat = draw(st.sampled_from([0.0, 0.2, 0.9]))
    rng = np.random.default_rng(seed)
    lat = lat0 + rng.uniform(0.0, box, n) / EQUATOR_DEGREE_M
    lon = lon0 + rng.uniform(0.0, box, n) / (EQUATOR_DEGREE_M * math.cos(math.radians(lat0)))
    lon = (lon + 180.0) % 360.0 - 180.0
    points = [GeoPoint(float(a), float(b)) for a, b in zip(lat, lon)]
    for i in range(1, n):
        if rng.uniform() < repeat:
            points[i] = points[int(rng.integers(0, i))]
    return points, box


@settings(max_examples=150, deadline=None)
@given(data=st.data(), drawn=point_sets())
def test_tree_cut_equals_dense_labels(data, drawn):
    points, box = drawn
    dense = pairwise_meters(points)
    tree = spanning_tree(points)
    # the tree's weights are the dense kernel's values to the last bit
    assert np.array_equal(tree.weights, dense[tree.heads, tree.tails])
    n = len(points)
    # a free radius, and one that sits on a pairwise distance
    i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
    for radius in (data.draw(st.floats(0.01, 2.0 * box)), float(dense[i, j])):
        if radius <= 0.0:
            continue
        params = DbscanParams(epsilon=meters_to_radians(radius))
        assert dbscan(points, params).labels == dbscan(points, params, pairwise=dense).labels


@settings(max_examples=100, deadline=None)
@given(data=st.data(), drawn=point_sets())
def test_subtree_cut_equals_tree_of_the_cluster(data, drawn):
    points, box = drawn
    coarse = data.draw(st.floats(0.01, 2.0 * box))
    fine = data.draw(st.floats(0.01, coarse))
    tree = spanning_tree(points)
    for members in tree.cut(coarse).clusters():
        own = spanning_tree([points[i] for i in members])
        assert tree.subtree(members).cut(fine) == own.cut(fine)
