import math
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from routeforge.bench import GeneratorConfig, generate_instance
from routeforge.clusterer import ClusterConfig, Feasibility, binary_search_clusters, recursive_dbscan
from routeforge.dbscan import EmptyInputError, SpanningTree, dbscan, spanning_tree
from routeforge.geo import METERS_PER_RADIAN, GeoPoint, HaversineKernel, haversine_distance, pairwise_meters

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


def as_partition(clusters):
    return {frozenset(members) for members in clusters}


# --- references: the dense flood and Prim's tree ---


def components_dense(adjacency: np.ndarray) -> list[list[int]]:
    """Connected components of a dense adjacency matrix, as ascending member
    lists ordered by their lowest member.

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
    return [np.flatnonzero(labels == c).tolist() for c in range(cluster)]


def dense_dbscan(pairwise: np.ndarray, radius_m: float) -> list[list[int]]:
    """dbscan's clusters from a pairwise_meters matrix: its connected
    components at the radius, in O(n^2) memory."""
    return components_dense(pairwise <= radius_m)


def prim_spanning_tree(points) -> SpanningTree:
    """Prim's algorithm over exact haversine weights.

    Each step computes one row of meters, from the point just added to the
    points still outside the tree, with the geo.HaversineKernel of
    pairwise_meters and the lower index first, so the weights match
    pairwise_meters bit for bit.  Memory stays O(n).
    """
    n = len(points)
    kernel = HaversineKernel(points)
    # The points outside the tree sit in the first m slots of the out_idx,
    # best and via arrays: the one that joins swaps places with the last.
    out_idx = np.arange(1, n, dtype=np.int64)
    best = np.full(n - 1, np.inf)
    via = np.zeros(n - 1, dtype=np.int64)
    heads = np.empty(n - 1, dtype=np.int64)
    tails = np.empty(n - 1, dtype=np.int64)
    weights = np.empty(n - 1)
    u = 0
    for step, m in enumerate(range(n - 1, 0, -1)):
        others = out_idx[:m]
        row = kernel(np.minimum(u, others), np.maximum(u, others))
        closer = row < best[:m]
        best[:m][closer] = row[closer]
        via[:m][closer] = u
        j = int(np.argmin(best[:m]))
        v = int(out_idx[j])
        heads[step], tails[step], weights[step] = via[j], v, best[j]
        u = v
        for arr in (out_idx, best, via):
            arr[j], arr[m - 1] = arr[m - 1], arr[j]
    order = np.argsort(weights, kind="stable")
    return SpanningTree(n, heads[order], tails[order], weights[order])


def assert_same_clusterings(points, tree: SpanningTree, reference: SpanningTree):
    """tree agrees with reference wherever a cut or a probe can look.

    The weights are equal arrays, each weight is its pairwise_meters value
    and its haversine_distance, and at radius 0, at every weight and at the
    floats on either side of it the cuts and the largest components are
    equal.  Between two distinct weights the cut does not change, so the
    cuts are compared once per run of equal weights: every edge of either
    tree up to the run's end must join points that the other tree's edges up
    to there already join.  The largest components may differ inside a run
    of ties; a probe reads them only at a run's end.
    """
    assert np.array_equal(tree.weights, reference.weights)
    dense = [pairwise_meters([points[a], points[b]])[0, 1] for a, b in zip(tree.heads, tree.tails)]
    assert np.array_equal(tree.weights, np.array(dense).reshape(-1))
    scalar = [haversine_distance(points[a], points[b]) for a, b in zip(tree.heads.tolist(), tree.tails.tolist())]
    assert tree.weights.tolist() == scalar
    radii = {0.0}
    for w in tree.weights.tolist():
        radii.update((np.nextafter(w, 0.0), w, np.nextafter(w, np.inf)))
    joined = sorted({tree.edges_within(radius) for radius in radii})
    assert joined == sorted({reference.edges_within(radius) for radius in radii})
    peaks, reference_peaks = tree.peak_sizes(), reference.peak_sizes()
    assert [peaks[k] for k in joined] == [reference_peaks[k] for k in joined]
    finds = (UnionFind(tree.n), UnionFind(tree.n))
    edges = [list(zip(t.heads.tolist(), t.tails.tolist())) for t in (tree, reference)]
    start = 0
    for end in joined:
        for uf, own in zip(finds, edges):
            for a, b in own[start:end]:
                uf.union(a, b)
        for uf, other in zip(finds, edges[::-1]):
            assert all(uf.find(a) == uf.find(b) for a, b in other[start:end])
        start = end
    # and the cut itself, at a spread of those radii
    ordered = sorted(radii)
    for radius in ordered[:: max(1, len(ordered) // 24)] + [ordered[-1]]:
        assert tree.cut(radius) == reference.cut(radius)


# --- params ---


def test_params_validation():
    points = [east(0), east(50)]
    assert dbscan(points, 0.0) == [[0], [1]]
    tree = spanning_tree(points)
    for bad in (-1e-9, math.inf, math.nan):
        for probe in (partial(dbscan, points), tree.cut, tree.edges_within):
            with pytest.raises(ValueError, match="radius_m must be finite and non-negative"):
                probe(bad)
    # the radius was once an angle in radians: a call still passing one fails
    with pytest.raises(TypeError):
        dbscan(points, epsilon=1e-4)


# --- dbscan ---


def test_empty_input_rejected():
    with pytest.raises(EmptyInputError):
        dbscan([], 100.0)


def test_chain_within_epsilon_is_one_cluster():
    points = [east(0), east(50), east(100)]
    assert dbscan(points, 60) == [[0, 1, 2]]


def test_far_points_are_singletons():
    points = [east(0), east(500)]
    assert dbscan(points, 100) == [[0], [1]]


def test_labels_are_contiguous_and_lowest_index_first():
    rng = np.random.default_rng(3)
    points = random_points(rng, 60, box_meters=800.0)
    clusters = dbscan(points, 120)
    assert sorted(i for members in clusters for i in members) == list(range(60))
    assert all(members == sorted(members) for members in clusters)
    firsts = [members[0] for members in clusters]
    assert firsts[0] == 0
    assert firsts == sorted(firsts)  # lowest members count up


@pytest.mark.parametrize("seed", range(12))
def test_partition_matches_union_find_oracle(seed):
    rng = np.random.default_rng(100 + seed)
    n = int(rng.integers(20, 120))
    radius = float(rng.uniform(60, 500))
    points = random_points(rng, n, box_meters=1_500.0)
    assert as_partition(dbscan(points, radius)) == components_oracle(points, radius)


def test_partition_is_permutation_stable():
    rng = np.random.default_rng(11)
    points = random_points(rng, 80)
    base = as_partition(dbscan(points, 250))
    perm = rng.permutation(len(points))
    shuffled = [points[i] for i in perm]
    shuffled_part = as_partition(dbscan(shuffled, 250))
    remapped = {frozenset(int(perm[i]) for i in members) for members in shuffled_part}
    assert remapped == base


def test_smaller_epsilon_refines_partition():
    rng = np.random.default_rng(21)
    points = random_points(rng, 90)
    for r1, r2 in [(100, 300), (200, 800), (400, 401)]:
        fine = as_partition(dbscan(points, r1))
        coarse = as_partition(dbscan(points, r2))
        for cluster in fine:
            assert any(cluster <= parent for parent in coarse)


def test_tree_cut_agrees_with_dense_path_above_2000():
    rng = np.random.default_rng(31)
    points = random_points(rng, 2_300, box_meters=20_000.0)
    assert dbscan(points, 700) == dense_dbscan(pairwise_meters(points), 700)


def test_identical_points_single_cluster():
    points = [east(0)] * 25
    assert dbscan(points, 1) == [list(range(25))]


def test_radius_zero_joins_only_coincident_points():
    points = [east(0), east(0), east(0.001), east(50), east(50)]
    clusters = dbscan(points, 0.0)
    assert clusters == [[0, 1], [2], [3, 4]]
    assert clusters == dense_dbscan(pairwise_meters(points), 0.0)


# --- spanning tree cuts against the dense reference ---


def test_tree_over_other_points_rejected():
    points = [east(0), east(50), east(100)]
    with pytest.raises(ValueError):
        dbscan(points, 60, tree=spanning_tree(points[:2]))


@pytest.mark.parametrize(
    "bad",
    [GeoPoint(math.nan, 114.0), GeoPoint(22.3, math.inf), GeoPoint(22.3, -math.inf), GeoPoint(100.0, 114.0), GeoPoint(22.3, 400.0)],
    ids=["nan", "inf", "-inf", "lat-100", "lon-400"],
)
def test_bad_coordinate_is_a_value_error_naming_the_point(bad):
    points = [east(0), east(50), bad, east(100)]
    searches = [
        lambda: spanning_tree(points),
        lambda: binary_search_clusters(points, ClusterConfig(), Feasibility.MAX_SIZE_CAP),
        lambda: recursive_dbscan(points, ClusterConfig()),
        lambda: pairwise_meters(points),
        lambda: HaversineKernel(points),
    ]
    for search in searches:
        with pytest.raises(ValueError, match=r"^point 2 coordinate out of range"):
            search()


def test_pairwise_meters_names_the_first_bad_coordinate():
    points = [GeoPoint(100.0, 0.0), GeoPoint(0.0, 0.0), GeoPoint(math.nan, 3.0)]
    with pytest.raises(ValueError, match=r"^point 0 coordinate out of range: GeoPoint\(lat=100\.0"):
        pairwise_meters(points)


def test_subtree_across_clusters_rejected():
    tree = spanning_tree([east(0), east(10), east(5_000), east(5_010)])
    first, second = tree.cut(100.0)
    with pytest.raises(ValueError):
        tree.subtree([first[0], second[0]])


def test_antimeridian_cluster_is_not_split():
    # 2,100 points within a 70 m disc centred on lon 180, so half of them
    # carry lon near -180
    rng = np.random.default_rng(41)
    angle = rng.uniform(0.0, 2.0 * math.pi, 2_100)
    dist = 70.0 * np.sqrt(rng.uniform(0.0, 1.0, 2_100))
    lat0 = 10.0
    lat = lat0 + dist * np.sin(angle) / EQUATOR_DEGREE_M
    lon = 180.0 + dist * np.cos(angle) / (EQUATOR_DEGREE_M * math.cos(math.radians(lat0)))
    lon = np.where(lon > 180.0, lon - 360.0, lon)
    points = [GeoPoint(float(a), float(b)) for a, b in zip(lat, lon)]
    assert min(lon) < -179.99 and max(lon) > 179.99

    clusters = dbscan(points, 150)
    assert clusters == dense_dbscan(pairwise_meters(points), 150)
    assert len(clusters) == 1

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
    for radius in (data.draw(st.floats(0.0, 2.0 * box)), float(dense[i, j])):
        assert dbscan(points, radius) == dense_dbscan(dense, radius)


@settings(max_examples=100, deadline=None)
@given(data=st.data(), drawn=point_sets())
def test_subtree_cut_equals_tree_of_the_cluster(data, drawn):
    points, box = drawn
    coarse = data.draw(st.floats(0.01, 2.0 * box))
    fine = data.draw(st.floats(0.01, coarse))
    tree = spanning_tree(points)
    for members in tree.cut(coarse):
        own = spanning_tree([points[i] for i in members])
        assert tree.subtree(members).cut(fine) == own.cut(fine)


@settings(max_examples=100, deadline=None)
@given(drawn=point_sets())
def test_probe_lookups_equal_tree_cut_at_edge_weights(drawn):
    points, _ = drawn
    tree = spanning_tree(points)
    peaks = tree.peak_sizes()
    assert len(peaks) == tree.n
    # every exact edge weight, where a probe's boundary sits, and the floats
    # on either side of it
    radii = {0.0}
    for w in tree.weights.tolist():
        radii.update((np.nextafter(w, 0.0), w, np.nextafter(w, np.inf)))
    for radius in sorted(radii):
        joined = tree.edges_within(radius)
        clusters = tree.cut(radius)
        assert tree.n - joined == len(clusters)
        assert peaks[joined] == max(len(c) for c in clusters)


@settings(max_examples=150, deadline=None)
@given(drawn=point_sets())
def test_tree_equals_prim_reference(drawn):
    points, _ = drawn
    assert_same_clusterings(points, spanning_tree(points), prim_spanning_tree(points))


def generated_points(n, seed):
    return [w.location for w in generate_instance(GeneratorConfig(n_waypoints=n, seed=seed)).waypoints]


def coincident_block():
    # 600 of 700 waypoints on waypoint 1's spot
    points = generated_points(700, 1)
    return points[:1] + [points[1]] * 600 + points[601:]


def micron_disc():
    # 2,000 of 3,000 waypoints inside a disc 1 um across
    points = generated_points(3_000, 1)
    rng = np.random.default_rng(5)
    angle = rng.uniform(0.0, 2.0 * math.pi, 2_000)
    dist = 0.5e-6 * np.sqrt(rng.uniform(0.0, 1.0, 2_000))
    lat0, lon0 = points[0].lat, points[0].lon
    lat = lat0 + dist * np.sin(angle) / EQUATOR_DEGREE_M
    lon = lon0 + dist * np.cos(angle) / (EQUATOR_DEGREE_M * math.cos(math.radians(lat0)))
    return [GeoPoint(float(a), float(b)) for a, b in zip(lat, lon)] + points[2_000:]


@pytest.mark.parametrize(
    "make",
    [
        coincident_block,
        micron_disc,
        lambda: generated_points(2_000, 0),
        lambda: generated_points(2_000, 1),
        lambda: generated_points(3_000, 0),
        lambda: generated_points(3_000, 1),
    ],
    ids=["coincident-600-of-700", "micron-disc-2000-of-3000", "n2000-s0", "n2000-s1", "n3000-s0", "n3000-s1"],
)
def test_tree_equals_prim_on_large_and_degenerate_inputs(make):
    points = make()
    assert_same_clusterings(points, spanning_tree(points), prim_spanning_tree(points))
