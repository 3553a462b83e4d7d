"""End-to-end acceptance checks.

Each test exercises one promise the package makes as a whole: feasibility of
every returned plan, clustering correctness against independent oracles,
the decomposition's runtime and quality trends against the monolithic
baseline, scale behavior under a memory budget, and full determinism of the
benchmark outputs.  Tolerances are pinned here and nowhere else.
"""

import csv
import itertools
import math
import time

import numpy as np
import pytest

from routeforge.bench import (
    BudgetConfig,
    GeneratorConfig,
    RunStatus,
    _cell_seed,
    export_csv,
    generate_instance,
    run_benchmark,
)
from routeforge.clusterer import (
    ClusterConfig,
    Feasibility,
    NoSolutionFoundError,
    binary_search_clusters,
    recursive_dbscan,
)
from routeforge.dbscan import dbscan
from routeforge.geo import METERS_PER_RADIAN, GeoPoint
from routeforge.model import (
    Depot,
    ProblemInstance,
    TimeWindow,
    TravelModel,
    Vehicle,
    Waypoint,
    evaluate_objective,
    validate_solution,
)
from routeforge.pipeline import Strategy, run_strategy
from routeforge.solver import (
    SolverParams,
    build_matrix,
    local_search,
    path_cheapest_arc,
    solve_cvrptw,
)

EQUATOR_DEGREE_M = 111_195.0802335329
BASE_SEED = 1729
FAST = SolverParams(time_limit_ms=300)


def box_points(rng, n, box_meters, origin=(22.3, 114.0)):
    lat0, lon0 = origin
    lat = lat0 + rng.uniform(0, box_meters, n) / EQUATOR_DEGREE_M
    lon = lon0 + rng.uniform(0, box_meters, n) / (EQUATOR_DEGREE_M * math.cos(math.radians(lat0)))
    return [GeoPoint(float(a), float(b)) for a, b in zip(lat, lon)]


def oracle_meters(a: GeoPoint, b: GeoPoint) -> float:
    lat1, lon1, lat2, lon2 = map(math.radians, (a.lat, a.lon, b.lat, b.lon))
    h = math.sin((lat2 - lat1) / 2) ** 2 + math.cos(lat1) * math.cos(lat2) * math.sin((lon2 - lon1) / 2) ** 2
    return 2.0 * METERS_PER_RADIAN * math.asin(math.sqrt(h))


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


def oracle_components(points, eps_meters):
    n = len(points)
    lat = np.radians([p.lat for p in points])
    lon = np.radians([p.lon for p in points])
    dlat = lat[:, None] - lat[None, :]
    dlon = lon[:, None] - lon[None, :]
    h = np.sin(dlat / 2) ** 2 + np.cos(lat[:, None]) * np.cos(lat[None, :]) * np.sin(dlon / 2) ** 2
    dist = 2.0 * METERS_PER_RADIAN * np.arcsin(np.sqrt(np.clip(h, 0.0, 1.0)))
    uf = SizedUnionFind(n)
    for i, j in zip(*np.nonzero(dist <= eps_meters)):
        if i < j:
            uf.union(int(i), int(j))
    groups = {}
    for i in range(n):
        groups.setdefault(uf.find(i), []).append(i)
    return {frozenset(g) for g in groups.values()}


# 1. Every plan any strategy returns passes the independent validator.


def test_every_returned_plan_is_feasible():
    started = time.monotonic()
    sizes = (50, 200, 500)
    failures = []
    statuses = {s: {"ok": 0, "no_solution": 0} for s in Strategy}
    for i in range(50):
        n = sizes[i % 3]
        instance = generate_instance(
            GeneratorConfig(n_waypoints=n, seed=_cell_seed(BASE_SEED, n, 100 + i))
        )
        for strategy in Strategy:
            try:
                result = run_strategy(instance, strategy, params=FAST)
            except NoSolutionFoundError:
                statuses[strategy]["no_solution"] += 1
                continue
            statuses[strategy]["ok"] += 1
            violations = validate_solution(result.plan, instance)
            if violations:
                failures.append((i, n, strategy.value, violations[:3]))
    assert failures == []
    # the baseline and the decomposition must also never fail outright on
    # instances with this much fleet slack; the flat clustering is allowed
    # to run the pool dry on unlucky seeds
    assert statuses[Strategy.MONOLITHIC]["no_solution"] == 0
    assert statuses[Strategy.RECURSIVE_DBSCAN]["no_solution"] == 0
    elapsed = time.monotonic() - started
    print(f"feasibility: statuses={statuses} elapsed={elapsed:.1f}s")
    assert elapsed < 600.0


# 2. The clustering partition equals connected components of the radius graph.


def test_clustering_matches_connected_components():
    started = time.monotonic()
    for i in range(100):
        rng = np.random.default_rng(10_000 + i)
        n = 20 + (7 * i) % 181
        radius = 60.0 + (17 * i) % 450
        points = box_points(rng, n, 2_000.0)
        ours = {frozenset(members) for members in dbscan(points, radius)}
        assert ours == oracle_components(points, radius), f"case {i}: n={n} r={radius}"
    elapsed = time.monotonic() - started
    print(f"component equivalence: 100 cases elapsed={elapsed:.1f}s")
    assert elapsed < 60.0


# 3. The recursive decomposition caps every cluster and loses no waypoint.


def test_recursive_clusters_respect_cap():
    config = ClusterConfig()
    for n in (1_000, 2_000, 3_000, 5_000):
        for rep in range(3):
            instance = generate_instance(
                GeneratorConfig(n_waypoints=n, seed=_cell_seed(BASE_SEED, n, rep))
            )
            points = [w.location for w in instance.waypoints]
            clusters = recursive_dbscan(points, config)
            covered = sorted(i for c in clusters.clusters for i in c.members)
            assert covered == list(range(n)), f"n={n} rep={rep} lost waypoints"
            peak = max(clusters.sizes())
            assert peak <= config.max_cluster_size, f"n={n} rep={rep} peak={peak}"
            print(f"cap: n={n} rep={rep} clusters={len(clusters.clusters)} peak={peak}")


# 4. The radius search lands on the sweep-optimal feasible average.


def test_radius_search_matches_exhaustive_sweep():
    for i in range(20):
        rng = np.random.default_rng(20_000 + i)
        n = 120 + (9 * i) % 181
        points = box_points(rng, n, 1_500.0)
        cap = max(20, n // 5)
        config = ClusterConfig(min_radius=1, max_radius=2_000, max_cluster_size=cap)
        cluster_set, _radius = binary_search_clusters(points, config, Feasibility.MAX_SIZE_CAP)
        assert max(cluster_set.sizes()) <= cap
        assert cluster_set.n_points == n

        dist = [[oracle_meters(a, b) for b in points] for a in points]
        edges = sorted(
            (dist[i2][j2], i2, j2) for i2 in range(n) for j2 in range(i2 + 1, n)
        )
        uf = SizedUnionFind(n)
        count, max_size = n, 1
        k = 0
        best_avg = None
        for r in range(1, 2_001):
            while k < len(edges) and edges[k][0] <= r:
                _, a, b = edges[k]
                if uf.union(a, b):
                    count -= 1
                    max_size = max(max_size, uf.size[uf.find(a)])
                k += 1
            if max_size <= cap:
                avg = n / count
                if best_avg is None or avg > best_avg:
                    best_avg = avg
        got_avg = n / len(cluster_set.clusters)
        assert best_avg is not None
        assert got_avg >= best_avg - 1.0, f"case {i}: got {got_avg}, sweep best {best_avg}"


# 5. On exhaustively solvable instances the solver is near the true optimum.


def test_tiny_instances_land_near_exact_optimum():
    started = time.monotonic()
    hits = 0
    worst = 0.0
    for i in range(100):
        rng = np.random.default_rng(30_000 + i)
        n = 3 + i % 5
        origin = GeoPoint(22.3, 114.0)
        pts = box_points(rng, n, 2_000.0)
        waypoints = tuple(
            Waypoint(j + 1, pts[j], 1, TimeWindow(0, 500_000)) for j in range(n)
        )
        instance = ProblemInstance(
            Depot(origin, TimeWindow(0, 500_000)),
            waypoints,
            (Vehicle(1, 10**9),),
            TravelModel(10.0),
        )
        plan = solve_cvrptw(instance)
        got = evaluate_objective(plan, instance)
        optimum = min(
            sum(
                oracle_meters(
                    (instance.depot.location if a == 0 else pts[a - 1]),
                    pts[b - 1],
                )
                for a, b in zip((0,) + perm, perm)
            )
            for perm in itertools.permutations(range(1, n + 1))
        )
        ratio = got / optimum if optimum > 0 else 1.0
        worst = max(worst, ratio)
        if ratio <= 1.05:
            hits += 1
    elapsed = time.monotonic() - started
    print(f"near-optimal: {hits}/100 within 5%, worst ratio {worst:.3f}, {elapsed:.1f}s")
    assert hits >= 90
    assert elapsed < 300.0


# 6 and 7 share the paired baseline-versus-decomposition runs.


@pytest.fixture(scope="module")
def paired_runs():
    params = SolverParams(time_limit_ms=5_000)
    mono, rec = [], []
    for rep in range(5):
        instance = generate_instance(
            GeneratorConfig(n_waypoints=1_500, seed=_cell_seed(BASE_SEED, 1_500, rep))
        )
        mono.append(run_strategy(instance, Strategy.MONOLITHIC, params=params))
        rec.append(run_strategy(instance, Strategy.RECURSIVE_DBSCAN, params=params))
    return mono, rec


# 6. The decomposition is decisively faster than the monolithic baseline.


def test_decomposition_cuts_runtime(paired_runs):
    mono, rec = paired_runs
    mono_mean = sum(r.wall_time_ms for r in mono) / len(mono)
    rec_mean = sum(r.wall_time_ms for r in rec) / len(rec)
    ratio = rec_mean / mono_mean
    print(f"runtime: mono {mono_mean:.0f} ms, decomposed {rec_mean:.0f} ms, ratio {ratio:.3f}")
    assert ratio <= 0.60


# 7. The speed does not cost more than a bounded quality hit.


def test_decomposition_quality_within_bounds(paired_runs):
    mono, rec = paired_runs
    mono_dist = sum(r.total_distance for r in mono) / len(mono)
    rec_dist = sum(r.total_distance for r in rec) / len(rec)
    mono_cars = sum(r.busy_vehicle_count for r in mono) / len(mono)
    rec_cars = sum(r.busy_vehicle_count for r in rec) / len(rec)
    dist_ratio = rec_dist / mono_dist
    cars_ratio = rec_cars / mono_cars
    print(f"quality: distance ratio {dist_ratio:.3f}, vehicle ratio {cars_ratio:.3f}")
    assert dist_ratio <= 1.25
    assert cars_ratio <= 1.25


# 8. Five thousand waypoints complete under the default memory budget.


def test_five_thousand_waypoints_complete_under_budget():
    started = time.monotonic()
    records = run_benchmark(
        sizes=[5_000],
        repetitions=1,
        strategies=[Strategy.RECURSIVE_DBSCAN, Strategy.MONOLITHIC],
        budget=BudgetConfig(memory_mb=4_096, wall_s=3_000.0),
    )
    by_strategy = {r.strategy: r for r in records}
    rec = by_strategy[Strategy.RECURSIVE_DBSCAN]
    mono = by_strategy[Strategy.MONOLITHIC]
    print(f"scale: recursive={rec.status.value} ({rec.runtime_s}s), monolithic={mono.status.value}")
    assert rec.status is RunStatus.OK
    assert mono.status in (RunStatus.OK, RunStatus.CRASHED_BUDGET)
    assert time.monotonic() - started < 3_600.0


# 9. Every accepted search move strictly improves a feasible plan.


def test_accepted_moves_strictly_improve():
    cases = []
    for seed, n, fleet, cap in [
        (41, 30, 4, 25),
        (42, 50, 8, 20),
        (43, 80, 10, 25),
        (44, 40, 5, 30),
    ]:
        rng = np.random.default_rng(seed)
        pts = box_points(rng, n, 2_500.0)
        waypoints = tuple(
            Waypoint(j + 1, pts[j], int(rng.integers(1, 4)), TimeWindow(0, 500_000))
            for j in range(n)
        )
        cases.append(
            ProblemInstance(
                Depot(GeoPoint(22.3, 114.0), TimeWindow(0, 500_000)),
                waypoints,
                tuple(Vehicle(v + 1, cap) for v in range(fleet)),
                TravelModel(10.0),
            )
        )
    for n in (60, 120):
        cases.append(generate_instance(GeneratorConfig(n_waypoints=n, seed=n, fleet_size=n // 6)))

    total_moves = 0
    for instance in cases:
        params = SolverParams()
        matrix = build_matrix(instance)
        start = path_cheapest_arc(instance, matrix)
        previous = evaluate_objective(start, instance)
        trace = []

        def listener(plan, delta):
            trace.append((plan, delta))

        final = local_search(start, instance, matrix, params, move_listener=listener)
        for plan, delta in trace:
            assert delta <= -params.optimization_step
            assert validate_solution(plan, instance) == []
            now = evaluate_objective(plan, instance)
            assert now == pytest.approx(previous + delta, abs=1e-6)
            previous = now
        assert evaluate_objective(final, instance) == pytest.approx(previous, abs=1e-6)
        total_moves += len(trace)
    print(f"monotone search: {total_moves} accepted moves across {len(cases)} instances")
    assert total_moves > 0


# 10. Identical benchmark runs agree byte for byte on the result columns.


def test_benchmark_outputs_are_deterministic(tmp_path):
    paths = []
    for tag in ("first", "second"):
        records = run_benchmark(sizes=[100, 250], repetitions=2, params=FAST)
        path = str(tmp_path / f"{tag}.csv")
        export_csv(records, path)
        paths.append(path)

    def result_columns(path):
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            return [
                [row["wps"]]
                + [
                    row[f"{prefix}_{suffix}"]
                    for prefix in ("distance", "cars")
                    for suffix in ("monolithic", "dbscan", "recursive")
                ]
                for row in reader
            ]

    first, second = map(result_columns, paths)
    assert first == second
    assert len(first) == 4  # two sizes times two repetitions
