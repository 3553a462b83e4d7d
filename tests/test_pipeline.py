import json
import math
import multiprocessing
import os
import threading
import time
from dataclasses import replace

import numpy as np
import pytest

from routeforge import geo, pipeline
from routeforge.bench import GeneratorConfig, generate_instance
from routeforge.clusterer import (
    Cluster,
    ClusterConfig,
    ClusterSet,
    NoSolutionFoundError,
    RecursionLimitError,
)
from routeforge.geo import GeoPoint, pairwise_meters
from routeforge.model import (
    Depot,
    ProblemInstance,
    TimeWindow,
    TravelModel,
    Vehicle,
    Waypoint,
    evaluate_objective,
    plan_to_dict,
    validate_solution,
)
from routeforge.pipeline import (
    PipelineResult,
    Strategy,
    optimise_clusters,
    run_strategy,
)
from routeforge.solver import SolverParams, solve_cvrptw

EQUATOR_DEGREE_M = 111_195.0802335329
WIDE = TimeWindow(0, 500_000)


def grid_instance(rng, n, n_vehicles, capacity, centers, spread_m=100.0):
    """Waypoints drawn around the given blob centers, depot at the mean."""
    lat0, lon0 = 22.3, 114.0
    pts = []
    for i in range(n):
        base_lat, base_lon = centers[i % len(centers)]
        dy = float(rng.normal(0, spread_m))
        dx = float(rng.normal(0, spread_m))
        pts.append(
            GeoPoint(
                lat0 + base_lat + dy / EQUATOR_DEGREE_M,
                lon0 + base_lon + dx / (EQUATOR_DEGREE_M * math.cos(math.radians(lat0))),
            )
        )
    waypoints = tuple(Waypoint(i + 1, pts[i], 1, WIDE) for i in range(n))
    vehicles = tuple(Vehicle(j + 1, capacity) for j in range(n_vehicles))
    depot = Depot(GeoPoint(lat0, lon0), WIDE)
    return ProblemInstance(depot, waypoints, vehicles, TravelModel(10.0))


def whole_set_cluster(instance) -> ClusterSet:
    members = tuple(range(instance.n_waypoints))
    lat = sum(w.location.lat for w in instance.waypoints) / instance.n_waypoints
    lon = sum(w.location.lon for w in instance.waypoints) / instance.n_waypoints
    return ClusterSet((Cluster(members, GeoPoint(lat, lon), radius=1_000, depth=0),))


def split_clusters(instance, cut: int) -> ClusterSet:
    def make(members):
        lat = sum(instance.waypoints[i].location.lat for i in members) / len(members)
        lon = sum(instance.waypoints[i].location.lon for i in members) / len(members)
        return Cluster(tuple(members), GeoPoint(lat, lon), radius=1_000, depth=0)

    n = instance.n_waypoints
    return ClusterSet((make(range(cut)), make(range(cut, n))))


# --- optimise_clusters ---


def test_single_cluster_equals_direct_solve():
    rng = np.random.default_rng(1)
    uniform = grid_instance(rng, 30, 4, 10, centers=[(0.0, 0.0)])
    # The same waypoints with a mixed fleet: the greedy opens vehicles in id
    # order, so the capacities decide which vehicles a plan takes.
    capacities = (4, 12, 7, 10, 6)
    mixed = replace(uniform, vehicles=tuple(Vehicle(j, c) for j, c in enumerate(capacities, 1)))
    params = SolverParams(rng_seed=7)
    for instance in (uniform, mixed):
        direct = solve_cvrptw(instance, params)
        via_cluster = optimise_clusters(whole_set_cluster(instance), instance, params)
        assert plan_to_dict(via_cluster) == plan_to_dict(direct)
        # MONOLITHIC runs the cluster loop; the direct solve is its reference.
        monolithic = run_strategy(instance, Strategy.MONOLITHIC, params=params).plan
        assert plan_to_dict(monolithic) == plan_to_dict(direct)


def test_clusters_use_disjoint_vehicles():
    rng = np.random.default_rng(2)
    instance = grid_instance(rng, 20, 2, 10, centers=[(0.0, 0.0), (0.0, 0.05)])
    # waypoints alternate between the two centers: indices 0,2,4... and 1,3,5...
    even = [i for i in range(20) if i % 2 == 0]
    odd = [i for i in range(20) if i % 2 == 1]

    def make(members):
        lat = sum(instance.waypoints[i].location.lat for i in members) / len(members)
        lon = sum(instance.waypoints[i].location.lon for i in members) / len(members)
        return Cluster(tuple(members), GeoPoint(lat, lon), radius=1_000, depth=0)

    clusters = ClusterSet((make(even), make(odd)))
    plan = optimise_clusters(clusters, instance)
    assert validate_solution(plan, instance) == []
    assert plan.busy_vehicles == frozenset({1, 2})
    by_vehicle = {r.vehicle_id: {s.waypoint_id for s in r.stops} for r in plan.routes}
    assert by_vehicle[1].isdisjoint(by_vehicle[2])


def test_pool_dry_raises_no_solution():
    rng = np.random.default_rng(3)
    instance = grid_instance(rng, 20, 1, 10, centers=[(0.0, 0.0), (0.0, 0.05)])
    clusters = split_clusters(instance, 10)
    with pytest.raises(NoSolutionFoundError):
        optimise_clusters(clusters, instance)


def test_oversized_cluster_demand_raises_no_solution():
    rng = np.random.default_rng(4)
    # 30 units of demand in one cluster, fleet holds 10 total
    instance = grid_instance(rng, 30, 1, 10, centers=[(0.0, 0.0)])
    with pytest.raises(NoSolutionFoundError):
        optimise_clusters(whole_set_cluster(instance), instance)


# --- run_strategy ---


def shedding_chain_instance():
    """500 waypoints on the equator whose gaps shrink by 1 m per step, so
    every recursion level sheds only a point or two."""
    positions = [0.0]
    for i in range(499):
        positions.append(positions[-1] + (1_000.0 - i))
    waypoints = tuple(
        Waypoint(i + 1, GeoPoint(0.0, x / EQUATOR_DEGREE_M), 1, WIDE) for i, x in enumerate(positions)
    )
    vehicles = tuple(Vehicle(j + 1, 30) for j in range(40))
    return ProblemInstance(Depot(GeoPoint(0.0, 0.0), WIDE), waypoints, vehicles, TravelModel(10.0))


def test_failure_carries_wall_time():
    rng = np.random.default_rng(5)
    instance = grid_instance(rng, 30, 1, 10, centers=[(0.0, 0.0)])
    for strategy in Strategy:
        with pytest.raises(NoSolutionFoundError) as err:
            run_strategy(instance, strategy)
        assert err.value.wall_time_ms is not None
        assert err.value.wall_time_ms >= 0.0
    with pytest.raises(RecursionLimitError) as err:
        run_strategy(
            shedding_chain_instance(),
            Strategy.RECURSIVE_DBSCAN,
            cluster_config=ClusterConfig(max_cluster_size=400),
        )
    assert err.value.wall_time_ms is not None
    assert err.value.wall_time_ms >= 0.0


def test_single_waypoint_identical_across_strategies():
    instance = grid_instance(np.random.default_rng(6), 1, 2, 10, centers=[(0.0, 0.0)])
    params = SolverParams(rng_seed=3)
    plans = [
        plan_to_dict(run_strategy(instance, s, params=params).plan) for s in Strategy
    ]
    assert plans[0] == plans[1] == plans[2]


@pytest.mark.parametrize("strategy", list(Strategy))
def test_strategies_cover_every_waypoint(strategy):
    rng = np.random.default_rng(7)
    instance = grid_instance(
        rng, 120, 16, 10, centers=[(0.0, 0.0), (0.0, 0.04), (0.03, 0.02)]
    )
    result = run_strategy(instance, strategy, params=SolverParams(time_limit_ms=500))
    assert isinstance(result, PipelineResult)
    assert validate_solution(result.plan, instance) == []
    visited = sorted(s.waypoint_id for r in result.plan.routes for s in r.stops)
    assert visited == list(range(1, 121))
    assert result.total_distance == evaluate_objective(result.plan, instance)
    assert result.busy_vehicle_count == len(result.plan.busy_vehicles)
    assert result.wall_time_ms > 0.0
    if strategy is Strategy.MONOLITHIC:
        assert result.cluster_count == 0
        assert result.peak_cluster_size == 0
    else:
        assert result.cluster_count >= 1
        assert result.peak_cluster_size >= 1


def test_recursive_strategy_decomposes_large_instance():
    config = GeneratorConfig(n_waypoints=2_000, seed=42)
    instance = generate_instance(config)
    result = run_strategy(
        instance, Strategy.RECURSIVE_DBSCAN, params=SolverParams(time_limit_ms=300)
    )
    assert validate_solution(result.plan, instance) == []
    assert result.cluster_count >= 4
    assert result.peak_cluster_size <= ClusterConfig().max_cluster_size


# --- pooled pre-solves against the in-order solve ---


def solve_pooled_and_serial(monkeypatch, solve):
    """Outcome of solve() and its in-process sub-solve count with a
    two-worker pool, then with one usable CPU.  An outcome is the plan JSON
    or the error message."""
    solves = []

    def counted(sub, params):
        solves.append(sub.n_waypoints)
        return solve_cvrptw(sub, params)

    monkeypatch.setattr(pipeline, "solve_cvrptw", counted)
    monkeypatch.delenv("ROUTE_FORGE_THREADS", raising=False)
    runs = []
    for cpus in ({0, 1}, {0}):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: cpus, raising=False)
        solves.clear()
        try:
            outcome = json.dumps(plan_to_dict(solve()))
        except NoSolutionFoundError as exc:
            outcome = f"NoSolutionFoundError: {exc}"
        runs.append((outcome, len(solves)))
    return runs


@pytest.mark.parametrize("strategy", [Strategy.DBSCAN, Strategy.RECURSIVE_DBSCAN, Strategy.MONOLITHIC])
def test_pooled_plan_equals_serial_plan(monkeypatch, strategy):
    instance = generate_instance(GeneratorConfig(n_waypoints=1_200, seed=4))
    (pooled, resolved), (serial, serial_solves) = solve_pooled_and_serial(
        monkeypatch, lambda: run_strategy(instance, strategy).plan
    )
    assert pooled == serial
    if strategy is Strategy.MONOLITHIC:
        # One group starts no pool: it is solved in process both times, and
        # with two CPUs only its matrix fill is split across processes.
        assert serial_solves == resolved == 1
        return
    # A uniform fleet with vehicles to spare: every pre-solved plan is kept.
    assert serial_solves > 1
    assert resolved == 0


def test_pooled_plan_equals_serial_plan_on_mixed_fleet(monkeypatch):
    instance = generate_instance(GeneratorConfig(n_waypoints=1_200, seed=4))
    capacities = (30, 24, 36)
    vehicles = tuple(replace(v, capacity=capacities[v.id % 3]) for v in instance.vehicles)
    instance = replace(instance, vehicles=vehicles)
    (pooled, resolved), (serial, serial_solves) = solve_pooled_and_serial(
        monkeypatch, lambda: run_strategy(instance, Strategy.RECURSIVE_DBSCAN).plan
    )
    assert pooled == serial
    # The free vehicles of a later cluster start at another place in the
    # capacity cycle, so some pre-solves are thrown away and solved again.
    assert 0 < resolved < serial_solves


@pytest.mark.parametrize("strategy", [Strategy.DBSCAN, Strategy.RECURSIVE_DBSCAN])
def test_pool_exhaustion_error_equals_serial_error(monkeypatch, strategy):
    instance = generate_instance(GeneratorConfig(n_waypoints=1_000, seed=0, fleet_size=84))
    (pooled, _), (serial, _) = solve_pooled_and_serial(
        monkeypatch, lambda: run_strategy(instance, strategy).plan
    )
    assert serial.startswith("NoSolutionFoundError: sub-solve infeasible")
    assert pooled == serial


def test_infeasible_presolve_of_first_cluster_gives_the_serial_error(monkeypatch):
    rng = np.random.default_rng(8)
    instance = grid_instance(rng, 20, 1, 10, centers=[(0.0, 0.0), (0.0, 0.05)])
    # 15 units of demand go first against one vehicle of capacity 10.  The
    # free pool is still the whole fleet, so the pre-solve's error is kept.
    clusters = split_clusters(instance, 15)
    (pooled, resolved), (serial, _) = solve_pooled_and_serial(
        monkeypatch, lambda: optimise_clusters(clusters, instance)
    )
    assert serial.startswith(
        "NoSolutionFoundError: sub-solve infeasible for cluster of size 15: 5 waypoints"
    )
    assert pooled == serial
    assert resolved == 0


def test_infeasible_cluster_lists_its_own_waypoint_ids(monkeypatch):
    rng = np.random.default_rng(8)
    instance = grid_instance(rng, 30, 1, 10, centers=[(0.0, 0.0)])
    # The larger cluster, waypoints 15..30, goes first and leaves 6 of its
    # 16 units of demand unassigned.  Its sub-instance numbers them 1..16.
    clusters = split_clusters(instance, 14)
    (pooled, _), (serial, _) = solve_pooled_and_serial(
        monkeypatch, lambda: optimise_clusters(clusters, instance)
    )
    assert pooled == serial
    assert serial.startswith("NoSolutionFoundError: sub-solve infeasible for cluster of size 16: 6 waypoints")
    listed = [int(w) for w in serial.rsplit("[", 1)[1].rstrip("]").split(", ")]
    assert len(listed) == 6
    assert set(listed) <= set(range(15, 31))


def two_cluster_plan(seed):
    instance = grid_instance(np.random.default_rng(seed), 20, 4, 10, centers=[(0.0, 0.0), (0.0, 0.05)])
    return plan_to_dict(optimise_clusters(split_clusters(instance, 10), instance))


def test_daemonic_caller_solves_in_process(monkeypatch):
    # A multiprocessing.Pool worker may not start a pool of its own.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    with multiprocessing.get_context("fork").Pool(1) as outer:
        assert outer.apply(two_cluster_plan, (9,)) == two_cluster_plan(9)


def fill_in_pool_worker(points):
    """pairwise_meters in a daemonic pool worker, where os.fork now fails."""

    def refused():
        raise AssertionError("pairwise_meters forked in a daemonic process")

    os.fork = refused
    return pairwise_meters(points).tobytes()


def test_daemonic_caller_fills_the_matrix_in_process(monkeypatch):
    # The budgeted bench run relies on this: its daemonic child must stay
    # one process, whatever the matrix size.
    instance = generate_instance(GeneratorConfig(n_waypoints=1_200, seed=4))
    points = [w.location for w in instance.waypoints]
    monkeypatch.setattr(geo, "usable_cpus", lambda: 1)
    serial = pairwise_meters(points).tobytes()
    monkeypatch.setattr(geo, "usable_cpus", lambda: 2)
    with multiprocessing.get_context("fork").Pool(1) as outer:
        assert outer.apply_async(fill_in_pool_worker, (points,)).get(timeout=120) == serial


def test_thread_cap_solves_in_process(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setenv("ROUTE_FORGE_THREADS", "1")
    solves = []

    def counted(sub, params):
        solves.append(sub.n_waypoints)
        return solve_cvrptw(sub, params)

    monkeypatch.setattr(pipeline, "solve_cvrptw", counted)
    assert two_cluster_plan(9) is not None
    assert sorted(solves) == [10, 10]


def test_caller_running_a_second_thread_solves_in_process(monkeypatch):
    # A fork would copy whatever locks the other thread holds.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.delenv("ROUTE_FORGE_THREADS", raising=False)
    solves = []

    def counted(sub, params):
        solves.append(sub.n_waypoints)
        return solve_cvrptw(sub, params)

    monkeypatch.setattr(pipeline, "solve_cvrptw", counted)
    done = threading.Event()
    other = threading.Thread(target=done.wait)
    other.start()
    try:
        plan = two_cluster_plan(9)
    finally:
        done.set()
        other.join()
    assert sorted(solves) == [10, 10]
    # alone again, the process pre-solves both clusters in children, where
    # its counter does not see them
    assert two_cluster_plan(9) == plan
    assert sorted(solves) == [10, 10]


def exit_in_child(code):
    parent = os.getpid()

    def solve(sub, params):
        if os.getpid() != parent:
            os._exit(code)
        return solve_cvrptw(sub, params)

    return solve


def stall_parent(monkeypatch):
    """Pre-solves that take a minute, and a parent that fails while it
    waits for them."""
    parent = os.getpid()

    def slow(sub, params):
        if os.getpid() != parent:
            time.sleep(60)
        return solve_cvrptw(sub, params)

    def interrupted(self):
        raise KeyboardInterrupt

    monkeypatch.setattr(pipeline, "solve_cvrptw", slow)
    monkeypatch.setattr(pipeline.Connection, "recv", interrupted)


@pytest.mark.parametrize("failure", ["child exits 3", "parent interrupted", "cluster infeasible"])
def test_failed_solve_leaves_no_child(monkeypatch, failure):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.delenv("ROUTE_FORGE_THREADS", raising=False)
    started = time.perf_counter()
    if failure == "child exits 3":
        monkeypatch.setattr(pipeline, "solve_cvrptw", exit_in_child(3))
        with pytest.raises(RuntimeError, match="exited with code 3"):
            two_cluster_plan(9)
    elif failure == "parent interrupted":
        stall_parent(monkeypatch)
        with pytest.raises(KeyboardInterrupt):
            two_cluster_plan(9)
        # the children were terminated, not waited for
        assert time.perf_counter() - started < 30
    else:
        instance = grid_instance(np.random.default_rng(3), 20, 1, 10, centers=[(0.0, 0.0), (0.0, 0.05)])
        with pytest.raises(NoSolutionFoundError, match="vehicle pool exhausted"):
            optimise_clusters(split_clusters(instance, 10), instance)
    assert multiprocessing.active_children() == []


# --- worker placement ---


def drain(queue) -> list:
    items = []
    while not queue.empty():
        items.append(queue.get())
    return items


@pytest.mark.skipif(
    len(getattr(os, "sched_getaffinity", lambda pid: ())(0)) < 2, reason="needs 2 usable CPUs"
)
def test_pool_workers_start_on_distinct_cpus(monkeypatch):
    monkeypatch.delenv("ROUTE_FORGE_THREADS", raising=False)
    allowed = os.sched_getaffinity(0)
    calls = multiprocessing.get_context("fork").SimpleQueue()
    set_affinity = os.sched_setaffinity

    def logged(pid, mask):
        set_affinity(pid, mask)
        # field 39 of /proc/self/stat: the CPU the process runs on
        with open("/proc/self/stat") as stat:
            cpu = int(stat.read().rsplit(")", 1)[1].split()[36])
        calls.put((os.getpid(), set(mask), cpu, os.sched_getaffinity(0)))

    monkeypatch.setattr(os, "sched_setaffinity", logged)
    plan = two_cluster_plan(9)
    by_worker: dict[int, list] = {}
    for pid, mask, cpu, after in drain(calls):
        by_worker.setdefault(pid, []).append((mask, cpu, after))
    assert len(by_worker) == 2
    taken = []
    for (first, cpu, _), (restored, _, after) in by_worker.values():
        assert first == {cpu}
        assert restored == after == allowed
        taken.append(cpu)
    assert sorted(taken) == sorted(allowed)[:2]
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert two_cluster_plan(9) == plan


def test_failed_placement_leaves_the_pool_working(monkeypatch):
    calls = multiprocessing.get_context("fork").SimpleQueue()

    def refused(pid, mask):
        calls.put(set(mask))
        raise PermissionError("sched_setaffinity refused")

    monkeypatch.setattr(os, "sched_setaffinity", refused, raising=False)
    rng = np.random.default_rng(9)
    instance = grid_instance(rng, 20, 4, 10, centers=[(0.0, 0.0), (0.0, 0.05)])
    (pooled, resolved), (serial, _) = solve_pooled_and_serial(
        monkeypatch, lambda: optimise_clusters(split_clusters(instance, 10), instance)
    )
    assert sorted(drain(calls), key=min) == [{0}, {1}]
    assert pooled == serial
    assert resolved == 0
