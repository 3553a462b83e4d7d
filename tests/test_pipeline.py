import json
import math
import multiprocessing
import os
import threading
import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from routeforge import geo, pipeline
from routeforge.bench import GeneratorConfig, WindowStyle, generate_instance
from routeforge.clusterer import (
    Cluster,
    _centroid,
    ClusterConfig,
    ClusterSet,
    NoSolutionFoundError,
    RecursionLimitError,
)
from routeforge.geo import GeoPoint, haversine_distance, pairwise_meters
from routeforge.model import (
    Depot,
    InfeasibleSequenceError,
    ProblemInstance,
    Route,
    RoutePlan,
    StopVisit,
    TimeWindow,
    TravelModel,
    Vehicle,
    Waypoint,
    evaluate_objective,
    plan_to_dict,
    propagate_schedule,
    validate_solution,
)
from routeforge.pipeline import (
    PipelineResult,
    Strategy,
    optimise_clusters,
    run_strategy,
)
from routeforge.solver import InfeasibleError, SolverParams, solve_cvrptw

seam_pass = pipeline._empty_seam_routes

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


def test_strategy_given_by_value_runs_the_strategy_it_names():
    instance = generate_instance(GeneratorConfig(n_waypoints=400, seed=1))
    params = SolverParams(time_limit_ms=100)
    for strategy in Strategy:
        by_value = run_strategy(instance, strategy.value, params=params)
        by_member = run_strategy(instance, strategy, params=params)
        assert plan_to_dict(by_value.plan) == plan_to_dict(by_member.plan)
        assert by_value.cluster_count == by_member.cluster_count
    with pytest.raises(ValueError):
        run_strategy(instance, "bogus", params=params)


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


@pytest.mark.parametrize(
    "strategy, windows",
    [
        pytest.param(Strategy.DBSCAN, WindowStyle.WIDE, id="DBSCAN"),
        pytest.param(Strategy.RECURSIVE_DBSCAN, WindowStyle.WIDE, id="RECURSIVE_DBSCAN"),
        pytest.param(Strategy.MONOLITHIC, WindowStyle.WIDE, id="MONOLITHIC"),
        # the seam pass empties a route here
        pytest.param(Strategy.DBSCAN, WindowStyle.MIXED, id="DBSCAN-mixed"),
    ],
)
def test_pooled_plan_equals_serial_plan(monkeypatch, strategy, windows):
    instance = generate_instance(GeneratorConfig(n_waypoints=1_200, seed=4, window_style=windows))
    emptied = []

    def counted(instance, members, plan, *given):
        out = seam_pass(instance, members, plan, *given)
        emptied.append(len(plan.routes) - len(out.routes))
        return out

    monkeypatch.setattr(pipeline, "_empty_seam_routes", counted)
    (pooled, resolved), (serial, serial_solves) = solve_pooled_and_serial(
        monkeypatch, lambda: run_strategy(instance, strategy).plan
    )
    assert pooled == serial
    assert emptied[0] == emptied[1]
    assert (emptied[0] > 0) == (windows is WindowStyle.MIXED)
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


def test_sub_solve_answers_in_instance_ids_and_capacity_positions():
    at = lambda k: GeoPoint(22.3, 114.0 + 0.001 * k)
    waypoints = tuple(Waypoint(k, at(k), 4, WIDE) for k in range(1, 9))
    instance = ProblemInstance(Depot(at(0), WIDE), waypoints, (Vehicle(1, 30),), TravelModel(10.0))
    members = [6, 1, 4]  # waypoints 7, 2 and 5: 12 units of demand
    plan = pipeline._sub_solve(instance, members, [8, 4], SolverParams())
    assert sorted(s.waypoint_id for r in plan.routes for s in r.stops) == [2, 5, 7]
    assert plan.busy_vehicles == {1, 2}
    assert sorted(sum(instance.waypoint(i).demand for i in r.stop_ids) for r in plan.routes) == [4, 8]
    short = pipeline._sub_solve(instance, members, [4], SolverParams())
    assert isinstance(short, InfeasibleError)
    assert len(short.unassigned) == 2 and set(short.unassigned) < {2, 5, 7}
    oversized = pipeline._sub_solve(instance, members, [3, 3], SolverParams())
    assert oversized.unassigned == (2, 5, 7)


def test_demand_beyond_the_free_pool_is_infeasible_not_invalid(monkeypatch):
    # Waypoints 1-3 (5 units each) fill the 15-unit vehicle, so waypoint 4's
    # 12 units exceed every free capacity (10 and 5) but not the fleet's.
    at = lambda k: GeoPoint(22.3, 114.0 + 0.001 * k)
    waypoints = tuple(Waypoint(k, at(k), 12 if k == 4 else 5, WIDE) for k in range(1, 5))
    vehicles = (Vehicle(1, 15), Vehicle(2, 10), Vehicle(3, 5))
    instance = ProblemInstance(Depot(at(0), WIDE), waypoints, vehicles, TravelModel(10.0))
    members = [[0, 1, 2], [3]]
    (pooled, _), (serial, _) = solve_pooled_and_serial(
        monkeypatch, lambda: pipeline._solve_in_order(instance, members, SolverParams())
    )
    assert serial == (
        "NoSolutionFoundError: sub-solve infeasible for cluster of size 1: "
        "1 waypoints cannot be assigned: [4]"
    )
    assert pooled == serial
    # run_strategy reports it with the wall time, as every failed solve.
    clusters = ClusterSet(
        tuple(Cluster(tuple(m), at(m[0] + 1), radius=1_000, depth=0) for m in members)
    )
    monkeypatch.setattr(pipeline, "binary_search_clusters", lambda *args: (clusters, None))
    with pytest.raises(NoSolutionFoundError, match=r"\[4\]") as err:
        run_strategy(instance, Strategy.DBSCAN)
    assert err.value.wall_time_ms >= 0.0


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
    monkeypatch.setattr("multiprocessing.connection.Connection.recv", interrupted)


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


# --- the seam pass ---


def seam_instance(a_at, b_at, b_window=WIDE, b_service=0, a_window=WIDE):
    """Group A: six waypoints of demand 2 around a_at, group B: five of
    demand 1 around b_at, both (east, north) meters from the depot, one
    meter apart; four vehicles of capacity 10 on the equator."""

    def at(east, north):
        return GeoPoint(north / EQUATOR_DEGREE_M, east / EQUATOR_DEGREE_M)

    waypoints = [Waypoint(k + 1, at(a_at[0], a_at[1] + k), 2, a_window) for k in range(6)]
    waypoints += [Waypoint(k + 7, at(b_at[0], b_at[1] + k), 1, b_window, b_service) for k in range(5)]
    vehicles = tuple(Vehicle(j + 1, 10) for j in range(4))
    instance = ProblemInstance(Depot(at(0.0, 0.0), WIDE), tuple(waypoints), vehicles, TravelModel(10.0))
    return instance, [list(range(6)), list(range(6, 11))]


def centroids(instance, members):
    points = [w.location for w in instance.waypoints]
    return [_centroid(points, group) for group in members]


def loop_plan(instance, members):
    """The in-order loop's plan: A fills one vehicle and leaves one stop to
    a second, B takes a third."""
    plan = pipeline._solve_in_order(instance, members, SolverParams())
    loads = sorted(sum(instance.waypoint(i).demand for i in r.stop_ids) for r in plan.routes)
    assert loads == [2, 5, 10]
    return plan


def remainder_route(plan, instance):
    return next(r for r in plan.routes if sum(instance.waypoint(i).demand for i in r.stop_ids) == 2)


def test_seam_pass_empties_a_remainder_route_into_a_nearby_group():
    instance, members = seam_instance(a_at=(5_500.0, 0.0), b_at=(5_000.0, 0.0))
    before = loop_plan(instance, members)
    remainder = remainder_route(before, instance)
    after = seam_pass(instance, members, before, centroids(instance, members))
    assert validate_solution(after, instance) == []
    assert after.busy_vehicles == before.busy_vehicles - {remainder.vehicle_id}
    assert evaluate_objective(after, instance) <= evaluate_objective(before, instance)
    # A's stop goes to the end of B's route, 500 m on instead of 5.5 km
    b_route = next(r for r in after.routes if 7 in r.stop_ids)
    assert b_route.stop_ids[-1] == remainder.stop_ids[0]
    saved = evaluate_objective(before, instance) - evaluate_objective(after, instance)
    assert saved == pytest.approx(5_000.0, abs=10.0)


def test_seam_pass_keeps_the_plan_when_windows_block_every_position():
    # B serves 1000 s per stop and its windows close 20 s after its last
    # start: a detour through A's stop delays B's stops past them, and an
    # A stop after B's comes hours after A's window closes.
    instance, members = seam_instance(
        a_at=(5_500.0, 0.0),
        b_at=(5_000.0, 0.0),
        b_window=TimeWindow(0, 4_520),
        b_service=1_000,
        a_window=TimeWindow(0, 1_000),
    )
    before = loop_plan(instance, members)
    assert seam_pass(instance, members, before, centroids(instance, members)) is before


def test_seam_pass_keeps_the_plan_when_emptying_would_lengthen_it():
    # A's remainder lies 1 km from the depot and B 5 km north of it: every
    # position in B's route costs more than the remainder route's 1 km.
    instance, members = seam_instance(a_at=(1_000.0, 0.0), b_at=(0.0, 5_000.0))
    before = loop_plan(instance, members)
    assert seam_pass(instance, members, before, centroids(instance, members)) is before


def test_seam_pass_leaves_monolithic_at_its_capacity_bound():
    instance, _ = seam_instance(a_at=(5_500.0, 0.0), b_at=(5_000.0, 0.0))
    members = [list(range(instance.n_waypoints))]
    before = pipeline._solve_in_order(instance, members, SolverParams())
    demand = sum(w.demand for w in instance.waypoints)
    assert len(before.busy_vehicles) == math.ceil(demand / 10)
    assert seam_pass(instance, members, before) is before


def plain_seam_pass(instance, members, plan):
    """The seam pass by its rule alone: every position priced with the
    scalar haversine_distance and checked with propagate_schedule."""
    routes = list(plan.routes)
    if len(routes) < 2:
        return plan
    group_of = {i + 1: g for g, group in enumerate(members) for i in group}
    demand = lambda w: instance.waypoint(w).demand
    place = lambda w: instance.depot.location if w == 0 else instance.waypoint(w).location
    d = lambda u, v: haversine_distance(place(u), place(v))
    load = lambda route: sum(demand(w) for w in route.stop_ids)
    spare = lambda route: instance.vehicle(route.vehicle_id).capacity - load(route)
    group = [group_of[r.stop_ids[0]] for r in routes]
    candidates = sorted(
        (min((k for k in range(len(routes)) if group[k] == g), key=lambda k: (load(routes[k]), routes[k].vehicle_id))
         for g in range(len(members))),
        key=lambda k: (load(routes[k]), routes[k].vehicle_id),
    )
    centroid = centroids(instance, members)
    alive = [True] * len(routes)
    for c in candidates:
        g = group[c]
        near = sorted(
            (h for h in range(len(members)) if h != g),
            key=lambda h: (haversine_distance(centroid[g], centroid[h]), h),
        )[:2]
        targets = sorted(
            (k for k in range(len(routes)) if alive[k] and k != c and group[k] in (g, *near)),
            key=lambda k: routes[k].vehicle_id,
        )
        if sum(spare(routes[k]) for k in targets) < load(routes[c]):
            continue
        trial = {k: routes[k] for k in targets}
        path = (0,) + routes[c].stop_ids
        length = sum(d(u, v) for u, v in zip(path, path[1:]))
        total = 0.0
        for w in routes[c].stop_ids:
            best = None
            for k in targets:
                ids = trial[k].stop_ids
                if spare(trial[k]) < demand(w):
                    continue
                for p in range(len(ids) + 1):
                    prev = ids[p - 1] if p else 0
                    cost = d(prev, w) + d(w, ids[p]) - d(prev, ids[p]) if p < len(ids) else d(prev, w)
                    stops = tuple(StopVisit(i, 0.0, 0.0) for i in ids[:p] + (w,) + ids[p:])
                    try:
                        timed = propagate_schedule(Route(trial[k].vehicle_id, 0.0, stops), instance, trial[k].depot_pickup_time)
                    except InfeasibleSequenceError:
                        continue
                    if best is None or cost < best[0]:
                        best = (cost, k, timed)
            if best is None:
                break
            total += best[0]
            trial[best[1]] = best[2]
            if total > length:
                break
        else:
            for k, route in trial.items():
                routes[k] = route
            alive[c] = False
    return RoutePlan(tuple(r for k, r in enumerate(routes) if alive[k]))


def loop_and_pass_plans(instance, strategy, config):
    """run_strategy's plan, with the loop's plan the seam pass started from."""
    seen = []

    def recorded(instance, members, plan, *given):
        seen.append((instance, members, plan))
        return seam_pass(instance, members, plan, *given)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pipeline, "_empty_seam_routes", recorded)
        result = run_strategy(instance, strategy, cluster_config=config)
    ((_, members, before),) = seen
    return members, before, result.plan


@pytest.mark.parametrize("windows", list(WindowStyle))
def test_seam_pass_equals_the_plain_rule(windows):
    config = ClusterConfig(max_cluster_size=100)
    emptied = 0
    for seed in (1, 2):
        # mixed windows need more vehicles than the generator's n / 10
        instance = generate_instance(GeneratorConfig(n_waypoints=400, seed=seed, window_style=windows, fleet_size=60))
        for strategy in (Strategy.DBSCAN, Strategy.RECURSIVE_DBSCAN):
            members, before, after = loop_and_pass_plans(instance, strategy, config)
            assert plan_to_dict(after) == plan_to_dict(plain_seam_pass(instance, members, before))
            emptied += len(before.routes) - len(after.routes)
    assert emptied > 0


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    windows=st.sampled_from(list(WindowStyle)),
    n=st.integers(50, 400),
    margin=st.integers(0, 10),
    cap=st.integers(40, 200),
)
def test_seam_pass_never_adds_vehicles_or_distance(seed, windows, n, margin, cap):
    instance = generate_instance(GeneratorConfig(n_waypoints=n, seed=seed, window_style=windows))
    bound = math.ceil(sum(w.demand for w in instance.waypoints) / 30)
    instance = replace(instance, vehicles=tuple(Vehicle(j, 30) for j in range(1, bound + margin + 1)))
    config = ClusterConfig(max_cluster_size=cap)
    for strategy in Strategy:
        # A failed solve is skipped: which error it raises can depend on
        # the CPU count (the xfail test below).
        try:
            _, before, after = loop_and_pass_plans(instance, strategy, config)
        except NoSolutionFoundError:
            continue
        assert validate_solution(after, instance) == []
        assert len(after.busy_vehicles) <= len(before.busy_vehicles)
        assert evaluate_objective(after, instance) <= evaluate_objective(before, instance) + 1e-6
        with pytest.MonkeyPatch.context() as mp:
            mp.setenv("ROUTE_FORGE_THREADS", "1")
            try:
                serial = run_strategy(instance, strategy, cluster_config=config).plan
            except NoSolutionFoundError:
                continue
        assert plan_to_dict(after) == plan_to_dict(serial)


@pytest.mark.xfail(
    strict=True,
    reason="the pre-solve keep check reads the highest busy vehicle, but the construction "
    "may have opened a later one that the local search emptied",
)
def test_pooled_error_equals_serial_error_after_a_presolve_emptied_its_last_vehicle(monkeypatch):
    # DBSCAN's cluster of 16 pre-solves on vehicles 1-3 of the 7, and its
    # local search empties vehicle 3; only 2 are free when its turn comes,
    # so the in-order solve is infeasible, but the pre-solved plan is kept.
    instance = generate_instance(GeneratorConfig(n_waypoints=73, seed=8158, window_style=WindowStyle.MIXED))
    bound = math.ceil(sum(w.demand for w in instance.waypoints) / 30)
    instance = replace(instance, vehicles=tuple(Vehicle(j, 30) for j in range(1, bound + 1)))
    config = ClusterConfig(max_cluster_size=40)
    (pooled, _), (serial, _) = solve_pooled_and_serial(
        monkeypatch, lambda: run_strategy(instance, Strategy.DBSCAN, cluster_config=config).plan
    )
    assert serial.endswith("1 waypoints cannot be assigned: [48]")
    assert pooled == serial


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
