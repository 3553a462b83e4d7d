import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from routeforge.geo import METERS_PER_RADIAN, GeoPoint, haversine_distance
from routeforge.model import (
    Depot,
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
from routeforge.solver import (
    DistanceMatrix,
    InfeasibleError,
    SolverParams,
    _nearest_neighbors,
    build_matrix,
    local_search,
    path_cheapest_arc,
    solve_cvrptw,
)

EQUATOR_DEGREE_M = 111_195.0802335329
WIDE = TimeWindow(0, 500_000)


def east(meters: float) -> GeoPoint:
    return GeoPoint(0.0, meters / EQUATOR_DEGREE_M)


def make_instance(offsets_m, demands=None, capacity=30, n_vehicles=3, windows=None, speed=10.0, service=0):
    n = len(offsets_m)
    demands = demands or [1] * n
    windows = windows or [WIDE] * n
    waypoints = tuple(
        Waypoint(i + 1, east(offsets_m[i]), demands[i], windows[i], service_duration=service)
        for i in range(n)
    )
    vehicles = tuple(Vehicle(j + 1, capacity) for j in range(n_vehicles))
    return ProblemInstance(Depot(east(0.0), WIDE), waypoints, vehicles, TravelModel(speed))


def scatter_instance(rng, n, n_vehicles, capacity, box_m=1_000.0, demand_hi=3):
    origin = GeoPoint(22.3, 114.0)
    pts = []
    for _ in range(n):
        dx = float(rng.uniform(0, box_m))
        dy = float(rng.uniform(0, box_m))
        pts.append(
            GeoPoint(
                origin.lat + dy / EQUATOR_DEGREE_M,
                origin.lon + dx / (EQUATOR_DEGREE_M * math.cos(math.radians(origin.lat))),
            )
        )
    waypoints = tuple(
        Waypoint(i + 1, pts[i], int(rng.integers(1, demand_hi + 1)), WIDE) for i in range(n)
    )
    vehicles = tuple(Vehicle(j + 1, capacity) for j in range(n_vehicles))
    return ProblemInstance(Depot(origin, WIDE), waypoints, vehicles, TravelModel(10.0))


def routed(instance, vehicle_id, stop_ids):
    bare = Route(vehicle_id, 0.0, tuple(StopVisit(i, 0.0, 0.0) for i in stop_ids))
    return propagate_schedule(bare, instance)


def RoutePlanFrom(instance, routes_stop_ids):
    return RoutePlan(
        tuple(routed(instance, v + 1, ids) for v, ids in enumerate(routes_stop_ids) if ids)
    )


def oracle_meters(a: GeoPoint, b: GeoPoint) -> float:
    lat1, lon1, lat2, lon2 = map(math.radians, (a.lat, a.lon, b.lat, b.lon))
    h = math.sin((lat2 - lat1) / 2) ** 2 + math.cos(lat1) * math.cos(lat2) * math.sin((lon2 - lon1) / 2) ** 2
    return 2.0 * METERS_PER_RADIAN * math.asin(math.sqrt(h))


def branch_and_bound_optimum(instance) -> float:
    """Exact minimum total distance over open routes, by exhaustive search
    with cost pruning.  Only usable on toy instances."""
    nodes = [instance.depot.location] + [w.location for w in instance.waypoints]
    n = instance.n_waypoints
    dist = [[oracle_meters(a, b) for b in nodes] for a in nodes]
    demand = [0] + [w.demand for w in instance.waypoints]
    earliest = [0.0] + [float(w.window.earliest) for w in instance.waypoints]
    latest = [0.0] + [float(w.window.latest) for w in instance.waypoints]
    service = [0.0] + [float(w.service_duration) for w in instance.waypoints]
    speed = instance.travel.speed_mps
    e0 = float(instance.depot.window.earliest)
    capacity = [v.capacity for v in instance.vehicles]
    best = math.inf

    def rec(unvisited, vehicle, last, load, clock, acc):
        nonlocal best
        if acc >= best:
            return
        if not unvisited:
            best = acc
            return
        for j in sorted(unvisited):
            if load + demand[j] > capacity[vehicle]:
                continue
            arrival = clock + dist[last][j] / speed
            start = max(arrival, earliest[j])
            if start > latest[j]:
                continue
            rec(unvisited - {j}, vehicle, j, load + demand[j], start + service[j], acc + dist[last][j])
        if last != 0 and vehicle + 1 < len(capacity):
            rec(unvisited, vehicle + 1, 0, 0, e0, acc)

    rec(frozenset(range(1, n + 1)), 0, 0, 0, e0, 0.0)
    return best


# --- params ---


def test_params_validation():
    with pytest.raises(ValueError):
        SolverParams(optimization_step=-0.5)
    with pytest.raises(ValueError):
        SolverParams(solution_limit=-1)
    with pytest.raises(ValueError):
        SolverParams(time_limit_ms=-1)


# --- distance matrix ---


def test_matrix_return_leg_is_free():
    instance = make_instance([1_000.0])
    matrix = build_matrix(instance)
    assert matrix.n == 2
    assert matrix.d(0, 1) == pytest.approx(1_000.0, abs=0.01)
    assert matrix.d(1, 0) == 0.0
    assert matrix.d(0, 0) == 0.0


def test_matrix_waypoint_block_is_symmetric():
    rng = np.random.default_rng(2)
    instance = scatter_instance(rng, 10, 3, 30)
    matrix = build_matrix(instance)
    for i in range(1, 11):
        for j in range(1, 11):
            assert matrix.d(i, j) == matrix.d(j, i)
        assert matrix.d(i, 0) == 0.0


def test_matrix_matches_direct_haversine():
    rng = np.random.default_rng(3)
    instance = scatter_instance(rng, 10, 3, 30)
    matrix = build_matrix(instance)
    nodes = [instance.depot.location] + [w.location for w in instance.waypoints]
    for i in range(len(nodes)):
        for j in range(1, len(nodes)):
            assert matrix.d(i, j) == pytest.approx(oracle_meters(nodes[i], nodes[j]), abs=1e-6)


# --- construction ---


def test_greedy_visits_nearest_first():
    instance = make_instance([1_000.0, 5_000.0], n_vehicles=1)
    plan = path_cheapest_arc(instance, build_matrix(instance))
    assert [s.waypoint_id for s in plan.routes[0].stops] == [1, 2]
    assert validate_solution(plan, instance) == []


def test_greedy_splits_on_capacity():
    instance = make_instance([100.0, 200.0, 300.0], demands=[30, 30, 30], capacity=30)
    plan = path_cheapest_arc(instance, build_matrix(instance))
    assert len(plan.routes) == 3
    assert all(len(r.stops) == 1 for r in plan.routes)
    assert validate_solution(plan, instance) == []


def test_greedy_arrival_is_travel_time():
    instance = make_instance([1_000.0], n_vehicles=1)
    plan = path_cheapest_arc(instance, build_matrix(instance))
    stop = plan.routes[0].stops[0]
    assert stop.arrival_time == pytest.approx(100.0)  # 1 km at 10 m/s from pickup 0


def test_greedy_runs_out_of_fleet():
    instance = make_instance([100.0, 200.0, 300.0], demands=[30, 30, 30], capacity=30, n_vehicles=2)
    with pytest.raises(InfeasibleError) as err:
        path_cheapest_arc(instance, build_matrix(instance))
    assert err.value.unassigned == (3,)


def test_infeasible_error_survives_pickling():
    error = InfeasibleError(tuple(range(1, 11)))
    copy = pickle.loads(pickle.dumps(error))
    assert copy.unassigned == error.unassigned
    assert str(copy) == str(error) == "10 waypoints cannot be assigned: [1, 2, 3, 4, 5, 6, 7, 8, ...]"


def test_greedy_distance_tie_goes_to_lower_id():
    instance = make_instance([1_000.0, 1_000.0], n_vehicles=1)
    plan = path_cheapest_arc(instance, build_matrix(instance))
    assert [s.waypoint_id for s in plan.routes[0].stops] == [1, 2]


# --- local search ---


def test_search_uncrosses_a_detour():
    instance = make_instance([100.0, 200.0, 300.0, 400.0], n_vehicles=1)
    matrix = build_matrix(instance)
    start = RoutePlanFrom(instance, [[2, 1, 3, 4]])
    assert evaluate_objective(start, instance) == pytest.approx(600.0, abs=0.1)
    deltas = []
    improved = local_search(start, instance, matrix, SolverParams(), move_listener=lambda p, d: deltas.append(d))
    assert evaluate_objective(improved, instance) == pytest.approx(400.0, abs=0.1)
    assert validate_solution(improved, instance) == []
    assert deltas and all(d <= -SolverParams().optimization_step for d in deltas)


def test_search_leaves_optimum_alone():
    instance = make_instance([100.0, 200.0, 300.0], n_vehicles=1)
    matrix = build_matrix(instance)
    start = RoutePlanFrom(instance, [[1, 2, 3]])
    improved = local_search(start, instance, matrix, SolverParams())
    assert evaluate_objective(improved, instance) == pytest.approx(
        evaluate_objective(start, instance)
    )
    assert [s.waypoint_id for s in improved.routes[0].stops] == [1, 2, 3]


def test_zero_budget_returns_start_plan():
    instance = make_instance([100.0, 200.0, 300.0, 400.0], n_vehicles=1)
    matrix = build_matrix(instance)
    start = RoutePlanFrom(instance, [[2, 1, 3, 4]])
    stats = {}
    out = local_search(start, instance, matrix, SolverParams(time_limit_ms=0), stats=stats)
    assert evaluate_objective(out, instance) == pytest.approx(600.0, abs=0.1)
    assert stats["accepted"] == 0


def test_solution_limit_caps_accepted_moves():
    rng = np.random.default_rng(4)
    instance = scatter_instance(rng, 30, 4, 25)
    matrix = build_matrix(instance)
    start = path_cheapest_arc(instance, matrix)
    stats = {}
    local_search(start, instance, matrix, SolverParams(solution_limit=1), stats=stats)
    assert stats["accepted"] <= 1


def test_search_is_deterministic_per_seed():
    rng = np.random.default_rng(5)
    instance = scatter_instance(rng, 40, 5, 25)
    matrix = build_matrix(instance)
    start = path_cheapest_arc(instance, matrix)
    a = local_search(start, instance, matrix, SolverParams(rng_seed=11))
    b = local_search(start, instance, matrix, SolverParams(rng_seed=11))
    assert plan_to_dict(a) == plan_to_dict(b)


def test_search_reports_stats():
    rng = np.random.default_rng(6)
    instance = scatter_instance(rng, 25, 4, 25)
    matrix = build_matrix(instance)
    start = path_cheapest_arc(instance, matrix)
    stats = {}
    out = local_search(start, instance, matrix, SolverParams(), stats=stats)
    assert stats["evals"] > 0
    assert stats["converged"] is True
    assert evaluate_objective(out, instance) <= evaluate_objective(start, instance)
    assert validate_solution(out, instance) == []


def test_listener_sees_monotone_improvement():
    rng = np.random.default_rng(7)
    instance = scatter_instance(rng, 35, 5, 25)
    matrix = build_matrix(instance)
    start = path_cheapest_arc(instance, matrix)
    step = SolverParams().optimization_step
    seen = []
    local_search(start, instance, matrix, SolverParams(), move_listener=lambda p, d: seen.append((p, d)))
    previous = evaluate_objective(start, instance)
    for plan, delta in seen:
        assert delta <= -step
        assert validate_solution(plan, instance) == []
        now = evaluate_objective(plan, instance)
        assert now == pytest.approx(previous + delta, abs=1e-6)
        previous = now


# --- end to end ---


def test_empty_instance_solves_to_empty_plan():
    instance = ProblemInstance(
        Depot(east(0), WIDE), (), (Vehicle(1, 30),), TravelModel(10.0)
    )
    plan, busy = solve_cvrptw(instance)
    assert plan.routes == ()
    assert busy == frozenset()


def test_unreachable_window_is_infeasible():
    instance = make_instance([1_000.0], windows=[TimeWindow(0, 0)])
    with pytest.raises(InfeasibleError):
        solve_cvrptw(instance)


@pytest.mark.parametrize("seed", [20, 21, 22, 23, 24])
def test_toy_instances_land_near_optimum(seed):
    rng = np.random.default_rng(seed)
    instance = scatter_instance(rng, 8, 3, 9, box_m=1_000.0, demand_hi=3)
    plan, busy = solve_cvrptw(instance)
    assert validate_solution(plan, instance) == []
    assert busy == {r.vehicle_id for r in plan.routes}
    got = evaluate_objective(plan, instance)
    optimum = branch_and_bound_optimum(instance)
    assert optimum < math.inf
    assert got <= optimum * 1.10 + 1e-6


# --- fast paths against slow references ---


def scalar_cheapest_arc(instance, matrix):
    """The greedy construction as one Python scan per step over the matrix
    cells, the reference for the masked argmin in path_cheapest_arc."""
    n = instance.n_waypoints
    speed = instance.travel.speed_mps
    e0 = float(instance.depot.window.earliest)
    by_id = {w.id: w for w in instance.waypoints}
    visited = [False] * (n + 1)
    routes = []
    for vehicle in instance.vehicles:
        if all(visited[1:]):
            break
        load, last, clock, stops = 0, 0, e0, []
        while True:
            best_id, best_dist = 0, math.inf
            for j in range(1, n + 1):
                w = by_id[j]
                dist = matrix.d(last, j)
                if visited[j] or dist >= best_dist or load + w.demand > vehicle.capacity:
                    continue
                arrival = clock + dist / speed
                start = arrival if arrival > w.window.earliest else w.window.earliest
                if start > w.window.latest:
                    continue
                best_id, best_dist = j, dist
            if best_id == 0:
                break
            w = by_id[best_id]
            arrival = clock + best_dist / speed
            clock = max(arrival, float(w.window.earliest)) + w.service_duration
            stops.append(StopVisit(best_id, arrival, clock))
            visited[best_id] = True
            load += w.demand
            last = best_id
        if stops:
            routes.append(Route(vehicle.id, e0, tuple(stops)))
    unassigned = tuple(j for j in range(1, n + 1) if not visited[j])
    if unassigned:
        raise InfeasibleError(unassigned)
    return RoutePlan(tuple(routes))


@st.composite
def node_sets(draw):
    """A depot plus up to 40 waypoints in a box of 10 m to 50 km, some of
    them coincident, anywhere on the globe including across lon 180."""
    n = draw(st.integers(0, 40))
    seed = draw(st.integers(0, 2**32 - 1))
    box = draw(st.sampled_from([10.0, 2_000.0, 50_000.0]))
    lat0 = draw(st.floats(-70.0, 70.0))
    lon0 = draw(st.one_of(st.floats(-180.0, 180.0), st.sampled_from([-180.0, 179.999])))
    repeat = draw(st.sampled_from([0.0, 0.3, 0.9]))
    rng = np.random.default_rng(seed)
    lat = lat0 + rng.uniform(0.0, box, n + 1) / EQUATOR_DEGREE_M
    lon = lon0 + rng.uniform(0.0, box, n + 1) / (EQUATOR_DEGREE_M * math.cos(math.radians(lat0)))
    lon = (lon + 180.0) % 360.0 - 180.0
    nodes = [GeoPoint(float(a), float(b)) for a, b in zip(lat, lon)]
    for i in range(1, n + 1):
        if rng.uniform() < repeat:
            nodes[i] = nodes[int(rng.integers(0, i))]
    return nodes, rng


def instance_on(nodes, rng, n_vehicles=3, capacity=10, speed=10.0, tight=False):
    """Waypoints on nodes[1:] with random demands, service times and
    windows; tight windows open up to an hour in and last minutes."""
    waypoints = []
    for i, point in enumerate(nodes[1:], start=1):
        if tight:
            earliest = int(rng.integers(0, 3_600))
            window = TimeWindow(earliest, earliest + int(rng.integers(0, 600)))
        else:
            window = WIDE
        demand = int(rng.integers(0, capacity + 1))
        waypoints.append(Waypoint(i, point, demand, window, int(rng.integers(0, 120))))
    vehicles = tuple(Vehicle(j + 1, capacity) for j in range(n_vehicles))
    return ProblemInstance(Depot(nodes[0], WIDE), tuple(waypoints), vehicles, TravelModel(speed))


@settings(max_examples=150, deadline=None)
@given(drawn=node_sets())
def test_matrix_cells_are_the_scalar_kernel_bit_for_bit(drawn):
    nodes, rng = drawn
    matrix = build_matrix(instance_on(nodes, rng))
    assert matrix.n == len(nodes)
    assert matrix.array.flags.c_contiguous and matrix.array.dtype == np.float64
    for i, p in enumerate(nodes):
        assert matrix.d(i, 0) == 0.0
        for j in range(1, len(nodes)):
            got = matrix.d(i, j)
            assert type(got) is float
            assert got == haversine_distance(p, nodes[j])


@settings(max_examples=200, deadline=None)
@given(
    drawn=node_sets(),
    n_vehicles=st.integers(1, 8),
    capacity=st.integers(0, 20),
    speed=st.sampled_from([0.5, 10.0, 30.0]),
    tight=st.booleans(),
)
def test_greedy_equals_scalar_scan(drawn, n_vehicles, capacity, speed, tight):
    nodes, rng = drawn
    instance = instance_on(nodes, rng, n_vehicles, capacity, speed, tight)
    matrix = build_matrix(instance)
    try:
        expected = scalar_cheapest_arc(instance, matrix)
    except InfeasibleError as exc:
        with pytest.raises(InfeasibleError) as err:
            path_cheapest_arc(instance, matrix)
        assert err.value.unassigned == exc.unassigned
        return
    assert path_cheapest_arc(instance, matrix) == expected


def test_greedy_keeps_demands_beyond_int64_exact():
    big = 2**64
    instance = make_instance(
        [100.0, 200.0, 300.0], demands=[big, 1, big], capacity=2 * big, n_vehicles=2
    )
    matrix = build_matrix(instance)
    plan = path_cheapest_arc(instance, matrix)
    assert plan == scalar_cheapest_arc(instance, matrix)
    assert [s.waypoint_id for s in plan.routes[0].stops] == [1, 2]
    assert validate_solution(plan, instance) == []


def sorted_neighbors(matrix, n, k):
    return [[]] + [
        [j for _, j in sorted((matrix.d(u, j), j) for j in range(1, n + 1) if j != u)[:k]]
        for u in range(1, n + 1)
    ]


@settings(max_examples=150, deadline=None)
@given(drawn=node_sets(), k=st.integers(1, 30))
def test_neighbor_lists_equal_sorted_reference(drawn, k):
    nodes, rng = drawn
    matrix = build_matrix(instance_on(nodes, rng))
    n = len(nodes) - 1
    assert _nearest_neighbors(matrix.array, n, k) == sorted_neighbors(matrix, n, min(k, max(n - 1, 0)))


def test_neighbor_ties_go_to_lower_ids():
    # waypoints 1..30 share one spot and 31..180 trail off to the east, so
    # each of the first 30 sees 29 others at distance 0 and keeps the lowest
    # 24 ids; an unpinned partition keeps some arbitrary 24 of them at this
    # row length
    nodes = [east(0.0)] + [east(1_000.0)] * 30 + [east(2_000.0 + 10.0 * i) for i in range(150)]
    matrix = build_matrix(instance_on(nodes, np.random.default_rng(0)))
    near = _nearest_neighbors(matrix.array, 180, 24)
    assert near[1] == list(range(2, 26))
    assert near[16] == list(range(1, 16)) + list(range(17, 26))
    assert near == sorted_neighbors(matrix, 180, 24)
