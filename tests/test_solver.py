import math
import mmap
import pickle
import random
from collections import deque
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from routeforge import geo, solver
from routeforge.bench import GeneratorConfig, WindowStyle, generate_instance
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
    EVALS_PER_MS,
    MIN_GAIN_M,
    NEIGHBORS,
    DistanceMatrix,
    InfeasibleError,
    SolverParams,
    _nearest_neighbors,
    _WorkRoute,
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
        SolverParams(optimization_step=math.nan)
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


def test_zero_step_rejects_null_moves_and_converges():
    # relocating a stop into its own slot has a delta of exactly 0.0; with a
    # step of 0 such a move used to be accepted over and over until the
    # budget ran out
    instance = generate_instance(GeneratorConfig(n_waypoints=200, seed=3))
    matrix = build_matrix(instance)
    start = path_cheapest_arc(instance, matrix)
    deltas = []
    stats = {}
    params = SolverParams(optimization_step=0, time_limit_ms=500)
    out = local_search(start, instance, matrix, params, lambda p, d: deltas.append(d), stats)
    assert stats["converged"] is True
    assert stats["accepted"] == len(deltas) > 0
    assert all(d <= -MIN_GAIN_M for d in deltas)
    assert evaluate_objective(out, instance) < evaluate_objective(start, instance)
    assert validate_solution(out, instance) == []


@pytest.mark.parametrize(
    "routes, n_vehicles, problem",
    [
        ([[2, 1, 3]], 1, r"missing \[4\]"),
        ([[2, 1, 3], [4, 2]], 2, r"visited twice \[2\]"),
        ([], 1, r"missing \[1, 2, 3, 4\]"),
    ],
)
def test_search_rejects_a_plan_that_skips_or_repeats_a_waypoint(routes, n_vehicles, problem):
    instance = make_instance([100.0, 200.0, 300.0, 400.0], n_vehicles=n_vehicles)
    with pytest.raises(ValueError, match=problem):
        local_search(RoutePlanFrom(instance, routes), instance, build_matrix(instance), SolverParams())


def test_search_rejects_an_unknown_waypoint():
    instance = make_instance([100.0, 200.0], n_vehicles=1)
    bare = Route(1, 0.0, tuple(StopVisit(i, 0.0, 0.0) for i in (1, 2, 5)))
    with pytest.raises(ValueError, match=r"unknown \[5\]"):
        local_search(RoutePlan((bare,)), instance, build_matrix(instance), SolverParams())


# --- end to end ---


def test_empty_instance_solves_to_empty_plan():
    instance = ProblemInstance(
        Depot(east(0), WIDE), (), (Vehicle(1, 30),), TravelModel(10.0)
    )
    plan = solve_cvrptw(instance)
    assert plan.routes == ()
    assert plan.busy_vehicles == frozenset()


def test_unreachable_window_is_infeasible():
    instance = make_instance([1_000.0], windows=[TimeWindow(0, 0)])
    with pytest.raises(InfeasibleError):
        solve_cvrptw(instance)


@pytest.mark.parametrize("seed", [20, 21, 22, 23, 24])
def test_toy_instances_land_near_optimum(seed):
    rng = np.random.default_rng(seed)
    instance = scatter_instance(rng, 8, 3, 9, box_m=1_000.0, demand_hi=3)
    plan = solve_cvrptw(instance)
    assert validate_solution(plan, instance) == []
    assert plan.busy_vehicles == {r.vehicle_id for r in plan.routes}
    got = evaluate_objective(plan, instance)
    optimum = branch_and_bound_optimum(instance)
    assert optimum < math.inf
    assert got <= optimum * 1.10 + 1e-6


# --- fast paths against slow references ---


def scalar_cheapest_arc(instance, matrix):
    """The greedy construction as one Python scan per step over the matrix
    cells, the reference for path_cheapest_arc's neighbor lists, depot
    cursor and masked argmin."""
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


def scalar_local_search(plan, instance, matrix, params, move_listener=None, stats=None):
    """The local search as a plain scan, the reference for the position
    table in local_search: every stop is found by list.index, u's removal
    cost is recomputed for each relocate, and every intra-route relocate
    copies the trimmed route."""
    n = instance.n_waypoints
    if n == 0 or not plan.routes:
        return plan

    rows = matrix.rows
    speed = instance.travel.speed_mps
    e0 = float(instance.depot.window.earliest)
    earliest = [0.0] * (n + 1)
    latest = [0.0] * (n + 1)
    service = [0.0] * (n + 1)
    demand = [0] * (n + 1)
    for w in instance.waypoints:
        earliest[w.id] = float(w.window.earliest)
        latest[w.id] = float(w.window.latest)
        service[w.id] = float(w.service_duration)
        demand[w.id] = w.demand

    routes = []
    route_of = [-1] * (n + 1)
    for route in plan.routes:
        stops = [s.waypoint_id for s in route.stops]
        load = sum(demand[j] for j in stops)
        work = _WorkRoute(route.vehicle_id, instance.vehicle(route.vehicle_id).capacity, stops, load)
        for j in stops:
            route_of[j] = len(routes)
        routes.append(work)

    neighbors = _nearest_neighbors(matrix.array, n, NEIGHBORS)

    def schedule_ok(stops):
        clock = e0
        prev = 0
        for wid in stops:
            arrival = clock + rows[prev][wid] / speed
            start = arrival if arrival > earliest[wid] else earliest[wid]
            if start > latest[wid]:
                return False
            clock = start + service[wid]
            prev = wid
        return True

    def materialize():
        out = []
        for work in routes:
            if not work.stops:
                continue
            clock = e0
            prev = 0
            stops = []
            for wid in work.stops:
                arrival = clock + rows[prev][wid] / speed
                start = max(arrival, earliest[wid])
                departure = start + service[wid]
                stops.append(StopVisit(wid, arrival, departure))
                clock = departure
                prev = wid
            out.append(Route(work.vehicle_id, e0, tuple(stops)))
        return RoutePlan(tuple(out))

    step = max(params.optimization_step, MIN_GAIN_M)
    quota = params.time_limit_ms * EVALS_PER_MS
    evals = 0
    accepted = 0
    out_of_budget = params.solution_limit == 0 or quota == 0

    covered = [u for u in range(1, n + 1) if route_of[u] >= 0]
    m = len(covered)
    if m == 0:
        return materialize()
    # The scan starts at a seed-dependent offset; everything after that is a
    # fixed deterministic order.
    offset = random.Random(params.rng_seed).randrange(m)
    queue = deque(covered[offset:] + covered[:offset])
    queued = [False] * (n + 1)
    for u in queue:
        queued[u] = True

    def requeue(wid):
        if wid > 0 and not queued[wid]:
            queued[wid] = True
            queue.append(wid)

    def budget_left():
        nonlocal out_of_budget
        if out_of_budget:
            return False
        if evals >= quota or accepted >= params.solution_limit:
            out_of_budget = True
            return False
        return True

    def _arc(a, b):
        return rows[a][b] if b >= 0 else 0.0

    def _accept(delta, touched):
        nonlocal accepted
        accepted += 1
        for wid in touched:
            if wid > 0:
                requeue(wid)
        if move_listener is not None:
            move_listener(materialize(), delta)

    def _two_opt(r1, p1, p2, u, v):
        stops1 = r1.stops
        i, j = (p1, p2) if p1 < p2 else (p2, p1)
        prev_i = stops1[i - 1] if i > 0 else 0
        next_j = stops1[j + 1] if j + 1 < len(stops1) else -1
        delta = rows[prev_i][stops1[j]] - rows[prev_i][stops1[i]]
        if next_j >= 0:
            delta += rows[stops1[i]][next_j] - rows[stops1[j]][next_j]
        if delta > -step:
            return False
        candidate = stops1[:i] + stops1[i : j + 1][::-1] + stops1[j + 1 :]
        if not schedule_ok(candidate):
            return False
        head, tail = stops1[i], stops1[j]
        r1.stops = candidate
        _accept(delta, (prev_i, head, tail, next_j, u, v))
        return True

    def _relocate(r1, p1, r2, r2_index, anchor, u, after):
        stops1 = r1.stops
        prev_u = stops1[p1 - 1] if p1 > 0 else 0
        next_u = stops1[p1 + 1] if p1 + 1 < len(stops1) else -1
        removal = rows[prev_u][u] + _arc(u, next_u) - _arc(prev_u, next_u)

        if r1 is r2:
            trimmed = stops1[:p1] + stops1[p1 + 1 :]
        else:
            trimmed = r2.stops
        at = trimmed.index(anchor)
        insert_at = at + 1 if after else at
        a = trimmed[insert_at - 1] if insert_at > 0 else 0
        b = trimmed[insert_at] if insert_at < len(trimmed) else -1
        insertion = rows[a][u] + _arc(u, b) - _arc(a, b)
        delta = insertion - removal
        if delta > -step:
            return False

        candidate = trimmed[:insert_at] + [u] + trimmed[insert_at:]
        if not schedule_ok(candidate):
            return False
        if r1 is r2:
            r1.stops = candidate
        else:
            r1.stops = stops1[:p1] + stops1[p1 + 1 :]
            r2.stops = candidate
            r1.load -= demand[u]
            r2.load += demand[u]
            route_of[u] = r2_index
        _accept(delta, (prev_u, next_u, u, a, b))
        return True

    def _swap(r1, p1, r2, p2, u, v):
        if r1.load - demand[u] + demand[v] > r1.capacity:
            return False
        if r2.load - demand[v] + demand[u] > r2.capacity:
            return False
        stops1, stops2 = r1.stops, r2.stops
        prev1 = stops1[p1 - 1] if p1 > 0 else 0
        next1 = stops1[p1 + 1] if p1 + 1 < len(stops1) else -1
        prev2 = stops2[p2 - 1] if p2 > 0 else 0
        next2 = stops2[p2 + 1] if p2 + 1 < len(stops2) else -1
        delta = (
            rows[prev1][v] + _arc(v, next1) - rows[prev1][u] - _arc(u, next1)
            + rows[prev2][u] + _arc(u, next2) - rows[prev2][v] - _arc(v, next2)
        )
        if delta > -step:
            return False
        cand1 = stops1[:p1] + [v] + stops1[p1 + 1 :]
        cand2 = stops2[:p2] + [u] + stops2[p2 + 1 :]
        if not (schedule_ok(cand1) and schedule_ok(cand2)):
            return False
        r1.stops = cand1
        r2.stops = cand2
        r1.load += demand[v] - demand[u]
        r2.load += demand[u] - demand[v]
        route_of[u], route_of[v] = route_of[v], route_of[u]
        _accept(delta, (prev1, next1, prev2, next2, u, v))
        return True

    def try_improve(u):
        """Scan candidate moves around waypoint u; apply the first winner."""
        nonlocal evals
        r1_index = route_of[u]
        r1 = routes[r1_index]
        stops1 = r1.stops
        p1 = stops1.index(u)
        for v in neighbors[u]:
            if not budget_left():
                return False
            r2_index = route_of[v]
            r2 = routes[r2_index]
            if r2 is r1:
                p2 = stops1.index(v)
                evals += 1
                if _two_opt(r1, p1, p2, u, v):
                    return True
                for after in (True, False):
                    evals += 1
                    if _relocate(r1, p1, r1, r1_index, v, u, after):
                        return True
            else:
                p2 = r2.stops.index(v)
                fits = r2.load + demand[u] <= r2.capacity
                for after in (True, False):
                    evals += 1
                    if fits and _relocate(r1, p1, r2, r2_index, v, u, after):
                        return True
                evals += 1
                if _swap(r1, p1, r2, p2, u, v):
                    return True
        return False

    while queue and not out_of_budget:
        u = queue.popleft()
        queued[u] = False
        if try_improve(u):
            requeue(u)

    if stats is not None:
        stats["evals"] = evals
        stats["accepted"] = accepted
        stats["converged"] = not out_of_budget
    return materialize()


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


def scalar_build_matrix(instance):
    """build_matrix with one geo.haversine_distance call per cell, the
    reference for geo.pairwise_meters and its block kernel."""
    points = [instance.depot.location] + [w.location for w in instance.waypoints]
    n = len(points)
    arr = np.zeros((n, n))
    for i in range(n - 1):
        p_i = points[i]
        arr[i, i + 1 :] = [haversine_distance(p_i, q) for q in points[i + 1 :]]
    arr = arr + arr.T
    arr[:, 0] = 0.0
    return DistanceMatrix(arr)


# Coordinates where the kernel's steps are most likely to part from the
# scalar ones: the poles, the antimeridian, signed zeros and subnormals.
EDGE_LATS = [90.0, -90.0, 89.99999999, 0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308]
EDGE_LONS = [180.0, -180.0, 179.99999999, -179.99999999, 0.0, -0.0, 5e-324, -2.2250738585072014e-308]
globe_points = st.builds(
    GeoPoint,
    st.one_of(st.sampled_from(EDGE_LATS), st.floats(-90.0, 90.0)),
    st.one_of(st.sampled_from(EDGE_LONS), st.floats(-180.0, 180.0)),
)


@st.composite
def globe_nodes(draw):
    """A depot and 0-70 waypoints anywhere on the globe, some of them
    copies of others."""
    n = draw(st.integers(0, 70))
    nodes = draw(st.lists(globe_points, min_size=n + 1, max_size=n + 1))
    for src, dst in draw(st.lists(st.tuples(st.integers(0, n), st.integers(0, n)), max_size=n)):
        nodes[dst] = nodes[src]
    return nodes


@settings(max_examples=300, deadline=None)
@given(nodes=globe_nodes(), block=st.sampled_from([1, 2, 7, 100, geo._UPPER_BLOCK]))
def test_matrix_equals_scalar_build_bit_for_bit(nodes, block):
    # a small block makes the kernel run many blocks, down to one row each
    instance = instance_on(nodes, np.random.default_rng(0))
    with mock.patch.object(geo, "_UPPER_BLOCK", block):
        fast = build_matrix(instance).array
    assert fast.tobytes() == scalar_build_matrix(instance).array.tobytes()


def test_matrix_equals_scalar_build_on_generated_instance():
    # several full 32k-cell blocks and a short last one
    instance = generate_instance(GeneratorConfig(n_waypoints=400, seed=5))
    assert build_matrix(instance).array.tobytes() == scalar_build_matrix(instance).array.tobytes()


def is_shared(array: np.ndarray) -> bool:
    """Whether the array's memory is an mmap, seen through numpy's
    memoryview of it."""
    while isinstance(array, np.ndarray):
        array = array.base
    return isinstance(array, memoryview) and isinstance(array.obj, mmap.mmap)


@pytest.mark.parametrize("workers", [2, 3])
def test_matrix_filled_by_several_processes_equals_scalar_build(monkeypatch, workers):
    monkeypatch.setattr(geo, "usable_cpus", lambda: workers)
    instance = generate_instance(GeneratorConfig(n_waypoints=600, seed=6))
    matrix = build_matrix(instance)
    # column 0 zeroed on the shared mapping the children filled
    assert is_shared(matrix.array)
    assert matrix.array.flags.c_contiguous and matrix.array.flags.writeable
    assert not matrix.array[:, 0].any()
    assert matrix.array.tobytes() == scalar_build_matrix(instance).array.tobytes()


@settings(max_examples=300, deadline=None)
@given(
    drawn=node_sets(),
    capacities=st.lists(st.integers(0, 20), min_size=1, max_size=4),
    n_vehicles=st.integers(1, 8),
    speed=st.sampled_from([0.5, 10.0, 30.0]),
    tight=st.booleans(),
    scale=st.sampled_from([1, 2**64]),
    k=st.sampled_from([1, 2, 3, 4, NEIGHBORS]),
)
def test_greedy_equals_scalar_scan(drawn, capacities, n_vehicles, speed, tight, scale, k):
    # Lists of 1-4 neighbors run out often, so the masked argmin decides
    # many steps; at the default length a list often holds every waypoint.
    nodes, rng = drawn
    instance = instance_on(nodes, rng, max(n_vehicles, len(capacities)), max(capacities), speed, tight)
    # a mixed fleet; at scale 2**64 demands and capacities lie beyond int64
    fleet = tuple(Vehicle(v.id, capacities[(v.id - 1) % len(capacities)] * scale) for v in instance.vehicles)
    waypoints = tuple(replace(w, demand=w.demand * scale) for w in instance.waypoints)
    instance = replace(instance, waypoints=waypoints, vehicles=fleet)
    matrix = build_matrix(instance)
    with mock.patch.object(solver, "NEIGHBORS", k):
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


def test_solve_computes_neighbor_lists_once(monkeypatch):
    calls = []

    def counted(arr, n, k):
        calls.append((n, k))
        return _nearest_neighbors(arr, n, k)

    monkeypatch.setattr(solver, "_nearest_neighbors", counted)
    instance = generate_instance(GeneratorConfig(n_waypoints=120, seed=3))
    plan = solve_cvrptw(instance, SolverParams(time_limit_ms=50))
    assert calls == [(120, NEIGHBORS)]
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


def with_start_plan(instance):
    """The instance, its matrix and a greedy start plan; waypoints the
    greedy construction cannot place become demand-free and always open
    until it places them all, which one vehicle per waypoint guarantees."""
    while True:
        matrix = build_matrix(instance)
        try:
            return instance, matrix, path_cheapest_arc(instance, matrix)
        except InfeasibleError as exc:
            left = set(exc.unassigned)
            waypoints = tuple(
                replace(w, demand=0, window=WIDE) if w.id in left else w for w in instance.waypoints
            )
            instance = replace(instance, waypoints=waypoints)


def both_searches(start, instance, matrix, params):
    """(plan, stats, listener deltas) of local_search and of the reference."""
    runs = []
    for search in (local_search, scalar_local_search):
        deltas, stats = [], {}
        plan = search(start, instance, matrix, params, lambda p, d: deltas.append(d), stats)
        runs.append((plan, stats, deltas))
    return runs


@settings(max_examples=200, deadline=None)
@given(
    drawn=node_sets(),
    capacities=st.lists(st.integers(0, 20), min_size=1, max_size=4),
    speed=st.sampled_from([0.5, 10.0, 30.0]),
    tight=st.booleans(),
    time_limit_ms=st.sampled_from([0, 1, 2, 5000]),
    solution_limit=st.one_of(st.integers(1, 5), st.just(SolverParams().solution_limit)),
    step=st.sampled_from([0.0, 1.0]),
    rng_seed=st.integers(0, 2**16),
    scramble=st.booleans(),
)
def test_search_equals_scalar_scan(
    drawn, capacities, speed, tight, time_limit_ms, solution_limit, step, rng_seed, scramble
):
    nodes, rng = drawn
    n = len(nodes) - 1
    instance = instance_on(nodes, rng, max(n, len(capacities)), max(capacities), speed, tight)
    fleet = tuple(Vehicle(v.id, capacities[(v.id - 1) % len(capacities)]) for v in instance.vehicles)
    instance, matrix, start = with_start_plan(replace(instance, vehicles=fleet))
    if scramble:
        # a shuffled stop order leaves the search more to do; the order may
        # break windows, which the search reads only from candidate routes
        start = RoutePlan(
            tuple(replace(r, stops=rng.permutation(r.stops).tolist()) for r in start.routes)
        )
    params = SolverParams(step, solution_limit, time_limit_ms, rng_seed)
    fast, reference = both_searches(start, instance, matrix, params)
    assert fast == reference
    plan, stats, deltas = fast
    assert all(d <= -max(step, MIN_GAIN_M) for d in deltas)
    if not scramble:
        assert validate_solution(plan, instance) == []


@pytest.mark.parametrize(
    "params",
    [
        SolverParams(),
        SolverParams(time_limit_ms=1),
        SolverParams(solution_limit=7, rng_seed=3),
        SolverParams(optimization_step=0, time_limit_ms=2),
    ],
)
@pytest.mark.parametrize("seed, windows", [(1, WindowStyle.WIDE), (2, WindowStyle.MIXED)])
def test_search_equals_scalar_scan_on_generated_instances(params, seed, windows):
    # a few hundred waypoints give long routes and accept the swaps and
    # requeue orders that the small drawn instances rarely reach
    instance = generate_instance(GeneratorConfig(n_waypoints=250, seed=seed, window_style=windows))
    matrix = build_matrix(instance)
    start = path_cheapest_arc(instance, matrix)
    fast, reference = both_searches(start, instance, matrix, params)
    assert fast == reference
    assert fast[1]["accepted"] > 0
