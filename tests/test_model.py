import copy
import json
import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from routeforge.geo import GeoPoint, haversine_distance
from routeforge.model import (
    Depot,
    InfeasibleSequenceError,
    InvalidInstanceError,
    ProblemInstance,
    Route,
    RoutePlan,
    StopVisit,
    TimeWindow,
    TravelModel,
    UnknownWaypointError,
    Vehicle,
    ViolationKind,
    Waypoint,
    evaluate_objective,
    instance_from_dict,
    instance_to_dict,
    load_instance,
    load_plan,
    plan_from_dict,
    plan_to_dict,
    propagate_schedule,
    save_instance,
    save_plan,
    validate_solution,
)

EQUATOR_DEGREE_M = 111_195.0802335329
WIDE = TimeWindow(0, 200_000)


def east(meters: float) -> GeoPoint:
    # point `meters` east of (0, 0) along the equator
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


def routed(instance, vehicle_id, stop_ids, pickup=None):
    bare = Route(vehicle_id, 0.0, tuple(StopVisit(i, 0.0, 0.0) for i in stop_ids))
    return propagate_schedule(bare, instance, depot_pickup_time=pickup)


# --- construction invariants ---


def test_time_window_rejects_inverted():
    with pytest.raises(ValueError):
        TimeWindow(10, 5)
    with pytest.raises(ValueError):
        TimeWindow(-1, 5)


def test_waypoint_ids_must_be_dense_from_one():
    depot = Depot(east(0), WIDE)
    wps = (Waypoint(2, east(100), 1, WIDE),)
    with pytest.raises(InvalidInstanceError):
        ProblemInstance(depot, wps, (Vehicle(1, 30),), TravelModel(10.0))
    wps = (Waypoint(1, east(100), 1, WIDE), Waypoint(1, east(200), 1, WIDE))
    with pytest.raises(InvalidInstanceError):
        ProblemInstance(depot, wps, (Vehicle(1, 30),), TravelModel(10.0))


def test_vehicle_ids_must_be_dense_from_one():
    depot = Depot(east(0), WIDE)
    wps = (Waypoint(1, east(100), 1, WIDE),)
    with pytest.raises(InvalidInstanceError):
        ProblemInstance(depot, wps, (Vehicle(5, 30),), TravelModel(10.0))


def test_instance_rejects_bad_numbers():
    with pytest.raises(InvalidInstanceError):
        make_instance([100.0], speed=0.0)
    with pytest.raises(InvalidInstanceError):
        make_instance([100.0], demands=[-1])
    depot = Depot(GeoPoint(95.0, 0.0), WIDE)
    with pytest.raises(InvalidInstanceError, match=r"^depot coordinate out of range"):
        ProblemInstance(depot, (Waypoint(1, east(1), 1, WIDE),), (Vehicle(1, 30),), TravelModel(10.0))
    for bad in (GeoPoint(math.nan, 0.0), GeoPoint(0.0, -math.inf), GeoPoint(0.0, 400.0)):
        with pytest.raises(InvalidInstanceError, match=r"^waypoint 1 coordinate out of range"):
            ProblemInstance(Depot(east(0), WIDE), (Waypoint(1, bad, 1, WIDE),), (Vehicle(1, 30),), TravelModel(10.0))


def test_demand_beyond_every_vehicle_is_rejected():
    with pytest.raises(InvalidInstanceError):
        make_instance([100.0], demands=[31], capacity=30)


def test_waypoint_lookup_bounds():
    instance = make_instance([100.0, 200.0])
    assert instance.waypoint(2).id == 2
    with pytest.raises(UnknownWaypointError):
        instance.waypoint(0)  # must not wrap around to the last waypoint
    with pytest.raises(UnknownWaypointError):
        instance.waypoint(3)


# --- objective ---


def test_objective_sums_legs_without_return():
    instance = make_instance([100.0, 300.0])
    route = routed(instance, 1, [1, 2])
    plan = RoutePlan((route,))
    d01 = haversine_distance(instance.depot.location, instance.waypoint(1).location)
    d12 = haversine_distance(instance.waypoint(1).location, instance.waypoint(2).location)
    assert evaluate_objective(plan, instance) == pytest.approx(d01 + d12, rel=1e-12)
    assert evaluate_objective(plan, instance) == pytest.approx(300.0, rel=1e-6)


def test_objective_invariant_under_route_order():
    instance = make_instance([100.0, 300.0, 900.0], n_vehicles=2)
    r1 = routed(instance, 1, [1, 2])
    r2 = routed(instance, 2, [3])
    assert evaluate_objective(RoutePlan((r1, r2)), instance) == evaluate_objective(
        RoutePlan((r2, r1)), instance
    )


def test_objective_oracle_on_random_plan():
    # independent re-summation straight from coordinates
    offsets = [150.0, 700.0, 350.0, 1200.0, 90.0]
    instance = make_instance(offsets, n_vehicles=2)
    r1 = routed(instance, 1, [5, 1, 3])
    r2 = routed(instance, 2, [2, 4])
    plan = RoutePlan((r1, r2))
    total = 0.0
    for stop_ids in ([5, 1, 3], [2, 4]):
        prev = instance.depot.location
        for sid in stop_ids:
            loc = instance.waypoint(sid).location
            total += haversine_distance(prev, loc)
            prev = loc
    assert evaluate_objective(plan, instance) == pytest.approx(total, rel=1e-12)


# --- schedule propagation ---


def test_propagation_single_stop_arrival():
    instance = make_instance([6_000.0])
    route = routed(instance, 1, [1])
    assert route.depot_pickup_time == 0.0
    assert route.stops[0].arrival_time == pytest.approx(600.0, rel=1e-9)
    assert route.stops[0].departure_time == pytest.approx(600.0, rel=1e-9)


def test_propagation_waits_for_window_open():
    instance = make_instance([6_000.0], windows=[TimeWindow(1_000, 2_000)], service=30)
    route = routed(instance, 1, [1])
    assert route.stops[0].arrival_time == pytest.approx(600.0)
    assert route.stops[0].departure_time == pytest.approx(1_030.0)


def test_propagation_rejects_late_service():
    instance = make_instance([6_000.0], windows=[TimeWindow(0, 599)])
    with pytest.raises(InfeasibleSequenceError) as err:
        routed(instance, 1, [1])
    assert err.value.waypoint_id == 1


def test_propagation_is_idempotent():
    instance = make_instance([500.0, 2_500.0, 1_000.0])
    route = routed(instance, 1, [1, 3, 2])
    again = propagate_schedule(route, instance)
    assert again == route


def test_propagation_matches_independent_simulation():
    offsets = [400.0, 2_000.0, 800.0, 5_000.0]
    windows = [TimeWindow(0, 50_000), TimeWindow(300, 50_000), TimeWindow(0, 50_000), TimeWindow(900, 50_000)]
    instance = make_instance(offsets, windows=windows, service=45)
    route = routed(instance, 1, [1, 3, 2, 4])

    # replay the route with nothing but coordinates and arithmetic
    clock = 0.0
    prev = instance.depot.location
    for stop in route.stops:
        wp = instance.waypoint(stop.waypoint_id)
        clock += haversine_distance(prev, wp.location) / 10.0
        assert stop.arrival_time == pytest.approx(clock, abs=1e-9)
        clock = max(clock, wp.window.earliest) + wp.service_duration
        assert stop.departure_time == pytest.approx(clock, abs=1e-9)
        prev = wp.location


# --- validation ---


def _two_route_instance():
    instance = make_instance([200.0, 500.0, 900.0, 1_500.0], n_vehicles=3)
    plan = RoutePlan((routed(instance, 1, [1, 2]), routed(instance, 2, [3, 4])))
    return instance, plan


def _kinds(violations):
    return [v.kind for v in violations]


def test_valid_plan_has_no_violations():
    instance, plan = _two_route_instance()
    assert validate_solution(plan, instance) == []


def test_unvisited_and_duplicate_waypoints_reported():
    instance, _ = _two_route_instance()
    plan = RoutePlan((routed(instance, 1, [1, 2]), routed(instance, 2, [2, 3])))
    kinds = _kinds(validate_solution(plan, instance))
    assert ViolationKind.MULTIPLY_VISITED in kinds
    assert ViolationKind.UNVISITED in kinds


def test_capacity_violation_reported():
    instance = make_instance([200.0, 500.0], demands=[20, 20], capacity=30)
    plan = RoutePlan((routed(instance, 1, [1, 2]),))
    assert ViolationKind.CAPACITY in _kinds(validate_solution(plan, instance))


def test_time_window_violation_reported():
    instance = make_instance([6_000.0], windows=[TimeWindow(0, 500)])
    bad = Route(1, 0.0, (StopVisit(1, 600.0, 600.0),))
    assert ViolationKind.TIME_WINDOW in _kinds(validate_solution(RoutePlan((bad,)), instance))


def test_overstated_speed_reported_as_timing():
    instance = make_instance([6_000.0])
    # claims to arrive faster than travel allows
    lie = Route(1, 0.0, (StopVisit(1, 300.0, 300.0),))
    assert ViolationKind.TIMING_INCONSISTENT in _kinds(validate_solution(RoutePlan((lie,)), instance))


@pytest.mark.parametrize("reverse_first_route", [False, True])
def test_nan_arrivals_are_timing_inconsistent(reverse_first_route):
    instance, plan = _two_route_instance()
    doc = plan_to_dict(plan)
    for route in doc["routes"]:
        for stop in route["stops"]:
            stop["arrival"] = math.nan
    if reverse_first_route:
        doc["routes"][0]["stops"].reverse()
    kinds = _kinds(validate_solution(plan_from_dict(doc, instance), instance))
    assert kinds == [ViolationKind.TIMING_INCONSISTENT] * 2


def test_nan_departure_is_timing_inconsistent():
    instance = make_instance([200.0, 500.0])
    route = routed(instance, 1, [1, 2])
    first, second = route.stops
    lie = Route(1, route.depot_pickup_time, (StopVisit(1, first.arrival_time, math.nan), second))
    violations = validate_solution(RoutePlan((lie,)), instance)
    assert _kinds(violations) == [ViolationKind.TIMING_INCONSISTENT]
    assert violations[0].detail["waypoint"] == 1


def test_vehicle_reuse_reported():
    instance = make_instance([200.0, 500.0], n_vehicles=2)
    plan = RoutePlan((routed(instance, 1, [1]), routed(instance, 1, [2])))
    assert ViolationKind.VEHICLE_REUSE in _kinds(validate_solution(plan, instance))


def test_depot_window_violation_reported():
    depot = Depot(east(0), TimeWindow(100, 200_000))
    wps = (Waypoint(1, east(100), 1, WIDE),)
    instance = ProblemInstance(depot, wps, (Vehicle(1, 30),), TravelModel(10.0))
    early = propagate_schedule(Route(1, 0.0, (StopVisit(1, 0.0, 0.0),)), instance, depot_pickup_time=0.0)
    assert ViolationKind.DEPOT_WINDOW in _kinds(validate_solution(RoutePlan((early,)), instance))


def test_unknown_ids_reported():
    instance, _ = _two_route_instance()
    ghost_wp = Route(1, 0.0, (StopVisit(99, 10.0, 10.0),))
    kinds = _kinds(validate_solution(RoutePlan((ghost_wp,)), instance))
    assert ViolationKind.UNKNOWN_WAYPOINT in kinds
    ghost_vehicle = Route(99, 0.0, (StopVisit(1, 20.0, 20.0),))
    kinds = _kinds(validate_solution(RoutePlan((ghost_vehicle,)), instance))
    assert ViolationKind.UNKNOWN_VEHICLE in kinds


# --- serialization ---


def test_instance_round_trip(tmp_path):
    instance = make_instance([150.0, 700.0], demands=[2, 3], windows=[TimeWindow(5, 600), WIDE], service=15)
    doc = instance_to_dict(instance)
    assert instance_from_dict(doc) == instance
    path = tmp_path / "instance.json"
    save_instance(instance, str(path))
    assert load_instance(str(path)) == instance
    raw = json.loads(path.read_text())
    assert set(raw) == {"depot", "waypoints", "vehicles", "travel"}
    assert raw["travel"] == {"speed_mps": 10.0}
    assert raw["waypoints"][0]["window"] == [5, 600]


def test_malformed_instance_rejected():
    with pytest.raises(InvalidInstanceError):
        instance_from_dict({"depot": {}})
    with pytest.raises(InvalidInstanceError):
        instance_from_dict({})


def _set_third_waypoint(doc, field, value):
    if field == "window_start":
        doc["waypoints"][2]["window"][0] = value
    elif field == "window_end":
        doc["waypoints"][2]["window"][1] = value
    else:
        doc["waypoints"][2][field] = value


@pytest.mark.parametrize(
    "field, value, shown",
    [
        ("id", 3.4, "3.4"),
        ("demand", 2.7, "2.7"),
        ("window_start", 10.9, "10.9"),
        ("window_end", 40000.5, "40000.5"),
        ("service", 59.99, "59.99"),
        ("demand", True, "True"),
        ("demand", "2", "'2'"),
        ("demand", None, "None"),
        ("demand", math.inf, "inf"),
        ("lat", "22.35", "'22.35'"),
        ("lon", True, "True"),
        ("lat", None, "None"),
        ("window", [0], "[0]"),
        ("window", "", "''"),
        ("window", [0, 10, 20], "[0, 10, 20]"),
        ("window", None, "None"),
    ],
)
def test_instance_field_that_is_not_whole_is_rejected(field, value, shown):
    instance = make_instance([150.0, 400.0, 700.0], demands=[1, 2, 3], windows=[WIDE, WIDE, TimeWindow(10, 40_000)])
    doc = instance_to_dict(instance)
    _set_third_waypoint(doc, field, value)
    name = "window" if field.startswith("window") else field
    kind = {"lat": "a number", "lon": "a number", "window": "a list of two whole numbers"}.get(field, "a whole number")
    with pytest.raises(InvalidInstanceError, match=rf"^waypoint 3: {name} must be {kind}, got {re.escape(shown)}$"):
        instance_from_dict(doc)


def _nodes(doc, path=()):
    """The path of every node of a JSON document, the root's () included."""
    yield path
    children = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, child in children:
        yield from _nodes(child, path + (key,))


_ODD_VALUES = [None, True, -1, 1.5, math.nan, math.inf, "x", "", [], [1], [1, 2, 3], {}, 2**70]
_SMALL_DOC = instance_to_dict(make_instance([150.0, 400.0], n_vehicles=2, service=5))


# 35 nodes by 13 values: Hypothesis tries all 455 pairs, then stops
@settings(max_examples=500, deadline=None)
@given(st.sampled_from(list(_nodes(_SMALL_DOC))), st.sampled_from(_ODD_VALUES))
def test_any_odd_node_loads_or_is_an_invalid_instance(path, value):
    doc = copy.deepcopy(_SMALL_DOC)
    if path:
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
    else:
        doc = value
    try:
        instance = instance_from_dict(doc)
    except InvalidInstanceError:
        return
    assert isinstance(instance, ProblemInstance)


@pytest.mark.parametrize("field, value", [("id", 3.0), ("demand", 3.0), ("window_start", 10.0), ("service", 0.0)])
def test_instance_field_that_is_a_whole_float_loads_as_int(field, value):
    instance = make_instance([150.0, 400.0, 700.0], demands=[1, 2, 3], windows=[WIDE, WIDE, TimeWindow(10, 40_000)])
    doc = instance_to_dict(instance)
    _set_third_waypoint(doc, field, value)
    loaded = instance_from_dict(doc)
    assert loaded == instance
    assert type(loaded.waypoints[2].demand) is int and type(loaded.waypoints[2].window.earliest) is int


@pytest.mark.parametrize(
    "where, value",
    [
        ("vehicle", 1.5),
        ("capacity", 30.5),
        ("depot_window", 0.5),
        ("depot_lat", "22.3"),
        ("speed", True),
        ("speed", None),
        ("depot_window_list", [0]),
    ],
)
def test_fleet_or_depot_field_that_is_not_whole_is_rejected(where, value):
    doc = instance_to_dict(make_instance([150.0, 400.0]))
    if where == "vehicle":
        doc["vehicles"][0]["id"] = value
    elif where == "capacity":
        doc["vehicles"][0]["capacity"] = value
    elif where == "depot_window":
        doc["depot"]["window"][0] = value
    elif where == "depot_window_list":
        doc["depot"]["window"] = value
    elif where == "depot_lat":
        doc["depot"]["lat"] = value
    else:
        doc["travel"]["speed_mps"] = value
    field = {
        "vehicle": "vehicle id",
        "capacity": "vehicle capacity",
        "depot_window": "depot window",
        "depot_window_list": "depot window",
        "depot_lat": "depot lat",
        "speed": "speed_mps",
    }[where]
    kind = "a number" if where in ("depot_lat", "speed") else "a whole number"
    if where == "depot_window_list":
        kind = "a list of two whole numbers"
    message = f"malformed instance document: {field} must be {kind}, got {value!r}"
    with pytest.raises(InvalidInstanceError, match=rf"^{re.escape(message)}$"):
        instance_from_dict(doc)


@pytest.mark.parametrize(
    "key, value",
    [
        ("stop", 3.7),
        ("stop", False),
        ("vehicle", 1.5),
        ("vehicle", "1"),
        ("arrival", "0"),
        ("arrival", None),
        ("pickup_time", True),
    ],
)
def test_plan_id_that_is_not_whole_is_rejected(key, value):
    instance, plan = _two_route_instance()
    doc = plan_to_dict(plan)
    if key == "stop":
        doc["routes"][1]["stops"][0]["id"] = value
    elif key == "vehicle":
        doc["routes"][0]["vehicle"] = value
    elif key == "arrival":
        doc["routes"][1]["stops"][0]["arrival"] = value
    else:
        doc["routes"][0]["pickup_time"] = value
    field, kind = (key, "a number") if key in ("arrival", "pickup_time") else (f"{key} id", "a whole number")
    with pytest.raises(ValueError, match=rf"^{field} must be {kind}, got {re.escape(repr(value))}$"):
        plan_from_dict(doc, instance)
    doc = plan_to_dict(plan)
    doc["routes"][1]["stops"][0]["id"] = 3.0
    doc["routes"][0]["vehicle"] = 1.0
    assert [r.stop_ids for r in plan_from_dict(doc, instance).routes] == [(1, 2), (3, 4)]


def test_plan_round_trip(tmp_path):
    instance, plan = _two_route_instance()
    doc = plan_to_dict(plan)
    assert [r["vehicle"] for r in doc["routes"]] == [1, 2]
    assert doc["routes"][0]["stops"][0].keys() == {"id", "arrival"}
    rebuilt = plan_from_dict(doc, instance)
    assert validate_solution(rebuilt, instance) == []
    assert [r.stop_ids for r in rebuilt.routes] == [r.stop_ids for r in plan.routes]
    for new, old in zip(rebuilt.routes, plan.routes):
        for ns, os_ in zip(new.stops, old.stops):
            assert ns.arrival_time == pytest.approx(os_.arrival_time, abs=1e-9)
    path = tmp_path / "plan.json"
    save_plan(plan, str(path))
    assert [r.stop_ids for r in load_plan(str(path), instance).routes] == [(1, 2), (3, 4)]
