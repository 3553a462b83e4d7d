"""The benchmark's plan checker must reject every kind of broken plan.

Run from the repository root:

    python3 -m pytest -q perfbench/test_checker.py
"""

from __future__ import annotations

import copy
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from checker import check_plan, haversine_m  # noqa: E402

SPEED = 10.0


def _instance() -> dict:
    """Three waypoints east of the depot; waypoint 3 closes its window early."""
    return {
        "depot": {"lat": 22.3, "lon": 114.0, "window": [0, 43200]},
        "waypoints": [
            {"id": 1, "lat": 22.3, "lon": 114.01, "demand": 2, "window": [0, 43200], "service": 300},
            {"id": 2, "lat": 22.3, "lon": 114.02, "demand": 3, "window": [0, 43200], "service": 0},
            {"id": 3, "lat": 22.3, "lon": 114.03, "demand": 1, "window": [0, 400], "service": 0},
        ],
        "vehicles": [{"id": 1, "capacity": 5}, {"id": 2, "capacity": 5}],
        "travel": {"speed_mps": SPEED},
    }


def _replayed(instance: dict, vehicle: int, order: list[int]) -> list:
    """A route over ``order`` with the times a correct solver would state."""
    wps = {w["id"]: w for w in instance["waypoints"]}
    lat, lon = instance["depot"]["lat"], instance["depot"]["lon"]
    clock = float(instance["depot"]["window"][0])
    stops = []
    for wid in order:
        wp = wps[wid]
        arrival = clock + haversine_m(lat, lon, wp["lat"], wp["lon"]) / SPEED
        clock = max(arrival, wp["window"][0]) + wp["service"]
        stops.append([wid, arrival, clock])
        lat, lon = wp["lat"], wp["lon"]
    return [vehicle, float(instance["depot"]["window"][0]), stops]


def _result(instance: dict, routes: list) -> dict:
    wps = {w["id"]: w for w in instance["waypoints"]}
    distance = 0.0
    for _, _, stops in routes:
        lat, lon = instance["depot"]["lat"], instance["depot"]["lon"]
        for wid, _, _ in stops:
            distance += haversine_m(lat, lon, wps[wid]["lat"], wps[wid]["lon"])
            lat, lon = wps[wid]["lat"], wps[wid]["lon"]
    return {
        "routes": routes,
        "total_distance": distance,
        "busy_vehicle_count": sum(1 for r in routes if r[2]),
        "peak_cluster_size": 2,
    }


def _valid() -> tuple[dict, dict]:
    instance = _instance()
    routes = [_replayed(instance, 1, [3, 1]), _replayed(instance, 2, [2])]
    return instance, _result(instance, routes)


def test_valid_plan_passes():
    instance, result = _valid()
    assert check_plan(instance, result, max_cluster_size=2) == []


def test_dropped_stop_is_rejected():
    instance, result = _valid()
    result["routes"][1] = _replayed(instance, 2, [])
    result = _result(instance, result["routes"])
    assert any("waypoint 2 is visited 0 times" in p for p in check_plan(instance, result))


def test_reused_vehicle_is_rejected():
    instance, result = _valid()
    result["routes"][1][0] = 1
    assert any("vehicle 1 is used by two routes" in p for p in check_plan(instance, result))


def test_vehicle_outside_the_fleet_is_rejected():
    instance, result = _valid()
    result["routes"][1][0] = 3
    assert any("vehicle 3 is not in the fleet" in p for p in check_plan(instance, result))


def test_overloaded_route_is_rejected():
    instance = _instance()
    result = _result(instance, [_replayed(instance, 1, [3, 1, 2])])
    assert any("over its capacity 5" in p for p in check_plan(instance, result))


def test_late_arrival_is_rejected():
    # Stated times are replayed correctly, but waypoint 3 comes after its
    # window has closed.
    instance = _instance()
    result = _result(instance, [_replayed(instance, 1, [1, 3]), _replayed(instance, 2, [2])])
    assert any("waypoint 3: service starts" in p for p in check_plan(instance, result))


def test_inconsistent_times_are_rejected():
    instance, result = _valid()
    result["routes"][0][2][1][1] += 5.0
    assert any("waypoint 1: arrival" in p for p in check_plan(instance, result))


def test_misreported_distance_is_rejected():
    instance, result = _valid()
    result["total_distance"] *= 1.0 + 1e-5
    assert any("reported distance" in p for p in check_plan(instance, result))


def test_oversized_cluster_is_rejected():
    instance, result = _valid()
    assert any("peak cluster size" in p for p in check_plan(instance, result, max_cluster_size=1))


@pytest.mark.parametrize("strategy", ["MONOLITHIC", "DBSCAN", "RECURSIVE_DBSCAN"])
def test_solver_plans_pass(strategy):
    from routeforge import GeneratorConfig, Strategy, WindowStyle, generate_instance, instance_to_dict, run_strategy

    from worker import plan_rows

    instance = generate_instance(GeneratorConfig(n_waypoints=150, seed=4, window_style=WindowStyle.MIXED))
    outcome = run_strategy(instance, Strategy(strategy))
    result = {
        "routes": plan_rows(outcome.plan),
        "total_distance": outcome.total_distance,
        "busy_vehicle_count": outcome.busy_vehicle_count,
        "peak_cluster_size": outcome.peak_cluster_size,
    }
    document = instance_to_dict(instance)
    cap = None if strategy == "MONOLITHIC" else 500
    assert check_plan(document, result, cap) == []
    broken = copy.deepcopy(result)
    del broken["routes"][0][2][0]
    assert check_plan(document, broken, cap)
