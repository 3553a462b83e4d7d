"""Problem and solution types for capacitated routing with time windows.

All times are seconds since the instance epoch.  Window bounds, demands and
capacities are integers; arrival times are floats because travel times are
derived from metric distances.  Routes are open: a vehicle ends its day at its
last stop, so no return leg is charged or timed.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

from .geo import GeoPoint, haversine_distance


class InvalidInstanceError(ValueError):
    """Raised when an instance fails structural validation at load time."""


class UnknownWaypointError(KeyError):
    """Raised when a plan references a waypoint id the instance does not define."""


class InfeasibleSequenceError(Exception):
    """Raised when a stop sequence admits no feasible schedule.

    Attributes carry the first offending waypoint and the times involved so
    callers can report why the sequence failed.
    """

    def __init__(self, waypoint_id: int, service_start: float, latest: float):
        self.waypoint_id = waypoint_id
        self.service_start = service_start
        self.latest = latest
        super().__init__(
            f"waypoint {waypoint_id}: earliest possible service start "
            f"{service_start:.1f} exceeds window close {latest}"
        )


@dataclass(frozen=True)
class TimeWindow:
    """Closed service window [earliest, latest] in whole seconds.

    Both ends are inclusive: only a service start after latest is a violation.
    """

    earliest: int
    latest: int

    def __post_init__(self) -> None:
        if self.earliest < 0 or self.latest < self.earliest:
            raise InvalidInstanceError(
                f"window [{self.earliest}, {self.latest}] must satisfy 0 <= earliest <= latest"
            )


@dataclass(frozen=True)
class Waypoint:
    id: int
    location: GeoPoint
    demand: int
    window: TimeWindow
    service_duration: int = 0


@dataclass(frozen=True)
class Depot:
    location: GeoPoint
    window: TimeWindow


@dataclass(frozen=True)
class Vehicle:
    id: int
    capacity: int


@dataclass(frozen=True)
class TravelModel:
    """Constant-speed travel over great-circle distances."""

    speed_mps: float
    open_routes: bool = True

    def seconds(self, meters: float) -> float:
        return meters / self.speed_mps


def _check_coordinate(point: GeoPoint, label: str) -> None:
    if not (-90.0 <= point.lat <= 90.0 and -180.0 <= point.lon <= 180.0):
        raise InvalidInstanceError(f"{label} coordinate out of range: {point}")
    if not (math.isfinite(point.lat) and math.isfinite(point.lon)):
        raise InvalidInstanceError(f"{label} coordinate not finite: {point}")


@dataclass(frozen=True)
class ProblemInstance:
    """A depot, a waypoint set, a vehicle fleet and a travel model.

    Waypoint ids must be exactly 1..N and vehicle ids exactly 1..M: gaps or
    duplicates are rejected here rather than surfacing as index errors later.
    """

    depot: Depot
    waypoints: tuple[Waypoint, ...]
    vehicles: tuple[Vehicle, ...]
    travel: TravelModel

    def __post_init__(self) -> None:
        object.__setattr__(self, "waypoints", tuple(self.waypoints))
        object.__setattr__(self, "vehicles", tuple(self.vehicles))
        _check_coordinate(self.depot.location, "depot")
        wp_ids = [w.id for w in self.waypoints]
        if wp_ids != list(range(1, len(wp_ids) + 1)):
            raise InvalidInstanceError("waypoint ids must be exactly 1..N in order")
        veh_ids = [v.id for v in self.vehicles]
        if veh_ids != list(range(1, len(veh_ids) + 1)):
            raise InvalidInstanceError("vehicle ids must be exactly 1..M in order")
        if not self.vehicles:
            raise InvalidInstanceError("instance needs at least one vehicle")
        max_capacity = max(v.capacity for v in self.vehicles)
        for v in self.vehicles:
            if v.capacity < 0:
                raise InvalidInstanceError(f"vehicle {v.id} has negative capacity")
        for w in self.waypoints:
            _check_coordinate(w.location, f"waypoint {w.id}")
            if w.demand < 0:
                raise InvalidInstanceError(f"waypoint {w.id} has negative demand")
            if w.demand > max_capacity:
                raise InvalidInstanceError(
                    f"waypoint {w.id} demand {w.demand} exceeds every vehicle capacity"
                )
            if w.service_duration < 0:
                raise InvalidInstanceError(f"waypoint {w.id} has negative service duration")
        if self.travel.speed_mps <= 0 or not math.isfinite(self.travel.speed_mps):
            raise InvalidInstanceError("travel speed must be positive and finite")
        if not self.travel.open_routes:
            raise InvalidInstanceError("only open routes are supported")

    @property
    def n_waypoints(self) -> int:
        return len(self.waypoints)

    def waypoint(self, waypoint_id: int) -> Waypoint:
        if not 1 <= waypoint_id <= len(self.waypoints):
            raise UnknownWaypointError(waypoint_id)
        return self.waypoints[waypoint_id - 1]

    def vehicle(self, vehicle_id: int) -> Vehicle:
        if not 1 <= vehicle_id <= len(self.vehicles):
            raise KeyError(vehicle_id)
        return self.vehicles[vehicle_id - 1]


@dataclass(frozen=True)
class StopVisit:
    """One serviced waypoint with its scheduled arrival and departure."""

    waypoint_id: int
    arrival_time: float
    departure_time: float


@dataclass(frozen=True)
class Route:
    vehicle_id: int
    depot_pickup_time: float
    stops: tuple[StopVisit, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "stops", tuple(self.stops))

    @property
    def stop_ids(self) -> tuple[int, ...]:
        return tuple(s.waypoint_id for s in self.stops)


@dataclass(frozen=True)
class RoutePlan:
    routes: tuple[Route, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "routes", tuple(self.routes))

    @property
    def busy_vehicles(self) -> frozenset[int]:
        return frozenset(r.vehicle_id for r in self.routes if r.stops)


class ViolationKind(str, Enum):
    UNVISITED = "UNVISITED"
    MULTIPLY_VISITED = "MULTIPLY_VISITED"
    CAPACITY = "CAPACITY"
    TIME_WINDOW = "TIME_WINDOW"
    DEPOT_WINDOW = "DEPOT_WINDOW"
    VEHICLE_REUSE = "VEHICLE_REUSE"
    TIMING_INCONSISTENT = "TIMING_INCONSISTENT"
    UNKNOWN_WAYPOINT = "UNKNOWN_WAYPOINT"
    UNKNOWN_VEHICLE = "UNKNOWN_VEHICLE"


@dataclass(frozen=True)
class Violation:
    """A single broken constraint, self-describing via kind plus detail."""

    kind: ViolationKind
    detail: dict = field(default_factory=dict)

    def __str__(self) -> str:
        parts = ", ".join(f"{k}={v}" for k, v in self.detail.items())
        return f"{self.kind.value}({parts})"


# Stated schedule times may differ from recomputed ones by float noise only.
_TIME_TOLERANCE = 1e-6


def evaluate_objective(plan: RoutePlan, instance: ProblemInstance) -> float:
    """Total travelled distance in meters over all routes.

    Charges the depot-to-first-stop leg and every consecutive leg; the return
    to the depot is free because routes are open.
    """
    total = 0.0
    for route in plan.routes:
        prev = instance.depot.location
        for stop in route.stops:
            wp = instance.waypoint(stop.waypoint_id)
            total += haversine_distance(prev, wp.location)
            prev = wp.location
    return total


def propagate_schedule(
    route: Route,
    instance: ProblemInstance,
    depot_pickup_time: Optional[float] = None,
) -> Route:
    """Recompute arrival and departure times for a fixed stop sequence.

    The vehicle picks up at the depot window open unless a pickup time is
    given, then drives the sequence in order, waiting out any early arrival.
    Starting at the window open dominates every later start, so a single
    forward pass decides feasibility.
    """
    pickup = float(instance.depot.window.earliest if depot_pickup_time is None else depot_pickup_time)
    travel = instance.travel
    prev_location = instance.depot.location
    clock = pickup
    stops = []
    for stop in route.stops:
        wp = instance.waypoint(stop.waypoint_id)
        arrival = clock + travel.seconds(haversine_distance(prev_location, wp.location))
        service_start = max(arrival, float(wp.window.earliest))
        if service_start > wp.window.latest:
            raise InfeasibleSequenceError(wp.id, service_start, wp.window.latest)
        departure = service_start + wp.service_duration
        stops.append(StopVisit(wp.id, arrival, departure))
        prev_location = wp.location
        clock = departure
    return Route(route.vehicle_id, pickup, tuple(stops))


def validate_solution(plan: RoutePlan, instance: ProblemInstance) -> list[Violation]:
    """Check a plan against every hard constraint.

    Returns one violation per broken constraint and an empty list only for a
    fully feasible plan.  Malformed plans (unknown ids) are reported rather
    than raised so the validator is total.
    """
    violations: list[Violation] = []
    visit_counts: dict[int, int] = {w.id: 0 for w in instance.waypoints}
    seen_vehicles: set[int] = set()

    for route in plan.routes:
        if not 1 <= route.vehicle_id <= len(instance.vehicles):
            violations.append(
                Violation(ViolationKind.UNKNOWN_VEHICLE, {"vehicle": route.vehicle_id})
            )
            continue
        vehicle = instance.vehicle(route.vehicle_id)
        if route.vehicle_id in seen_vehicles:
            violations.append(
                Violation(ViolationKind.VEHICLE_REUSE, {"vehicle": route.vehicle_id})
            )
        seen_vehicles.add(route.vehicle_id)

        depot_window = instance.depot.window
        if not depot_window.earliest <= route.depot_pickup_time <= depot_window.latest:
            violations.append(
                Violation(
                    ViolationKind.DEPOT_WINDOW,
                    {"vehicle": route.vehicle_id, "pickup": route.depot_pickup_time},
                )
            )

        load = 0
        clock = float(route.depot_pickup_time)
        prev_location = instance.depot.location
        timing_broken = False
        for stop in route.stops:
            if not 1 <= stop.waypoint_id <= instance.n_waypoints:
                violations.append(
                    Violation(ViolationKind.UNKNOWN_WAYPOINT, {"waypoint": stop.waypoint_id})
                )
                timing_broken = True
                continue
            wp = instance.waypoint(stop.waypoint_id)
            visit_counts[wp.id] += 1
            load += wp.demand

            expected_arrival = clock + instance.travel.seconds(
                haversine_distance(prev_location, wp.location)
            )
            if not timing_broken and abs(stop.arrival_time - expected_arrival) > _TIME_TOLERANCE:
                violations.append(
                    Violation(
                        ViolationKind.TIMING_INCONSISTENT,
                        {
                            "waypoint": wp.id,
                            "stated": stop.arrival_time,
                            "expected": expected_arrival,
                        },
                    )
                )
                timing_broken = True
            service_start = max(stop.arrival_time, float(wp.window.earliest))
            if service_start > wp.window.latest:
                violations.append(
                    Violation(
                        ViolationKind.TIME_WINDOW,
                        {"waypoint": wp.id, "start": service_start, "latest": wp.window.latest},
                    )
                )
            expected_departure = service_start + wp.service_duration
            if not timing_broken and abs(stop.departure_time - expected_departure) > _TIME_TOLERANCE:
                violations.append(
                    Violation(
                        ViolationKind.TIMING_INCONSISTENT,
                        {
                            "waypoint": wp.id,
                            "stated": stop.departure_time,
                            "expected": expected_departure,
                        },
                    )
                )
                timing_broken = True
            clock = stop.departure_time
            prev_location = wp.location

        if load > vehicle.capacity:
            violations.append(
                Violation(
                    ViolationKind.CAPACITY,
                    {"vehicle": vehicle.id, "load": load, "capacity": vehicle.capacity},
                )
            )

    for wp_id in sorted(visit_counts):
        count = visit_counts[wp_id]
        if count == 0:
            violations.append(Violation(ViolationKind.UNVISITED, {"waypoint": wp_id}))
        elif count > 1:
            violations.append(
                Violation(ViolationKind.MULTIPLY_VISITED, {"waypoint": wp_id, "count": count})
            )
    return violations


# ---------------------------------------------------------------------------
# JSON serialization


def instance_to_dict(instance: ProblemInstance) -> dict:
    return {
        "depot": {
            "lat": instance.depot.location.lat,
            "lon": instance.depot.location.lon,
            "window": [instance.depot.window.earliest, instance.depot.window.latest],
        },
        "waypoints": [
            {
                "id": w.id,
                "lat": w.location.lat,
                "lon": w.location.lon,
                "demand": w.demand,
                "window": [w.window.earliest, w.window.latest],
                "service": w.service_duration,
            }
            for w in instance.waypoints
        ],
        "vehicles": [{"id": v.id, "capacity": v.capacity} for v in instance.vehicles],
        "travel": {"speed_mps": instance.travel.speed_mps},
    }


def instance_from_dict(data: dict) -> ProblemInstance:
    try:
        depot = Depot(
            GeoPoint(float(data["depot"]["lat"]), float(data["depot"]["lon"])),
            TimeWindow(int(data["depot"]["window"][0]), int(data["depot"]["window"][1])),
        )
        waypoints = tuple(
            Waypoint(
                id=int(w["id"]),
                location=GeoPoint(float(w["lat"]), float(w["lon"])),
                demand=int(w["demand"]),
                window=TimeWindow(int(w["window"][0]), int(w["window"][1])),
                service_duration=int(w.get("service", 0)),
            )
            for w in data["waypoints"]
        )
        vehicles = tuple(Vehicle(int(v["id"]), int(v["capacity"])) for v in data["vehicles"])
        travel = TravelModel(float(data["travel"]["speed_mps"]))
    except (KeyError, TypeError, ValueError) as exc:
        if isinstance(exc, InvalidInstanceError):
            raise
        raise InvalidInstanceError(f"malformed instance document: {exc}") from exc
    return ProblemInstance(depot, waypoints, vehicles, travel)


def load_instance(path: str) -> ProblemInstance:
    with open(path, encoding="utf-8") as fh:
        return instance_from_dict(json.load(fh))


def save_instance(instance: ProblemInstance, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(instance_to_dict(instance), fh, indent=2)
        fh.write("\n")


def plan_to_dict(plan: RoutePlan) -> dict:
    return {
        "routes": [
            {
                "vehicle": r.vehicle_id,
                "pickup_time": r.depot_pickup_time,
                "stops": [{"id": s.waypoint_id, "arrival": s.arrival_time} for s in r.stops],
            }
            for r in plan.routes
        ]
    }


def plan_from_dict(data: dict, instance: ProblemInstance) -> RoutePlan:
    """Rebuild a plan from its exported form.

    Departure times are not exported; they are recomputed from the stated
    arrivals and the instance's windows and service durations.
    """
    routes = []
    for r in data["routes"]:
        stops = []
        for s in r["stops"]:
            wp_id = int(s["id"])
            arrival = float(s["arrival"])
            if 1 <= wp_id <= instance.n_waypoints:
                wp = instance.waypoint(wp_id)
                departure = max(arrival, float(wp.window.earliest)) + wp.service_duration
            else:
                departure = arrival
            stops.append(StopVisit(wp_id, arrival, departure))
        routes.append(Route(int(r["vehicle"]), float(r["pickup_time"]), tuple(stops)))
    return RoutePlan(tuple(routes))


def load_plan(path: str, instance: ProblemInstance) -> RoutePlan:
    with open(path, encoding="utf-8") as fh:
        return plan_from_dict(json.load(fh), instance)


def save_plan(plan: RoutePlan, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(plan_to_dict(plan), fh, indent=2)
        fh.write("\n")
