"""Plan checker that shares no code with the solver.

It reads the raw instance document (the JSON that ``save_instance`` writes)
and a plan as the worker reports it, and recomputes every property a valid
open-route CVRPTW plan must have: coverage, fleet use, capacity, the schedule
replayed from the depot window's opening, and the reported distance.
"""

from __future__ import annotations

import math
from typing import Optional

# Mean Earth radius in metres: the sphere on which the instance format
# defines distances.
EARTH_RADIUS_M = 6_371_008.8
TIME_TOLERANCE_S = 1e-6
DISTANCE_REL_TOLERANCE = 1e-6


def haversine_m(lat1: float, lon1: float, lat2: float, lon2: float) -> float:
    p1, p2 = math.radians(lat1), math.radians(lat2)
    dp = p2 - p1
    dl = math.radians(lon2 - lon1)
    a = math.sin(dp / 2) ** 2 + math.cos(p1) * math.cos(p2) * math.sin(dl / 2) ** 2
    return 2 * EARTH_RADIUS_M * math.asin(math.sqrt(min(1.0, a)))


def check_plan(
    instance: dict,
    result: dict,
    max_cluster_size: Optional[int] = None,
) -> list[str]:
    """Return every problem found in one solve result; empty means valid.

    ``result`` holds ``routes`` as ``[vehicle, pickup, [[id, arrival,
    departure], ...]]`` lists plus the reported ``total_distance``,
    ``busy_vehicle_count`` and ``peak_cluster_size``.  ``max_cluster_size``
    is given for clustered strategies only.
    """
    problems: list[str] = []
    depot = instance["depot"]
    opening = float(depot["window"][0])
    speed = float(instance["travel"]["speed_mps"])
    waypoints = {int(w["id"]): w for w in instance["waypoints"]}
    capacity = {int(v["id"]): int(v["capacity"]) for v in instance["vehicles"]}

    visits = dict.fromkeys(waypoints, 0)
    used: set[int] = set()
    busy = 0
    distance = 0.0
    for vehicle, pickup, stops in result["routes"]:
        if vehicle not in capacity:
            problems.append(f"vehicle {vehicle} is not in the fleet")
        elif vehicle in used:
            problems.append(f"vehicle {vehicle} is used by two routes")
        used.add(vehicle)
        if stops:
            busy += 1
        if not depot["window"][0] <= pickup <= depot["window"][1]:
            problems.append(f"vehicle {vehicle} picks up at {pickup}, outside the depot window")

        load = 0
        clock = opening
        lat, lon = float(depot["lat"]), float(depot["lon"])
        for wid, arrival, departure in stops:
            wp = waypoints.get(wid)
            if wp is None:
                problems.append(f"vehicle {vehicle} visits unknown waypoint {wid}")
                continue
            visits[wid] += 1
            load += int(wp["demand"])
            leg = haversine_m(lat, lon, float(wp["lat"]), float(wp["lon"]))
            distance += leg
            expected_arrival = clock + leg / speed
            if abs(arrival - expected_arrival) > TIME_TOLERANCE_S:
                problems.append(
                    f"waypoint {wid}: arrival {arrival} but the replay gives {expected_arrival}"
                )
            start = max(expected_arrival, float(wp["window"][0]))
            if start > wp["window"][1]:
                problems.append(
                    f"waypoint {wid}: service starts at {start}, after its window closes "
                    f"at {wp['window'][1]}"
                )
            clock = start + int(wp.get("service", 0))
            if abs(departure - clock) > TIME_TOLERANCE_S:
                problems.append(f"waypoint {wid}: departure {departure} but the replay gives {clock}")
            lat, lon = float(wp["lat"]), float(wp["lon"])
        if vehicle in capacity and load > capacity[vehicle]:
            problems.append(f"vehicle {vehicle} carries {load} over its capacity {capacity[vehicle]}")

    for wid, count in visits.items():
        if count != 1:
            problems.append(f"waypoint {wid} is visited {count} times")
    reported = float(result["total_distance"])
    if abs(reported - distance) > DISTANCE_REL_TOLERANCE * max(distance, 1.0):
        problems.append(f"reported distance {reported} m but the routes cover {distance} m")
    if result["busy_vehicle_count"] != busy:
        problems.append(f"reported {result['busy_vehicle_count']} busy vehicles but {busy} routes have stops")
    if max_cluster_size is not None and result["peak_cluster_size"] > max_cluster_size:
        problems.append(
            f"peak cluster size {result['peak_cluster_size']} exceeds the cap {max_cluster_size}"
        )
    return problems
