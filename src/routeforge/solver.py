"""Route construction and improvement for a single routing instance.

The solve is two-phase: a cheapest-arc greedy builds a feasible plan, then a
first-improvement local search over a fixed set of neighborhoods polishes it
under a time budget.  The budget is a fixed number of move evaluations
calibrated to the configured milliseconds, so a plan is a pure function of
its input and settings; no wall clock enters the solve.

Each solve builds one C-contiguous float64 distance array and, from a
partition over blocks of its rows, one set of nearest-neighbor lists that
both phases read.  The greedy construction finds most picks in those lists
or in the depot row sorted once, and takes a masked argmin over an array
row only for the steps they leave open; the local search reads single
cells through per-row memoryviews.  The cells come from
geo.pairwise_meters, the fill of the package's one array distance kernel,
so every cell equals the scalar geo.haversine_distance to the last bit and
plans keep the exact bits they had when each cell was one scalar call.
For a large matrix outside a pre-solve child, geo.fork_map shares the
fill's row blocks among every usable CPU, and on one CPU (taskset -c 0)
one process fills them; the cells are the same either way.  The solver
does not validate its plans;
pipeline.run_strategy validates the plan it returns.

The local search keeps a table of every stop's position in its route and
rebuilds it only for the routes that an accepted move changed, so a move
evaluation is a few cell reads and float operations; route copies are made
only for moves whose saving passes the step.  Its plans, evaluation and
acceptance counts and listener deltas are bit for bit those of the plain
list.index scan kept as the reference in the tests.  A route ends at the
depot, node 0, whose zeroed matrix column prices the open end like any
other arc, so no move has a special case for a route's last stop.
"""

from __future__ import annotations

import random
from collections import Counter, deque
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .geo import pairwise_meters
from .model import (
    ProblemInstance,
    Route,
    RoutePlan,
    StopVisit,
    _whole,
)

# Not called here: solve_cvrptw leaves validation to pipeline.run_strategy.
# The name stays importable because perfbench/tracer.py wraps it.
from .model import validate_solution  # noqa: F401

# Candidate moves are only generated between a stop and its nearest neighbors;
# this bounds the scan cost per stop without measurably hurting quality at the
# cluster sizes this solver is pointed at.
NEIGHBORS = 24

# One millisecond of search budget buys this many move evaluations.  The
# constant was measured on CPython; it is a deterministic stand-in for the
# wall clock so that identical runs accept identical move sequences.
EVALS_PER_MS = 700

# The least distance in meters that an accepted move must save, whatever
# optimization_step says.  A move's delta adds up at most eight cells of at
# most half the Earth's circumference, so its rounding error stays below
# 1e-7 m; without this floor a step of 0 accepts moves that save only
# rounding noise, and the search cycles until its budget runs out.
MIN_GAIN_M = 1e-6

# Rows per block of the neighbor partition, so that its copy of the matrix
# stays small.
_ROW_BLOCK = 256


class InfeasibleError(Exception):
    """Raised when construction cannot place every waypoint on a vehicle."""

    def __init__(self, unassigned: tuple[int, ...]):
        self.unassigned = tuple(unassigned)
        preview = ", ".join(str(i) for i in self.unassigned[:8])
        if len(self.unassigned) > 8:
            preview += ", ..."
        super().__init__(f"{len(self.unassigned)} waypoints cannot be assigned: [{preview}]")

    def __reduce__(self):
        # args holds the message, so the default would rebuild from it.
        return InfeasibleError, (self.unassigned,)


@dataclass(frozen=True, kw_only=True)
class SolverParams:
    optimization_step: float = 1.0
    time_limit_ms: int = 5000
    rng_seed: int = 0

    def __post_init__(self) -> None:
        if not self.optimization_step >= 0:
            raise ValueError("optimization_step must be non-negative")
        object.__setattr__(self, "time_limit_ms", _whole(self.time_limit_ms, "time_limit_ms"))
        if self.time_limit_ms < 0:
            raise ValueError("time_limit_ms must be non-negative")


@dataclass(frozen=True, eq=False)
class DistanceMatrix:
    """Meters between every pair of nodes; index 0 is the depot.

    `array` is one C-contiguous float64 (n+1)^2 array for the vectorized
    passes.  `rows` holds one memoryview per array row, so `rows[i][j]`
    returns a Python float without building a numpy scalar; the local search
    reads cells that way.  Column 0 is zero because routes are open:
    driving back to the depot is never charged, and the local search prices
    a route's end by reading it; an array whose column 0 is not all zero
    raises ValueError.  Row 0 keeps the real depot-to-waypoint distances.
    """

    array: np.ndarray = field(repr=False)
    rows: tuple[memoryview, ...] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if (self.array[:, 0] != 0.0).any():
            raise ValueError("column 0 of a distance matrix, the arcs into the depot, must be zero")
        object.__setattr__(self, "rows", tuple(memoryview(row) for row in self.array))

    @property
    def n(self) -> int:
        return len(self.rows)

    def d(self, i: int, j: int) -> float:
        return self.rows[i][j]


def build_matrix(instance: ProblemInstance) -> DistanceMatrix:
    """Full node distance matrix for one instance: geo.pairwise_meters, whose
    every cell equals geo.haversine_distance to the last bit, with column 0
    zeroed."""
    arr = pairwise_meters([instance.depot.location] + [w.location for w in instance.waypoints])
    arr[:, 0] = 0.0
    return DistanceMatrix(arr)


def path_cheapest_arc(
    instance: ProblemInstance,
    matrix: DistanceMatrix,
    *,
    neighbors: Optional[list[list[int]]] = None,
) -> RoutePlan:
    """Greedy construction: always extend with the nearest feasible waypoint.

    Vehicles open one at a time in id order; a vehicle closes when no
    remaining waypoint fits its capacity and time constraints.  Ties on
    distance go to the lower waypoint id.

    Each step's pick is the masked argmin over the row of the last stop,
    found without that O(n) pass wherever a cheaper rule decides it:
    - after a waypoint, the first entry of its neighbor list (in (distance,
      id) order, from _nearest_neighbors unless given) that is unvisited and
      fits; a list that holds every other waypoint also decides that none fits
    - at the depot, the first waypoint in (depot distance, id) order that is
      unvisited and reachable in time, when its demand fits.  Every vehicle
      leaves the depot at the same time, so a cursor passes each visited or
      unreachable waypoint once per solve
    - a vehicle whose free capacity is below every remaining demand closes.
    Each rule gives exactly the argmin's pick; the argmin runs only when
    none decides, so plans are bit for bit those of the argmin alone.
    """
    n = instance.n_waypoints
    if n == 0:
        return RoutePlan(())
    if neighbors is None:
        neighbors = _nearest_neighbors(matrix.array, n, NEIGHBORS)
    arr = matrix.array
    rows = matrix.rows
    speed = instance.travel.speed_mps
    e0 = float(instance.depot.window.earliest)
    earliest = np.zeros(n + 1)
    latest = np.zeros(n + 1)
    service = [0] * (n + 1)
    for w in instance.waypoints:
        earliest[w.id] = w.window.earliest
        latest[w.id] = w.window.latest
        service[w.id] = w.service_duration
    # The same float64 values as Python floats, for the per-waypoint checks.
    earliest_f = earliest.tolist()
    latest_f = latest.tolist()
    demands = [0] + [w.demand for w in instance.waypoints]
    # object dtype keeps Python's exact integers for demands beyond int64
    demand = np.array(demands, dtype=np.int64 if max(demands) < 2**63 else object)

    unvisited = np.ones(n + 1, dtype=bool)
    unvisited[0] = False
    visited = [False] * (n + 1)
    remaining = n
    routes: list[Route] = []
    whole_lists = n - 1  # the length of a neighbor list that holds every other waypoint
    # Waypoints by (depot distance, id), and whether a vehicle leaving the
    # depot at e0 meets each window: the argmin's time test at the depot.
    by_depot = (np.argsort(arr[0, 1:], kind="stable") + 1).tolist()
    reachable = (np.maximum(e0 + arr[0] / speed, earliest) <= latest).tolist()
    depot_at = 0
    by_demand = sorted(range(1, n + 1), key=demands.__getitem__)
    demand_at = 0

    for vehicle in instance.vehicles:
        if remaining == 0:
            break
        capacity = vehicle.capacity
        load = 0
        last = 0
        clock = e0
        stops: list[StopVisit] = []
        while remaining:
            free = capacity - load
            while visited[by_demand[demand_at]]:
                demand_at += 1
            if free < demands[by_demand[demand_at]]:
                break
            best_id = 0
            row = rows[last]
            if last == 0:
                while depot_at < n and (visited[by_depot[depot_at]] or not reachable[by_depot[depot_at]]):
                    depot_at += 1
                if depot_at == n:
                    break
                if demands[by_depot[depot_at]] <= free:
                    best_id = by_depot[depot_at]
            else:
                near = neighbors[last]
                for j in near:
                    if visited[j] or demands[j] > free:
                        continue
                    arrival = clock + row[j] / speed
                    if (arrival if arrival > earliest_f[j] else earliest_f[j]) <= latest_f[j]:
                        best_id = j
                        break
                else:
                    if len(near) == whole_lists:
                        break
            if best_id == 0:
                fits = unvisited & (demand <= free)
                fits &= np.maximum(clock + arr[last] / speed, earliest) <= latest
                best_id = int(np.argmin(np.where(fits, arr[last], np.inf)))
                if not fits[best_id]:
                    break
            arrival = clock + row[best_id] / speed
            start = max(arrival, earliest_f[best_id])
            clock = start + service[best_id]
            stops.append(StopVisit(best_id, arrival, clock))
            unvisited[best_id] = False
            visited[best_id] = True
            load += demands[best_id]
            last = best_id
            remaining -= 1
        if stops:
            routes.append(Route(vehicle.id, e0, tuple(stops)))

    if remaining:
        raise InfeasibleError(tuple(np.flatnonzero(unvisited).tolist()))
    return RoutePlan(tuple(routes))


class _WorkRoute:
    """Mutable route state used only inside the local search."""

    __slots__ = ("vehicle_id", "capacity", "stops", "load")

    def __init__(self, vehicle_id: int, capacity: int, stops: list[int], load: int):
        self.vehicle_id = vehicle_id
        self.capacity = capacity
        self.stops = stops
        self.load = load


def _nearest_neighbors(arr: np.ndarray, n: int, k: int) -> list[list[int]]:
    """For each waypoint the k nearest other waypoints, ordered by
    (distance, id); ties at the k-th place go to the lower ids."""
    if n <= 1:
        return [[] for _ in range(n + 1)]
    k = min(k, n - 1)
    out: list[list[int]] = [[]]
    for a in range(1, n + 1, _ROW_BLOCK):
        block = arr[a : a + _ROW_BLOCK, 1:].copy()
        m = len(block)
        block[np.arange(m), np.arange(a - 1, a - 1 + m)] = np.inf
        near = np.argpartition(block, k - 1, axis=1)[:, :k]
        dist = np.take_along_axis(block, near, axis=1)
        # argpartition picks arbitrarily among ties with the k-th distance;
        # rows that have such ties take the lowest ids by a stable sort.
        kth = dist.max(axis=1, keepdims=True)
        for r in np.flatnonzero((block <= kth).sum(axis=1) > k):
            ids = np.flatnonzero(block[r] <= kth[r])
            near[r] = ids[np.argsort(block[r, ids], kind="stable")[:k]]
            dist[r] = block[r, near[r]]
        order = np.lexsort((near, dist), axis=1)
        out += (np.take_along_axis(near, order, axis=1) + 1).tolist()
    return out


def _check_visits_once(plan: RoutePlan, n: int) -> None:
    """Raise ValueError unless the plan visits waypoints 1..n once each."""
    visits = Counter(stop.waypoint_id for route in plan.routes for stop in route.stops)
    problems = []
    missing = [wid for wid in range(1, n + 1) if wid not in visits]
    if missing:
        problems.append(f"missing {missing}")
    twice = sorted(wid for wid, count in visits.items() if count > 1 and 1 <= wid <= n)
    if twice:
        problems.append(f"visited twice {twice}")
    unknown = sorted(wid for wid in visits if not 1 <= wid <= n)
    if unknown:
        problems.append(f"unknown {unknown}")
    if problems:
        raise ValueError(f"start plan must visit waypoints 1..{n} once each: {'; '.join(problems)}")


def local_search(
    plan: RoutePlan,
    instance: ProblemInstance,
    matrix: DistanceMatrix,
    params: SolverParams,
    move_listener: Optional[Callable[[RoutePlan, float], None]] = None,
    stats: Optional[dict] = None,
    *,
    neighbors: Optional[list[list[int]]] = None,
) -> RoutePlan:
    """Improve a feasible plan with first-improvement neighborhood moves.

    The plan must visit every waypoint exactly once; otherwise ValueError
    names the waypoints that are missing, visited twice or unknown.  The
    candidates for each stop are its NEIGHBORS nearest waypoints, from
    _nearest_neighbors unless `neighbors` gives them.

    Neighborhoods: intra-route 2-opt, intra-route relocate, inter-route
    relocate and inter-route swap.  A move is accepted only when it keeps the
    plan feasible and cuts the travelled distance by at least
    optimization_step meters, and never by less than MIN_GAIN_M.  Terminates
    at a local optimum or after time_limit_ms * EVALS_PER_MS move
    evaluations, whichever comes first.

    A rejected evaluation is only cell reads and float arithmetic: stop
    positions come from a table that is rebuilt only for the routes an
    accepted move changed, u's removal cost is computed once per scan of its
    neighbors, and a candidate route is built only for a delta that passes
    the step.  Plans, counters and listener deltas are bit for bit those of
    the plain scan kept as scalar_local_search in tests/test_solver.py.
    """
    n = instance.n_waypoints
    _check_visits_once(plan, n)
    if n == 0:
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

    routes: list[_WorkRoute] = []
    route_of: list[Optional[_WorkRoute]] = [None] * (n + 1)
    pos = [0] * (n + 1)
    for route in plan.routes:
        stops = [s.waypoint_id for s in route.stops]
        load = sum(demand[j] for j in stops)
        work = _WorkRoute(route.vehicle_id, instance.vehicle(route.vehicle_id).capacity, stops, load)
        for k, j in enumerate(stops):
            route_of[j] = work
            pos[j] = k
        routes.append(work)

    if neighbors is None:
        neighbors = _nearest_neighbors(matrix.array, n, NEIGHBORS)

    def schedule_ok(stops: list[int]) -> bool:
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

    def materialize() -> RoutePlan:
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

    # A move is accepted only when its delta is at most this.
    max_delta = -max(params.optimization_step, MIN_GAIN_M)
    quota = params.time_limit_ms * EVALS_PER_MS
    evals = 0
    accepted = 0
    out_of_budget = quota == 0

    # The scan starts at a seed-dependent offset; everything after that is a
    # fixed deterministic order.
    offset = random.Random(params.rng_seed).randrange(n)
    queue = deque([*range(offset + 1, n + 1), *range(1, offset + 1)])
    queued = [True] * (n + 1)

    # Past a route's last stop comes the depot, 0, whose zeroed column
    # prices the open end at +0.0.  Every cell is >= +0.0, so x + 0.0 - 0.0
    # == x and each delta is the reference's bit for bit, which adds 0.0 for
    # an arc to its end marker, or skips it (2-opt).
    while queue and not out_of_budget:
        u = queue.popleft()
        queued[u] = False
        r1 = route_of[u]
        stops1 = r1.stops
        last1 = len(stops1) - 1
        p1 = pos[u]
        prev_u = stops1[p1 - 1] if p1 else 0
        row_u = rows[u]
        row_pu = rows[prev_u]
        cost_pu = row_pu[u]
        next_u = stops1[p1 + 1] if p1 < last1 else 0
        cost_un = row_u[next_u]
        removal = cost_pu + cost_un - row_pu[next_u]
        demand_u = demand[u]
        touched = None
        for v in neighbors[u]:
            if evals >= quota:
                out_of_budget = True
                break
            r2 = route_of[v]
            p2 = pos[v]
            row_v = rows[v]
            if r2 is r1:
                # 2-opt: reverse the segment from u to v.
                evals += 1
                i, j = (p1, p2) if p1 < p2 else (p2, p1)
                head = stops1[i]
                tail = stops1[j]
                prev_i = stops1[i - 1] if i else 0
                row = rows[prev_i]
                next_j = stops1[j + 1] if j < last1 else 0
                delta = row[tail] - row[head] + (rows[head][next_j] - rows[tail][next_j])
                if delta <= max_delta:
                    candidate = stops1[:i] + stops1[i : j + 1][::-1] + stops1[j + 1 :]
                    if schedule_ok(candidate):
                        r1.stops = candidate
                        touched = (prev_i, head, tail, next_j, u, v)
                        break
                # Relocate u right after v, before v's successor once u is out.
                evals += 1
                b = next_u if p2 + 1 == p1 else stops1[p2 + 1] if p2 < last1 else 0
                delta = row_v[u] + row_u[b] - row_v[b] - removal
                if delta <= max_delta:
                    trimmed = stops1[:p1] + stops1[p1 + 1 :]
                    at = p2 + 1 if p2 < p1 else p2
                    candidate = trimmed[:at] + [u] + trimmed[at:]
                    if schedule_ok(candidate):
                        r1.stops = candidate
                        touched = (prev_u, next_u, u, v, b)
                        break
                # Relocate u right before v, after v's predecessor once u is out.
                evals += 1
                a = prev_u if p2 - 1 == p1 else stops1[p2 - 1] if p2 else 0
                row_a = rows[a]
                delta = row_a[u] + row_u[v] - row_a[v] - removal
                if delta <= max_delta:
                    trimmed = stops1[:p1] + stops1[p1 + 1 :]
                    at = p2 if p2 < p1 else p2 - 1
                    candidate = trimmed[:at] + [u] + trimmed[at:]
                    if schedule_ok(candidate):
                        r1.stops = candidate
                        touched = (prev_u, next_u, u, a, v)
                        break
                continue

            stops2 = r2.stops
            last2 = len(stops2) - 1
            prev_v = stops2[p2 - 1] if p2 else 0
            next_v = stops2[p2 + 1] if p2 < last2 else 0
            row_pv = rows[prev_v]
            if r2.load + demand_u <= r2.capacity:
                # Relocate u into v's route, right after v, then right before.
                evals += 1
                delta = row_v[u] + row_u[next_v] - row_v[next_v] - removal
                if delta <= max_delta:
                    candidate = stops2[: p2 + 1] + [u] + stops2[p2 + 1 :]
                    if schedule_ok(candidate):
                        touched = (prev_u, next_u, u, v, next_v)
                if touched is None:
                    evals += 1
                    delta = row_pv[u] + row_u[v] - row_pv[v] - removal
                    if delta <= max_delta:
                        candidate = stops2[:p2] + [u] + stops2[p2:]
                        if schedule_ok(candidate):
                            touched = (prev_u, next_u, u, prev_v, v)
                if touched is not None:
                    r1.stops = stops1[:p1] + stops1[p1 + 1 :]
                    r2.stops = candidate
                    r1.load -= demand_u
                    r2.load += demand_u
                    route_of[u] = r2
                    break
            else:
                evals += 2
            # Swap u and v.
            evals += 1
            demand_v = demand[v]
            if (
                r1.load - demand_u + demand_v <= r1.capacity
                and r2.load - demand_v + demand_u <= r2.capacity
            ):
                delta = (
                    row_pu[v] + row_v[next_u] - cost_pu - cost_un
                    + row_pv[u] + row_u[next_v] - row_pv[v] - row_v[next_v]
                )
                if delta <= max_delta:
                    cand1 = stops1[:p1] + [v] + stops1[p1 + 1 :]
                    cand2 = stops2[:p2] + [u] + stops2[p2 + 1 :]
                    if schedule_ok(cand1) and schedule_ok(cand2):
                        r1.stops = cand1
                        r2.stops = cand2
                        r1.load += demand_v - demand_u
                        r2.load += demand_u - demand_v
                        route_of[u] = r2
                        route_of[v] = r1
                        touched = (prev_u, next_u, prev_v, next_v, u, v)
                        break

        if touched is None:
            continue
        accepted += 1
        for wid in touched:
            if wid > 0 and not queued[wid]:
                queued[wid] = True
                queue.append(wid)
        for k, wid in enumerate(r1.stops):
            pos[wid] = k
        if r2 is not r1:
            for k, wid in enumerate(r2.stops):
                pos[wid] = k
        if move_listener is not None:
            move_listener(materialize(), delta)

    if stats is not None:
        stats["evals"] = evals
        stats["accepted"] = accepted
        stats["converged"] = not out_of_budget
    return materialize()


def solve_cvrptw(
    instance: ProblemInstance,
    params: Optional[SolverParams] = None,
) -> RoutePlan:
    """Construct and polish a plan; its busy set is `plan.busy_vehicles`.
    The neighbor lists are computed once, for both phases.

    Raises InfeasibleError when the fleet cannot cover every waypoint.  The
    plan is not validated here: pipeline.run_strategy validates the plan it
    returns, merged over every cluster, once per solve.
    """
    params = params or SolverParams()
    matrix = build_matrix(instance)
    neighbors = _nearest_neighbors(matrix.array, instance.n_waypoints, NEIGHBORS)
    plan = path_cheapest_arc(instance, matrix, neighbors=neighbors)
    return local_search(plan, instance, matrix, params, neighbors=neighbors)
