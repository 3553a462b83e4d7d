"""Route construction and improvement for a single routing instance.

The solve is two-phase: a cheapest-arc greedy builds a feasible plan, then a
first-improvement local search over a fixed set of neighborhoods polishes it
under a time budget.  The budget is a fixed number of move evaluations
calibrated to the configured milliseconds, so a plan is a pure function of
its input and settings; no wall clock enters the solve.

Each solve builds one C-contiguous float64 distance array.  The greedy
construction takes one masked argmin over an array row per step and the
neighbor lists come from a partition over blocks of rows, while the local
search reads single cells through per-row memoryviews.  The cells are
still filled by the scalar geo.haversine_distance, one pair at a time, so
they keep the exact bits that every plan was computed from.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .geo import haversine_distance
from .model import (
    ProblemInstance,
    Route,
    RoutePlan,
    StopVisit,
    validate_solution,
)

# Candidate moves are only generated between a stop and its nearest neighbors;
# this bounds the scan cost per stop without measurably hurting quality at the
# cluster sizes this solver is pointed at.
NEIGHBORS = 24

# One millisecond of search budget buys this many move evaluations.  The
# constant was measured on CPython; it is a deterministic stand-in for the
# wall clock so that identical runs accept identical move sequences.
EVALS_PER_MS = 700

# Rows per block wherever a whole-matrix numpy pass would need an n^2
# temporary: the matrix symmetrization and the neighbor partition.
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


@dataclass(frozen=True)
class SolverParams:
    optimization_step: float = 1.0
    solution_limit: int = 9_223_372_036_854_775_807
    time_limit_ms: int = 5000
    rng_seed: int = 0

    def __post_init__(self) -> None:
        if self.optimization_step < 0:
            raise ValueError("optimization_step must be non-negative")
        if self.solution_limit < 0:
            raise ValueError("solution_limit must be non-negative")
        if self.time_limit_ms < 0:
            raise ValueError("time_limit_ms must be non-negative")


@dataclass(frozen=True, eq=False)
class DistanceMatrix:
    """Meters between every pair of nodes; index 0 is the depot.

    `array` is one C-contiguous float64 (n+1)^2 array for the vectorized
    passes.  `rows` holds one memoryview per array row, so `rows[i][j]`
    returns a Python float without building a numpy scalar; the local search
    reads cells that way.  Column 0 is zeroed because routes are open:
    driving back to the depot is never charged.  Row 0 keeps the real
    depot-to-waypoint distances.
    """

    array: np.ndarray = field(repr=False)
    rows: tuple[memoryview, ...] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "rows", tuple(memoryview(row) for row in self.array))

    @property
    def n(self) -> int:
        return len(self.rows)

    def d(self, i: int, j: int) -> float:
        return self.rows[i][j]


def build_matrix(instance: ProblemInstance) -> DistanceMatrix:
    """Full node distance matrix for one instance.

    Every cell is a geo.haversine_distance call, the scalar reference
    kernel.  Only the upper triangle is computed; adding the transpose
    mirrors it exactly, because x + 0.0 == x.
    """
    points = [instance.depot.location] + [w.location for w in instance.waypoints]
    n = len(points)
    arr = np.zeros((n, n))
    for i in range(n - 1):
        p_i = points[i]
        arr[i, i + 1 :] = [haversine_distance(p_i, q) for q in points[i + 1 :]]
    # Block by rows so that the transpose's copy stays small: rows a..b
    # read only columns a..b, which no earlier block wrote.
    for a in range(0, n, _ROW_BLOCK):
        b = a + _ROW_BLOCK
        arr[a:b, :b] += arr[:b, a:b].T
    arr[:, 0] = 0.0
    return DistanceMatrix(arr)


def path_cheapest_arc(instance: ProblemInstance, matrix: DistanceMatrix) -> RoutePlan:
    """Greedy construction: always extend with the nearest feasible waypoint.

    Vehicles open one at a time in id order; a vehicle closes when no
    remaining waypoint fits its capacity and time constraints.  Ties on
    distance go to the lower waypoint id, the first minimum argmin returns.
    """
    n = instance.n_waypoints
    if n == 0:
        return RoutePlan(())
    arr = matrix.array
    speed = instance.travel.speed_mps
    e0 = float(instance.depot.window.earliest)
    earliest = np.zeros(n + 1)
    latest = np.zeros(n + 1)
    service = [0] * (n + 1)
    for w in instance.waypoints:
        earliest[w.id] = w.window.earliest
        latest[w.id] = w.window.latest
        service[w.id] = w.service_duration
    demands = [0] + [w.demand for w in instance.waypoints]
    # object dtype keeps Python's exact integers for demands beyond int64
    demand = np.array(demands, dtype=np.int64 if max(demands) < 2**63 else object)

    unvisited = np.ones(n + 1, dtype=bool)
    unvisited[0] = False
    remaining = n
    routes: list[Route] = []

    for vehicle in instance.vehicles:
        if remaining == 0:
            break
        capacity = vehicle.capacity
        load = 0
        last = 0
        clock = e0
        stops: list[StopVisit] = []
        while True:
            row = arr[last]
            fits = unvisited & (demand <= capacity - load)
            fits &= np.maximum(clock + row / speed, earliest) <= latest
            best_id = int(np.argmin(np.where(fits, row, np.inf)))
            if not fits[best_id]:
                break
            arrival = clock + float(row[best_id]) / speed
            start = max(arrival, float(earliest[best_id]))
            clock = start + service[best_id]
            stops.append(StopVisit(best_id, arrival, clock))
            unvisited[best_id] = False
            load += int(demand[best_id])
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


def local_search(
    plan: RoutePlan,
    instance: ProblemInstance,
    matrix: DistanceMatrix,
    params: SolverParams,
    move_listener: Optional[Callable[[RoutePlan, float], None]] = None,
    stats: Optional[dict] = None,
) -> RoutePlan:
    """Improve a feasible plan with first-improvement neighborhood moves.

    Neighborhoods: intra-route 2-opt, intra-route relocate, inter-route
    relocate and inter-route swap.  A move is accepted only when it keeps the
    plan feasible and cuts the travelled distance by at least
    optimization_step meters.  Terminates at a local optimum or when the
    budget runs out, whichever comes first.
    """
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

    routes: list[_WorkRoute] = []
    route_of = [-1] * (n + 1)
    for route in plan.routes:
        stops = [s.waypoint_id for s in route.stops]
        load = sum(demand[j] for j in stops)
        work = _WorkRoute(route.vehicle_id, instance.vehicle(route.vehicle_id).capacity, stops, load)
        for j in stops:
            route_of[j] = len(routes)
        routes.append(work)

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

    step = params.optimization_step
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

    def requeue(wid: int) -> None:
        if wid > 0 and not queued[wid]:
            queued[wid] = True
            queue.append(wid)

    def budget_left() -> bool:
        nonlocal out_of_budget
        if out_of_budget:
            return False
        if evals >= quota or accepted >= params.solution_limit:
            out_of_budget = True
            return False
        return True

    def _arc(a: int, b: int) -> float:
        return rows[a][b] if b >= 0 else 0.0

    def _accept(delta: float, touched: tuple) -> None:
        nonlocal accepted
        accepted += 1
        for wid in touched:
            if wid > 0:
                requeue(wid)
        if move_listener is not None:
            move_listener(materialize(), delta)

    def _two_opt(r1: _WorkRoute, p1: int, p2: int, u: int, v: int) -> bool:
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

    def _relocate(
        r1: _WorkRoute, p1: int, r2: _WorkRoute, r2_index: int, anchor: int, u: int, after: bool
    ) -> bool:
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

    def _swap(r1: _WorkRoute, p1: int, r2: _WorkRoute, p2: int, u: int, v: int) -> bool:
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

    def try_improve(u: int) -> bool:
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


def solve_cvrptw(
    instance: ProblemInstance,
    params: Optional[SolverParams] = None,
) -> tuple[RoutePlan, frozenset[int]]:
    """Construct and polish a plan; returns it with the set of busy vehicles.

    Raises InfeasibleError when the fleet cannot cover every waypoint.  The
    returned plan always passes the solution validator.
    """
    params = params or SolverParams()
    if instance.n_waypoints == 0:
        return RoutePlan(()), frozenset()
    matrix = build_matrix(instance)
    plan = path_cheapest_arc(instance, matrix)
    plan = local_search(plan, instance, matrix, params)
    violations = validate_solution(plan, instance)
    if violations:
        raise RuntimeError(f"internal error: solver produced invalid plan: {violations[:3]}")
    return plan, plan.busy_vehicles
