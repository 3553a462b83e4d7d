"""Cluster-then-route orchestration.

Every strategy runs one loop: one sub-instance per group of waypoints, solved
in order against the shrinking pool of still-free vehicles.  MONOLITHIC is one
group of every waypoint.  A clustered strategy carves density clusters, larger
ones first so they see the widest vehicle choice; the order is deterministic.
A sub-solve answers in the instance's own waypoint ids, and its vehicle ids
are positions among the capacities it was given, so the loop only hands the
free vehicle at each position to its route.

Each group is solved first against the whole fleet.  With more than one
usable CPU and more than one group, and where geo.may_fork allows, those
pre-solves run in the children of geo.fork_join, as the matrix fill does:
one per usable CPU up to the group count, child k on the k-th usable CPU.
The children take group indices in solve order from one task pipe, which
the parent writes meanwhile, so the largest groups go first and the rest
balance the load; each sends all its outcomes back once, at its end.
Otherwise the pre-solves run in process.  The loop then keeps a pre-solved
outcome when the vehicles it used (1 to its highest busy vehicle, or the
whole fleet for an infeasible one) match the first free vehicles in
capacity, in order, and solves the group again against the free pool
otherwise.  So plans and errors depend only on the groups and the fleet;
the CPU count only decides which process runs each pre-solve.

Then one seam pass runs in the parent on the loop's plan, for every
strategy; it sees only that plan, so plans stay the same on any number of
CPUs.  It tries to empty each group's least-loaded route (ties to the lower
vehicle id), once each, in ascending (load, vehicle id) order as the loop
left them, against the plan as it stands: the route elimination of Nagata
and Braysy (2009), restricted to the routes at cluster seams.
- A candidate is skipped unless the spare capacity of its target routes
  adds up to its load.  MONOLITHIC on its capacity bound stops there.
- The targets are the other routes of its own group and of the two groups
  whose centroids lie nearest to its own (ties to the lower group index).
- Each stop, in route order, goes to the target position of least exact
  insertion cost d(prev, w) + d(w, next) - d(prev, next), or d(prev, w)
  after a route's last stop, ties by (vehicle id, position), among the
  positions whose route has the spare capacity and keeps every window.  The
  first stop that fits nowhere ends the candidate.
- The candidate's vehicle is freed only when the summed insertion costs are
  at most the emptied route's length, depot leg included, so the plan gets
  no longer; otherwise its routes are restored.  propagate_schedule times
  every changed route again.
A candidate also ends as soon as its insertion costs pass that length.
The distances come from one geo.HaversineKernel call per stop, over the
nodes of the target routes with room for it, and each route's arcs
d(prev, next) are kept as its stops go in.  The positions are tried in
order of cost, and propagate_schedule, the one window check, times the
first whose route it accepts.
"""

from __future__ import annotations

import bisect
import itertools
import multiprocessing
import os
import time
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Sequence, Union

import numpy as np

from .clusterer import (
    ClusterConfig,
    ClusterSet,
    Feasibility,
    NoSolutionFoundError,
    binary_search_clusters,
    cluster_order,
    recursive_dbscan,
)
from .geo import GeoPoint, HaversineKernel, fork_join, haversine_distance, may_fork, usable_cpus
from .model import (
    InfeasibleSequenceError,
    ProblemInstance,
    Route,
    RoutePlan,
    StopVisit,
    Vehicle,
    Waypoint,
    evaluate_objective,
    propagate_schedule,
    validate_solution,
)
from .solver import InfeasibleError, SolverParams, solve_cvrptw


class Strategy(str, Enum):
    MONOLITHIC = "MONOLITHIC"
    DBSCAN = "DBSCAN"
    RECURSIVE_DBSCAN = "RECURSIVE_DBSCAN"


@dataclass(frozen=True)
class PipelineResult:
    plan: RoutePlan
    wall_time_ms: float
    total_distance: float
    busy_vehicle_count: int
    cluster_count: int
    peak_cluster_size: int


def _sub_solve(
    instance: ProblemInstance, members: list[int], capacities: list[int], params: SolverParams
) -> _SubSolve:
    """Solve one cluster against vehicles of the given capacities, in order.

    The only code that knows the sub-instance numbering, ids 1.. for the
    sorted members and for the vehicles: the outcome names the instance's
    waypoint ids, and its vehicle ids are 1-based positions in `capacities`.
    Members whose demand exceeds every capacity make the cluster infeasible;
    the sub-instance would reject them as invalid."""
    ordered = [instance.waypoints[idx] for idx in sorted(members)]
    largest = max(capacities)
    oversized = tuple(w.id for w in ordered if w.demand > largest)
    if oversized:
        return InfeasibleError(oversized)
    waypoints = tuple(
        Waypoint(new_id, w.location, w.demand, w.window, w.service_duration)
        for new_id, w in enumerate(ordered, start=1)
    )
    vehicles = tuple(Vehicle(new_id, capacity) for new_id, capacity in enumerate(capacities, start=1))
    sub = ProblemInstance(instance.depot, waypoints, vehicles, instance.travel)
    try:
        plan = solve_cvrptw(sub, params)
    except InfeasibleError as exc:
        return InfeasibleError(tuple(ordered[w - 1].id for w in exc.unassigned))
    routes = []
    for route in plan.routes:
        stops = (StopVisit(ordered[s.waypoint_id - 1].id, s.arrival_time, s.departure_time) for s in route.stops)
        routes.append(Route(route.vehicle_id, route.depot_pickup_time, tuple(stops)))
    return RoutePlan(tuple(routes))


# A sub-solve's plan, or why it was infeasible.
_SubSolve = Union[RoutePlan, InfeasibleError]

# Bytes per cluster index on the pre-solve task pipe.
_INDEX_BYTES = 4


def _presolve(
    instance: ProblemInstance, members: list[list[int]], params: SolverParams, workers: int
) -> list[_SubSolve]:
    """Every group's outcome against the whole fleet, from `workers`
    forked children; see the module docstring."""
    capacities = [v.capacity for v in instance.vehicles]
    source, feed = multiprocessing.Pipe(duplex=False)

    def drain() -> list[tuple[int, _SubSolve]]:
        """Pre-solve the clusters whose indices the task pipe holds.  The
        parent writes whole indices, and a pipe read holds the pipe's lock,
        so each read takes one whole index."""
        feed.close()  # the pipe ends once the parent closes its write end
        outcomes = []
        while record := os.read(source.fileno(), _INDEX_BYTES):
            index = int.from_bytes(record, "little")
            outcomes.append((index, _sub_solve(instance, members[index], capacities, params)))
        return outcomes

    def write_tasks() -> None:
        source.close()  # every child holds its own copy by now
        tasks = memoryview(b"".join(i.to_bytes(_INDEX_BYTES, "little") for i in range(len(members))))
        while tasks:
            tasks = tasks[os.write(feed.fileno(), tasks) :]
        feed.close()

    cpus = sorted(os.sched_getaffinity(0))
    jobs = [(f"pre-solve child {k} of {workers}", cpus[k], drain) for k in range(workers)]
    try:
        sent = fork_join(write_tasks, jobs)
    finally:
        source.close()
        feed.close()
    found = dict(itertools.chain.from_iterable(sent))
    return [found[index] for index in range(len(members))]


def optimise_clusters(
    clusters: ClusterSet,
    instance: ProblemInstance,
    params: Optional[SolverParams] = None,
) -> RoutePlan:
    """Solve every cluster in order against the shared vehicle pool.

    Vehicles used by one cluster are unavailable to the rest.  Raises
    NoSolutionFoundError if the pool runs dry or any sub-solve is infeasible.
    """
    order = [clusters.clusters[i] for i in cluster_order(clusters, instance.depot.location)]
    members = [list(cluster.members) for cluster in order]
    plan = _solve_in_order(instance, members, params or SolverParams())
    return _empty_seam_routes(instance, members, plan, [cluster.centroid for cluster in order])


def _solve_in_order(
    instance: ProblemInstance, members: list[list[int]], params: SolverParams
) -> RoutePlan:
    """The in-order loop: hand the free vehicles out to each list of
    waypoint indices, in order, from its pre-solved outcome or from a
    solve against the free pool; see the module docstring.  One list is
    pre-solved in process, where the matrix fill (geo.pairwise_meters)
    uses the usable CPUs instead.
    """
    fleet_capacities = [v.capacity for v in instance.vehicles]
    workers = min(usable_cpus(), len(members))
    if workers > 1 and may_fork():
        presolved = _presolve(instance, members, params, workers)
    else:
        presolved = (_sub_solve(instance, m, fleet_capacities, params) for m in members)
    free = [v.id for v in instance.vehicles]
    routes: list[Route] = []
    for cluster_members, outcome in zip(members, presolved):
        size = len(cluster_members)
        if not free:
            raise NoSolutionFoundError(f"vehicle pool exhausted before cluster of size {size}")
        capacities = [fleet_capacities[v - 1] for v in free]
        if isinstance(outcome, InfeasibleError):
            used = len(fleet_capacities)
        else:
            used = max(outcome.busy_vehicles, default=0)
        if capacities[:used] != fleet_capacities[:used]:
            outcome = _sub_solve(instance, cluster_members, capacities, params)
        if isinstance(outcome, InfeasibleError):
            raise NoSolutionFoundError(f"sub-solve infeasible for cluster of size {size}: {outcome}") from outcome
        # the outcome's vehicle k is the k-th free vehicle
        routes.extend(Route(free[r.vehicle_id - 1], r.depot_pickup_time, r.stops) for r in outcome.routes)
        busy = {free[k - 1] for k in outcome.busy_vehicles}
        free = [v for v in free if v not in busy]
    return RoutePlan(tuple(routes))


def _reinsert(
    instance: ProblemInstance, kernel: HaversineKernel, emptied: Route, targets: list[Route], room: list[int]
) -> Optional[list[Route]]:
    """The `targets` routes, in vehicle id order, with `emptied`'s stops
    placed as the seam pass places them (see the module docstring) and
    timed by propagate_schedule; `room` is each target's spare capacity.
    None when a stop fits nowhere or the insertions cost more than
    `emptied`'s length.  `kernel` prices the depot (node 0) and the
    waypoints (node = id)."""
    targets, room = list(targets), list(room)
    # the distances from the stop being placed, by node; node n + 1 stands
    # for no node, after a route's last stop, and stays 0
    end = instance.n_waypoints + 1
    dist = np.zeros(end + 1)
    # each target's node before and node after each position, and the length
    # of the arc the position cuts
    before = [np.array((0,) + r.stop_ids) for r in targets]
    after = [np.append(nodes[1:], end) for nodes in before]
    arcs = [np.append(kernel(nodes[:-1], nodes[1:]), 0.0) for nodes in before]
    path = np.array((0,) + emptied.stop_ids)
    length = sum(kernel(path[:-1], path[1:]).tolist())
    total = 0.0
    for w in emptied.stop_ids:
        demand = instance.waypoint(w).demand
        fitting = [j for j in range(len(targets)) if room[j] >= demand]
        if not fitting:
            return None
        nodes = np.concatenate([[0]] + [after[j][:-1] for j in fitting])
        dist[nodes] = kernel(np.full(len(nodes), w), nodes)
        cost = np.concatenate([dist[before[j]] + dist[after[j]] - arcs[j] for j in fitting])
        bounds = list(itertools.accumulate((len(before[j]) for j in fitting), initial=0))
        for i in np.argsort(cost, kind="stable").tolist():
            slot = bisect.bisect_right(bounds, i) - 1
            j, p = fitting[slot], i - bounds[slot]
            ids = targets[j].stop_ids
            trial = Route(targets[j].vehicle_id, targets[j].depot_pickup_time, tuple(
                StopVisit(s, 0.0, 0.0) for s in ids[:p] + (w,) + ids[p:]
            ))
            try:
                targets[j] = propagate_schedule(trial, instance, trial.depot_pickup_time)
            except InfeasibleSequenceError:
                continue
            arcs[j] = np.concatenate((arcs[j][:p], dist[[before[j][p], after[j][p]]], arcs[j][p + 1 :]))
            before[j] = np.insert(before[j], p + 1, w)
            after[j] = np.insert(after[j], p, w)
            room[j] -= demand
            total += float(cost[i])
            break
        else:  # w fits nowhere
            return None
        if total > length:
            return None
    return targets


def _empty_seam_routes(
    instance: ProblemInstance, members: list[list[int]], plan: RoutePlan, centroids: Sequence[GeoPoint] = ()
) -> RoutePlan:
    """The seam pass over the in-order loop's plan of the groups `members`
    (see the module docstring): returns `plan` itself when it empties no
    route, otherwise the plan without the emptied routes, with every
    changed route timed by propagate_schedule.  `centroids` holds each
    group's clusterer._centroid, as its Cluster carries it; one group
    needs none."""
    routes = list(plan.routes)
    if len(routes) < 2:
        return plan
    group_of = np.empty(instance.n_waypoints + 1, dtype=np.int64)
    group_of[np.concatenate(members).astype(np.int64) + 1] = np.repeat(np.arange(len(members)), [len(m) for m in members])
    demand = [0] + [w.demand for w in instance.waypoints]
    capacity = [instance.vehicle(r.vehicle_id).capacity for r in routes]
    load = [sum([demand[s.waypoint_id] for s in r.stops]) for r in routes]
    group = group_of[[r.stops[0].waypoint_id for r in routes]].tolist()
    by_group: list[list[int]] = [[] for _ in members]
    spare = [0] * len(members)
    for k, g in enumerate(group):
        by_group[g].append(k)
        spare[g] += capacity[k] - load[k]
    lightest = lambda k: (load[k], routes[k].vehicle_id)  # noqa: E731
    candidates = sorted((min(ks, key=lightest) for ks in by_group), key=lightest)
    kernel = None
    alive = [True] * len(routes)
    for c in candidates:
        g = group[c]
        near = sorted(
            (h for h in range(len(members)) if h != g),
            key=lambda h: (haversine_distance(centroids[g], centroids[h]), h),
        )[:2]
        if spare[g] + sum(spare[h] for h in near) - (capacity[c] - load[c]) < load[c]:
            continue
        if kernel is None:
            kernel = HaversineKernel([instance.depot.location] + [w.location for w in instance.waypoints])
        # a route without room for the least demand takes no stop
        least = min(demand[w] for w in routes[c].stop_ids)
        targets = sorted(
            (k for h in (g, *near) for k in by_group[h] if alive[k] and k != c and capacity[k] - load[k] >= least),
            key=lambda k: routes[k].vehicle_id,
        )
        placed = _reinsert(instance, kernel, routes[c], [routes[k] for k in targets], [capacity[k] - load[k] for k in targets])
        if placed is None:
            continue
        for k, route in zip(targets, placed):
            if route is not routes[k]:
                moved = sum(demand[w] for w in route.stop_ids) - load[k]
                load[k] += moved
                spare[group[k]] -= moved
                routes[k] = route
        alive[c] = False
        spare[g] -= capacity[c] - load[c]
    if all(alive):
        return plan
    return RoutePlan(tuple(r for k, r in enumerate(routes) if alive[k]))


def run_strategy(
    instance: ProblemInstance,
    strategy: Strategy,
    cluster_config: Optional[ClusterConfig] = None,
    params: Optional[SolverParams] = None,
) -> PipelineResult:
    """Run one solve strategy end to end and report plan plus metrics.

    MONOLITHIC runs the cluster loop on one group and reports no clusters.
    Wall time covers clustering and routing together.  Every failure is a
    NoSolutionFoundError carrying the elapsed wall time.  The returned plan
    always passes the solution validator: this is the one validation of a
    solve, made on the plan merged over every cluster.  A strategy given
    by value runs the strategy it names; an unknown one raises ValueError.
    """
    strategy = Strategy(strategy)
    cluster_config = cluster_config or ClusterConfig()
    params = params or SolverParams()
    started = time.perf_counter()
    try:
        if strategy is Strategy.MONOLITHIC or instance.n_waypoints == 0:
            members = [list(range(instance.n_waypoints))]
            plan = _empty_seam_routes(instance, members, _solve_in_order(instance, members, params))
            cluster_count = 0
            peak = 0
        else:
            points = [w.location for w in instance.waypoints]
            if strategy is Strategy.DBSCAN:
                clusters, _ = binary_search_clusters(
                    points, cluster_config, Feasibility.MAX_SIZE_CAP
                )
            else:
                clusters = recursive_dbscan(points, cluster_config)
            plan = optimise_clusters(clusters, instance, params)
            cluster_count = len(clusters.clusters)
            peak = max(clusters.sizes(), default=0)
    except NoSolutionFoundError as exc:
        exc.wall_time_ms = (time.perf_counter() - started) * 1000.0
        raise
    wall_ms = (time.perf_counter() - started) * 1000.0

    violations = validate_solution(plan, instance)
    if violations:
        raise RuntimeError(f"internal error: strategy produced invalid plan: {violations[:3]}")
    return PipelineResult(
        plan=plan,
        wall_time_ms=wall_ms,
        total_distance=evaluate_objective(plan, instance),
        busy_vehicle_count=len(plan.busy_vehicles),
        cluster_count=cluster_count,
        peak_cluster_size=peak,
    )
