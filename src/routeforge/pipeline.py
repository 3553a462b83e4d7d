"""Cluster-then-route orchestration.

Every strategy runs one loop: one sub-instance per group of waypoints, solved
in order against the shrinking pool of still-free vehicles.  MONOLITHIC is one
group of every waypoint.  A clustered strategy carves density clusters, larger
ones first so they see the widest vehicle choice; the order is deterministic.
A sub-solve answers in the instance's own waypoint ids, and its vehicle ids
are positions among the capacities it was given, so the loop only hands the
free vehicle at each position to its route.

The sub-solves run ahead of that order on every usable CPU, each against the
whole fleet.  A sub-solve sees the fleet only through the capacities of the
vehicles it opens: the greedy construction opens vehicles in id order and
stops at the one that takes the last waypoint, and the local search only
moves stops between the routes it was given.  So a pre-solved plan that used
vehicles 1..k is exactly the plan the in-order solve would find whenever the
first k free vehicles have the same capacities, in order.  Any other cluster
is solved again in order against the free pool, once every pre-solve has
ended, so plans and errors are the same on any number of CPUs.

The pre-solves run in the children of geo.fork_join, as the matrix fill
does, where geo.may_fork allows: one per usable CPU up to the cluster count,
child k on the k-th usable CPU.  The children take cluster indices in solve
order from one task pipe, which the parent writes meanwhile, so the largest
clusters go first and the rest balance the load; each sends all its outcomes
back once, at its end.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import time
from dataclasses import dataclass, replace
from enum import Enum
from typing import Optional, Union

from .clusterer import (
    ClusterConfig,
    ClusterSet,
    Feasibility,
    NoSolutionFoundError,
    binary_search_clusters,
    cluster_order,
    recursive_dbscan,
)
from .geo import fork_join, may_fork, usable_cpus
from .model import (
    ProblemInstance,
    Route,
    RoutePlan,
    StopVisit,
    Vehicle,
    evaluate_objective,
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
        w if w.id == new_id else replace(w, id=new_id) for new_id, w in enumerate(ordered, start=1)
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
    """Every cluster's outcome against the whole fleet, from `workers`
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
    members = [
        list(clusters.clusters[i].members)
        for i in cluster_order(clusters, instance.depot.location)
    ]
    return _solve_in_order(instance, members, params or SolverParams())


def _solve_in_order(
    instance: ProblemInstance, members: list[list[int]], params: SolverParams
) -> RoutePlan:
    """The in-order loop: solve each list of waypoint indices, in order,
    against the shared pool, and hand the free vehicles out to its routes.

    With more than one usable CPU and more than one list, the lists are
    pre-solved in forked children first; see the module docstring for why
    the plan does not depend on it.  One list is solved in process, where
    the matrix fill (geo.pairwise_meters) uses the usable CPUs instead.
    A pre-solved outcome is kept when the vehicles it depends on (1..max
    busy, or the whole fleet for an infeasible solve) are matched in
    capacity by the first free vehicles; otherwise the list is solved here.
    """
    workers = min(usable_cpus(), len(members))
    if workers > 1 and may_fork():
        presolved = _presolve(instance, members, params, workers)
    else:
        presolved = [None] * len(members)
    fleet_capacities = [v.capacity for v in instance.vehicles]
    free = [v.id for v in instance.vehicles]
    routes: list[Route] = []
    for cluster_members, outcome in zip(members, presolved):
        size = len(cluster_members)
        if not free:
            raise NoSolutionFoundError(f"vehicle pool exhausted before cluster of size {size}")
        capacities = [fleet_capacities[v - 1] for v in free]
        if outcome is not None:
            if isinstance(outcome, InfeasibleError):
                used = len(fleet_capacities)
            else:
                used = max(outcome.busy_vehicles, default=0)
            if capacities[:used] != fleet_capacities[:used]:
                outcome = None
        if outcome is None:
            outcome = _sub_solve(instance, cluster_members, capacities, params)
        if isinstance(outcome, InfeasibleError):
            raise NoSolutionFoundError(f"sub-solve infeasible for cluster of size {size}: {outcome}") from outcome
        # the outcome's vehicle k is the k-th free vehicle
        routes.extend(Route(free[r.vehicle_id - 1], r.depot_pickup_time, r.stops) for r in outcome.routes)
        busy = {free[k - 1] for k in outcome.busy_vehicles}
        free = [v for v in free if v not in busy]
    return RoutePlan(tuple(routes))


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
            plan = _solve_in_order(instance, [list(range(instance.n_waypoints))], params)
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
