"""Cluster-then-route orchestration.

Every strategy runs one loop: one sub-instance per group of waypoints, solved
in order against the shrinking pool of still-free vehicles.  MONOLITHIC is one
group of every waypoint.  A clustered strategy carves density clusters, larger
ones first so they see the widest vehicle choice; the order is deterministic.

The sub-solves run ahead of that order on every usable CPU, each against the
whole fleet.  A sub-solve sees the fleet only through the capacities of the
vehicles it opens: the greedy construction opens vehicles in id order and
stops at the one that takes the last waypoint, and the local search only
moves stops between the routes it was given.  So a pre-solved plan that used
vehicles 1..k is exactly the plan the in-order solve would find whenever the
first k free vehicles have the same capacities, in order.  Any other cluster
is solved again in order against the free pool, once every pre-solve has
ended, so plans and errors are the same on any number of CPUs.

The pre-solves run in forked daemonic children, one per usable CPU up to the
cluster count, started only where geo.may_fork allows, as the matrix fill's
children are.  Each child places itself on a CPU of its own (geo.place_on),
takes cluster indices in solve order from one pipe, so the largest clusters
go first and the rest balance the load, and sends all its outcomes back
once, at its end.  The parent joins every child; it terminates the children
when it fails itself, and raises RuntimeError when a child exits non-zero.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import time
from dataclasses import dataclass, replace
from enum import Enum
from multiprocessing.connection import Connection
from typing import Iterator, Optional, Union

from .clusterer import (
    ClusterConfig,
    ClusterSet,
    Feasibility,
    NoSolutionFoundError,
    binary_search_clusters,
    cluster_order,
    recursive_dbscan,
)
from .geo import may_fork, place_on, usable_cpus
from .model import (
    ProblemInstance,
    Route,
    RoutePlan,
    StopVisit,
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
    instance: ProblemInstance, members: list[int], vehicle_ids: list[int], params: SolverParams
) -> _SubSolve:
    """Solve one cluster against the given vehicles as a dense-id instance:
    ids 1.. go to the sorted members and to the sorted vehicles.  A waypoint
    or vehicle whose id does not change is the instance's own object."""
    waypoints = tuple(
        w if w.id == new_id else replace(w, id=new_id)
        for new_id, w in enumerate((instance.waypoints[idx] for idx in sorted(members)), start=1)
    )
    vehicles = tuple(
        v if v.id == new_id else replace(v, id=new_id)
        for new_id, v in enumerate(map(instance.vehicle, sorted(vehicle_ids)), start=1)
    )
    sub = ProblemInstance(instance.depot, waypoints, vehicles, instance.travel)
    try:
        return solve_cvrptw(sub, params)
    except InfeasibleError as exc:
        return exc


# A sub-solve's plan, or why it was infeasible.
_SubSolve = Union[RoutePlan, InfeasibleError]

# Bytes per cluster index on the pre-solve task pipe.
_INDEX_BYTES = 4


def _presolve_child(
    instance: ProblemInstance,
    members: list[list[int]],
    params: SolverParams,
    cpu: int,
    source: Connection,
    feed: Connection,
    out: Connection,
) -> None:
    """Pre-solve the clusters whose indices this child reads from the task
    pipe, each against the whole fleet, and send [(index, outcome), ...]
    once the pipe is drained.  The parent writes whole indices, and a pipe
    read holds the pipe's lock, so each read takes one whole index."""
    feed.close()  # the pipe ends once the parent closes its write end
    place_on(cpu)
    fleet = [v.id for v in instance.vehicles]
    outcomes = []
    while record := os.read(source.fileno(), _INDEX_BYTES):
        index = int.from_bytes(record, "little")
        outcomes.append((index, _sub_solve(instance, members[index], fleet, params)))
    out.send(outcomes)


def _presolve(
    instance: ProblemInstance, members: list[list[int]], params: SolverParams, workers: int
) -> list[_SubSolve]:
    """Every cluster's outcome against the whole fleet, from `workers`
    forked children; see the module docstring."""
    context = multiprocessing.get_context("fork")
    cpus = sorted(os.sched_getaffinity(0))
    outcomes: list[_SubSolve] = [None] * len(members)
    children: list[tuple[multiprocessing.Process, Connection]] = []
    source, feed = context.Pipe(duplex=False)
    try:
        for k in range(workers):
            reader, writer = context.Pipe(duplex=False)
            child = context.Process(
                target=_presolve_child,
                args=(instance, members, params, cpus[k], source, feed, writer),
                daemon=True,
            )
            child.start()
            writer.close()
            children.append((child, reader))
        source.close()
        tasks = memoryview(b"".join(i.to_bytes(_INDEX_BYTES, "little") for i in range(len(members))))
        while tasks:
            tasks = tasks[os.write(feed.fileno(), tasks) :]
        feed.close()
        for child, reader in children:
            try:
                for index, outcome in reader.recv():
                    outcomes[index] = outcome
            except EOFError:  # the child exited without sending
                pass
            child.join()
    finally:
        source.close()
        feed.close()
        for child, reader in children:
            reader.close()
            if child.exitcode is None:
                child.terminate()
                child.join()
    for k, (child, _) in enumerate(children):
        if child.exitcode != 0:
            raise RuntimeError(f"pre-solve child {k} of {workers} exited with code {child.exitcode}")
    return outcomes


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
    """Solve each list of waypoint indices, in order, against the shared pool.

    With more than one usable CPU and more than one list, the lists are
    pre-solved in forked children first; see the module docstring for why
    the plan does not depend on it.  One list is solved in process, where
    the matrix fill (geo.pairwise_meters) uses the usable CPUs instead.
    """
    workers = min(usable_cpus(), len(members))
    if workers <= 1 or not may_fork():
        return _assign_vehicles(instance, members, params, itertools.repeat(None))
    return _assign_vehicles(instance, members, params, iter(_presolve(instance, members, params, workers)))


def _assign_vehicles(
    instance: ProblemInstance,
    members: list[list[int]],
    params: SolverParams,
    presolved: Iterator[Optional[_SubSolve]],
) -> RoutePlan:
    """The in-order loop: the only place that turns sub-solves into routes,
    vehicles taken from the pool, or an error.

    `presolved` yields, per cluster, its outcome against the whole fleet or
    None.  An outcome is kept when the vehicles it depends on (1..max busy,
    or the whole fleet for an infeasible solve) are matched in capacity by
    the first free vehicles; otherwise the cluster is solved here.
    """
    fleet_capacities = [v.capacity for v in instance.vehicles]
    free = [v.id for v in instance.vehicles]
    routes: list[Route] = []
    for cluster_members in members:
        size = len(cluster_members)
        if not free:
            raise NoSolutionFoundError(f"vehicle pool exhausted before cluster of size {size}")
        outcome = next(presolved)
        if outcome is not None:
            if isinstance(outcome, InfeasibleError):
                used = len(fleet_capacities)
            else:
                used = max(outcome.busy_vehicles, default=0)
            if [instance.vehicle(v).capacity for v in free[:used]] != fleet_capacities[:used]:
                outcome = None
        if outcome is None:
            outcome = _sub_solve(instance, cluster_members, free, params)
        # original ids by sub-instance id - 1, as _sub_solve numbers them
        wp_back = [instance.waypoints[i].id for i in sorted(cluster_members)]
        if isinstance(outcome, InfeasibleError):
            unassigned = InfeasibleError(tuple(wp_back[w - 1] for w in outcome.unassigned))
            raise NoSolutionFoundError(
                f"sub-solve infeasible for cluster of size {size}: {unassigned}"
            ) from outcome
        veh_back = sorted(free)
        for sub_route in outcome.routes:
            stops = tuple(
                StopVisit(wp_back[s.waypoint_id - 1], s.arrival_time, s.departure_time)
                for s in sub_route.stops
            )
            routes.append(Route(veh_back[sub_route.vehicle_id - 1], sub_route.depot_pickup_time, stops))
        busy_original = {veh_back[b - 1] for b in outcome.busy_vehicles}
        free = [v for v in free if v not in busy_original]
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
    solve, made on the plan merged over every cluster.
    """
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
