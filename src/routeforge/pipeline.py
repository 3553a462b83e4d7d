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
is solved again in order against the free pool, so plans and errors are the
same on any number of CPUs.

Each pool worker starts on a CPU of its own: it takes one CPU of the usable
set from a queue, sets its affinity to that CPU alone, then restores the
set it inherited.  Left to the scheduler, both workers of a two-CPU pool
can share one CPU for a whole pool phase; restoring the set still lets the
scheduler move a worker off a CPU that another process keeps busy.  Where
the affinity calls fail, the worker runs where it started.  A solve that
succeeds closes the pool and joins its workers, so every worker has run its
initializer before the solve returns; a failed solve terminates the pool.
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import time
from dataclasses import dataclass, replace
from enum import Enum
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
    ids 1.. go to the sorted members and to the sorted vehicles."""
    waypoints = tuple(
        replace(instance.waypoints[idx], id=new_id)
        for new_id, idx in enumerate(sorted(members), start=1)
    )
    vehicles = tuple(
        replace(instance.vehicle(original_id), id=new_id)
        for new_id, original_id in enumerate(sorted(vehicle_ids), start=1)
    )
    sub = ProblemInstance(instance.depot, waypoints, vehicles, instance.travel)
    try:
        return solve_cvrptw(sub, params)
    except InfeasibleError as exc:
        return exc


def _worker_cap(requested: int) -> int:
    """Cap a worker count by the ROUTE_FORGE_THREADS environment variable."""
    cap = os.environ.get("ROUTE_FORGE_THREADS")
    if cap:
        try:
            requested = min(requested, max(1, int(cap)))
        except ValueError:
            pass
    return max(1, requested)


def _usable_cpus() -> int:
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no CPU affinity, and no safe fork (macOS, Windows)
        return 1
    return _worker_cap(cpus)


# A sub-solve's plan, or why it was infeasible.
_SubSolve = Union[RoutePlan, InfeasibleError]

# What a pool worker pre-solves: the instance, the cluster members in solve
# order and the solver settings.  Only pool workers set it.  The fork start
# method hands these to the workers without pickling or re-importing, which
# spawn would need per worker; the package itself starts no threads that a
# fork could catch mid-update.
_presolve_job: Optional[tuple[ProblemInstance, list[list[int]], SolverParams]] = None


def _presolve_init(
    instance: ProblemInstance,
    members: list[list[int]],
    params: SolverParams,
    cpus: multiprocessing.queues.SimpleQueue,
) -> None:
    global _presolve_job
    _presolve_job = (instance, members, params)
    # Placed, not pinned: see the module docstring.
    cpu = cpus.get()
    try:
        inherited = os.sched_getaffinity(0)
        os.sched_setaffinity(0, {cpu})
        os.sched_setaffinity(0, inherited)
    except OSError:
        pass


def _presolve(index: int) -> _SubSolve:
    """Solve the index-th cluster in solve order against the whole fleet."""
    instance, members, params = _presolve_job
    return _sub_solve(instance, members[index], [v.id for v in instance.vehicles], params)


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
    pre-solved in a process pool; see the module docstring for why the plan
    does not depend on it.
    """
    workers = min(_usable_cpus(), len(members))
    # A daemonic process (a multiprocessing.Pool worker) may not start children.
    if workers <= 1 or multiprocessing.current_process().daemon:
        return _assign_vehicles(instance, members, params, itertools.repeat(None))
    context = multiprocessing.get_context("fork")
    cpus = context.SimpleQueue()
    for cpu in sorted(os.sched_getaffinity(0))[:workers]:
        cpus.put(cpu)
    pool = context.Pool(workers, _presolve_init, (instance, members, params, cpus))
    try:
        plan = _assign_vehicles(instance, members, params, pool.imap(_presolve, range(len(members))))
    except BaseException:
        # A failed solve does not wait for the pre-solves still running.
        pool.terminate()
        raise
    else:
        # Every task has been taken; each worker exits on its own.
        pool.close()
        pool.join()
    finally:
        cpus.close()
    return plan


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
