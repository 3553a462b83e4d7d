"""Synthetic instance generation and the three-way benchmark harness.

Instances are drawn from a mixture of Gaussian density blobs inside one
fixed Hong-Kong-sized box (LAT_MIN..LAT_MAX, LON_MIN..LON_MAX), so the
clustering strategies have real spatial structure to find.  The harness
runs the (size, repetition) cells one after another, every strategy on
the cell's one instance, and writes the wide comparison CSV plus GeoJSON
for route inspection; nothing here reads a CSV back.  _run
holds the one failure rule, fenced or not: a run that finds no plan
becomes a no_solution record, a MemoryError or a breached budget fence a
crashed_budget record, and any other exception propagates.  Sizes must
not repeat.
"""

from __future__ import annotations

import csv
import functools
import math
import json
import os
import signal
import time
import traceback
from dataclasses import dataclass, replace
from enum import Enum
from typing import Iterable, Optional, Sequence

import numpy as np

from .clusterer import ClusterConfig, NoSolutionFoundError
from .geo import GeoPoint, fork_join, haversine_distance
from .model import (
    Depot,
    ProblemInstance,
    RoutePlan,
    TimeWindow,
    TravelModel,
    Vehicle,
    Waypoint,
    plan_to_dict,
)
from .pipeline import Strategy, run_strategy
from .solver import SolverParams

SPEED_MPS = 10.0
HORIZON_S = 43_200  # 12 h planning day
# the bounding box, in degrees, that holds every generated waypoint
LAT_MIN, LAT_MAX = 22.15, 22.55
LON_MIN, LON_MAX = 113.85, 114.35

# blob scattering: centres at least this far apart (degrees), spreads kept
# small enough that neighbouring blobs stay separable
_MIN_CENTER_SEP_DEG = 0.06
_CENTER_MARGIN_DEG = 0.03
_SIGMA_RANGE_DEG = (0.004, 0.009)


class WindowStyle(str, Enum):
    WIDE = "wide"
    MIXED = "mixed"


@dataclass(frozen=True, kw_only=True)
class GeneratorConfig:
    n_waypoints: int
    seed: int = 0
    demand_range: tuple[int, int] = (1, 4)
    window_style: WindowStyle = WindowStyle.WIDE
    fleet_size: Optional[int] = None  # None -> max(1, n // 10)
    vehicle_capacity: int = 30

    def __post_init__(self):
        if self.n_waypoints < 1:
            raise ValueError("n_waypoints must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        lo, hi = self.demand_range
        if not 1 <= lo <= hi:
            raise ValueError(f"bad demand_range {self.demand_range}")
        if self.fleet_size is not None and self.fleet_size < 1:
            raise ValueError("fleet_size must be >= 1")
        if self.vehicle_capacity < 1:
            raise ValueError("vehicle_capacity must be >= 1")
        if hi > self.vehicle_capacity:
            raise ValueError(f"demand_range {self.demand_range} exceeds vehicle_capacity {self.vehicle_capacity}")


def _scatter_centers(rng: np.random.Generator, k: int) -> np.ndarray:
    """Blob centres, rejection-sampled to keep a minimum pairwise spacing."""
    lat_lo = LAT_MIN + _CENTER_MARGIN_DEG
    lat_hi = LAT_MAX - _CENTER_MARGIN_DEG
    lon_lo = LON_MIN + _CENTER_MARGIN_DEG
    lon_hi = LON_MAX - _CENTER_MARGIN_DEG
    centers: list[tuple[float, float]] = []
    for _ in range(k):
        placed = None
        for _attempt in range(400):
            cand = (float(rng.uniform(lat_lo, lat_hi)), float(rng.uniform(lon_lo, lon_hi)))
            if all(math.hypot(cand[0] - c[0], cand[1] - c[1]) >= _MIN_CENTER_SEP_DEG for c in centers):
                placed = cand
                break
        centers.append(placed if placed is not None else cand)
    return np.array(centers)


def generate_instance(config: GeneratorConfig) -> ProblemInstance:
    """Deterministic synthetic instance: Gaussian blobs, depot at the centre of the box."""
    rng = np.random.default_rng(config.seed)
    n = config.n_waypoints
    # blob count grows with n so no single blob can exceed the usual size cap
    k_lo = max(5, min(15, math.ceil(n / 350)))
    k = int(rng.integers(k_lo, 16))
    centers = _scatter_centers(rng, k)
    sigma = rng.uniform(_SIGMA_RANGE_DEG[0], _SIGMA_RANGE_DEG[1], k)
    which = rng.integers(0, k, n)
    lat = np.clip(centers[which, 0] + rng.normal(0.0, sigma[which]), LAT_MIN, LAT_MAX)
    lon = np.clip(centers[which, 1] + rng.normal(0.0, sigma[which]), LON_MIN, LON_MAX)
    lo, hi = config.demand_range
    demand = rng.integers(lo, hi + 1, n)

    depot_loc = GeoPoint((LAT_MIN + LAT_MAX) / 2.0, (LON_MIN + LON_MAX) / 2.0)
    depot = Depot(location=depot_loc, window=TimeWindow(0, HORIZON_S))

    if config.window_style is WindowStyle.WIDE:
        starts = np.zeros(n, dtype=np.int64)
        ends = np.full(n, HORIZON_S, dtype=np.int64)
    else:
        lengths = rng.integers(7_200, 21_601, n)  # 2-6 h
        starts = rng.integers(0, HORIZON_S - lengths + 1)
        # keep every window reachable from the depot at SPEED_MPS
        t0 = np.array(
            [math.ceil(haversine_distance(depot_loc, GeoPoint(float(lat[i]), float(lon[i]))) / SPEED_MPS) for i in range(n)],
            dtype=np.int64,
        )
        starts = np.maximum(starts, t0 + 60 - lengths)
        starts = np.maximum(starts, 0)
        ends = starts + lengths

    waypoints = tuple(
        Waypoint(
            id=i + 1,
            location=GeoPoint(float(lat[i]), float(lon[i])),
            demand=int(demand[i]),
            window=TimeWindow(int(starts[i]), int(ends[i])),
        )
        for i in range(n)
    )
    m = config.fleet_size if config.fleet_size is not None else max(1, n // 10)
    fleet = tuple(Vehicle(id=j + 1, capacity=config.vehicle_capacity) for j in range(m))
    return ProblemInstance(depot=depot, waypoints=waypoints, vehicles=fleet, travel=TravelModel(SPEED_MPS))


class RunStatus(str, Enum):
    OK = "ok"
    NO_SOLUTION = "no_solution"
    CRASHED_BUDGET = "crashed_budget"


@dataclass(frozen=True)
class BenchRecord:
    n_waypoints: int
    strategy: Strategy
    repetition_index: int
    runtime_s: Optional[float]
    distance_m: Optional[int]
    busy_vehicles: Optional[int]
    status: RunStatus


@dataclass(frozen=True)
class BudgetConfig:
    """Per-run ceiling; breaching it yields a CRASHED_BUDGET record."""

    memory_mb: int = 4096
    wall_s: float = 900.0

    def __post_init__(self) -> None:
        if self.memory_mb < 1:
            raise ValueError("memory_mb must be >= 1")
        if not 0.0 < self.wall_s < math.inf:
            raise ValueError("wall_s must be positive and finite")


DEFAULT_SIZES = (100, 250, 500, 1000)
DEFAULT_REPS = 5
_BASE_SEED = 1729


def _cell_seed(base_seed: int, n: int, rep: int) -> int:
    return base_seed + n * 10_000 + rep


def _run(instance, strategy, cluster_config, params):
    """One run in this process: (status, runtime_s, PipelineResult or None).
    NoSolutionFoundError is NO_SOLUTION, timed by run_strategy as an OK run
    is; MemoryError is CRASHED_BUDGET; any other exception propagates."""
    started = time.perf_counter()
    try:
        result = run_strategy(instance, strategy, cluster_config=cluster_config, params=params)
    except NoSolutionFoundError as exc:
        return RunStatus.NO_SOLUTION, exc.wall_time_ms / 1000.0, None
    except MemoryError:
        return RunStatus.CRASHED_BUDGET, time.perf_counter() - started, None
    return RunStatus.OK, result.wall_time_ms / 1000.0, result


def _fenced(instance, strategy, cluster_config, params, memory_mb: int, deadline: float):
    """_run in the fenced child, under an address-space limit of memory_mb
    and a timer that ends the process at `deadline`, a time.perf_counter()
    reading (a system-wide clock on Linux).  An exception that _run raises
    is returned, so that the parent can raise it.

    SIGALRM goes back to its default action, which ends the process, so that
    a handler inherited from the harness cannot swallow the timer.  The
    timer is disarmed before the outcome is sent."""
    import resource

    signal.signal(signal.SIGALRM, signal.SIG_DFL)
    resource.setrlimit(resource.RLIMIT_AS, (memory_mb << 20, memory_mb << 20))
    # A timer of 0 would be no timer.
    signal.setitimer(signal.ITIMER_REAL, max(deadline - time.perf_counter(), 1e-6))
    try:
        return _run(instance, strategy, cluster_config, params)
    except Exception as exc:
        traceback.print_exc()  # the parent raises exc without the child's frames
        return exc
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


def _run_budgeted(instance, strategy, cluster_config, params, budget: BudgetConfig):
    """_run in a child of geo.fork_join that enforces its own limits; this
    process only waits.  The child is daemonic, so the solve forks no
    children: the limits fence one process.  A child that ends without an
    outcome (its timer fired, or it was killed) is a CRASHED_BUDGET run; an
    exception it sends back is raised here.  The wall budget counts from
    here, so that the fork is part of it."""
    started = time.perf_counter()
    job = functools.partial(_fenced, instance, strategy, cluster_config, params, budget.memory_mb, started + budget.wall_s)
    try:
        [outcome] = fork_join(lambda: None, [("the fenced run", None, job)])
    except RuntimeError:
        return RunStatus.CRASHED_BUDGET, time.perf_counter() - started, None
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def run_benchmark(
    sizes: Sequence[int] = DEFAULT_SIZES,
    repetitions: int = DEFAULT_REPS,
    strategies: Sequence[Strategy] = tuple(Strategy),
    *,
    base_seed: int = _BASE_SEED,
    generator: Optional[GeneratorConfig] = None,
    cluster_config: Optional[ClusterConfig] = None,
    params: Optional[SolverParams] = None,
    budget: Optional[BudgetConfig] = None,
    archive_dir: Optional[str] = None,
) -> list[BenchRecord]:
    """Run the strategy comparison grid, one run after another; records come
    in the order they are made: by size as given, then repetition, then
    strategy.

    Each (size, repetition) cell generates one seeded instance and runs every
    requested strategy on it, so per-cell deltas are paired.  `generator`
    supplies non-default knobs (windows, demand range, capacity); its
    n_waypoints and seed fields are overridden per cell.  A run that finds
    no plan is a NO_SOLUTION record, a MemoryError or a breached `budget` a
    CRASHED_BUDGET record; any other exception propagates, fenced or not.
    An empty grid, repeated sizes or strategies, an unknown strategy value
    and a negative base seed raise ValueError.
    """
    strategies = [Strategy(s) for s in strategies]
    if not sizes or not strategies or repetitions < 1:
        raise ValueError(f"empty grid: {len(sizes)} sizes, {len(strategies)} strategies, {repetitions} repetitions")
    if len(set(sizes)) != len(sizes):
        raise ValueError(f"sizes must not repeat, got {list(sizes)}")
    if len(set(strategies)) != len(strategies):
        raise ValueError(f"strategies must not repeat, got {[s.value for s in strategies]}")
    if base_seed < 0:
        raise ValueError(f"base_seed must be >= 0, got {base_seed}")
    if archive_dir is not None:
        os.makedirs(archive_dir, exist_ok=True)
    template = generator or GeneratorConfig(n_waypoints=1)
    run = _run if budget is None else functools.partial(_run_budgeted, budget=budget)
    records = []
    for n in sizes:
        for rep in range(repetitions):
            instance = generate_instance(replace(template, n_waypoints=n, seed=_cell_seed(base_seed, n, rep)))
            for strategy in strategies:
                status, runtime_s, result = run(instance, strategy, cluster_config, params)
                if result is not None and archive_dir is not None:
                    path = os.path.join(archive_dir, f"plan_{n:05d}_r{rep:02d}_{strategy.value}.json")
                    try:
                        with open(path, "w", encoding="utf-8") as fh:
                            json.dump(plan_to_dict(result.plan), fh)
                    except OSError as exc:
                        raise OSError(f"cannot archive plan to {path}: {exc}") from exc
                records.append(
                    BenchRecord(
                        n_waypoints=n,
                        strategy=strategy,
                        repetition_index=rep,
                        runtime_s=round(runtime_s, 6),
                        distance_m=None if result is None else int(result.total_distance),
                        busy_vehicles=None if result is None else result.busy_vehicle_count,
                        status=status,
                    )
                )
    return records


_CSV_STRATEGY_SUFFIX = {
    Strategy.MONOLITHIC: "monolithic",
    Strategy.DBSCAN: "dbscan",
    Strategy.RECURSIVE_DBSCAN: "recursive",
}
# (CSV column prefix, BenchRecord field, summarise key, digits of its mean)
_METRICS = (
    ("runtime", "runtime_s", "mean_runtime_s", 3),
    ("distance", "distance_m", "mean_distance_m", 1),
    ("cars", "busy_vehicles", "mean_cars", 2),
)
CSV_COLUMNS = ["wps"] + [f"{prefix}_{suffix}" for prefix, *_ in _METRICS for suffix in _CSV_STRATEGY_SUFFIX.values()]


def export_csv(records: Iterable[BenchRecord], path: str) -> None:
    """Wide CSV, one row per (size, repetition); missing strategy cells are `-`."""
    by_cell: dict[tuple[int, int], dict[Strategy, BenchRecord]] = {}
    for record in records:
        by_cell.setdefault((record.n_waypoints, record.repetition_index), {})[record.strategy] = record
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(CSV_COLUMNS)
            for (n, _rep), cell in by_cell.items():
                row = [str(n)]
                for prefix, field_name, _key, _digits in _METRICS:
                    for strategy in _CSV_STRATEGY_SUFFIX:
                        record = cell.get(strategy)
                        if record is None or record.status is not RunStatus.OK:
                            row.append("-")
                        else:
                            value = getattr(record, field_name)
                            row.append(f"{value:.6f}" if prefix == "runtime" else str(value))
                writer.writerow(row)
    except OSError as exc:
        raise OSError(f"cannot write results to {path}: {exc}") from exc


def _mean(records: list[BenchRecord], field_name: str) -> float:
    return sum(getattr(r, field_name) for r in records) / len(records)


def summarise(records: Iterable[BenchRecord]) -> list[dict]:
    """Per (size, strategy) means over OK runs, with deltas vs the monolithic baseline."""
    groups: dict[tuple[int, Strategy], list[BenchRecord]] = {}
    for record in records:
        groups.setdefault((record.n_waypoints, record.strategy), []).append(record)
    out = []
    for n in sorted({n for n, _ in groups}):
        baseline = [r for r in groups.get((n, Strategy.MONOLITHIC), []) if r.status is RunStatus.OK]
        for strategy in Strategy:
            cell = groups.get((n, strategy))
            if cell is None:
                continue
            ok = [r for r in cell if r.status is RunStatus.OK]
            row = {"wps": n, "strategy": strategy.value, "runs": len(cell), "ok": len(ok)}
            for _prefix, field_name, key, digits in _METRICS:
                row[key] = round(_mean(ok, field_name), digits) if ok else None
            for prefix, field_name, key, _digits in _METRICS:
                base = _mean(baseline, field_name) if baseline else 0
                paired = strategy is not Strategy.MONOLITHIC and ok and base
                row[f"{prefix}_delta_pct"] = round((row[key] / base - 1.0) * 100.0, 1) if paired else None
            out.append(row)
    return out


def export_geojson(plan: RoutePlan, instance: ProblemInstance, path: str) -> None:
    """FeatureCollection: depot and waypoint Points plus one LineString per route."""
    features: list[dict] = []
    depot = instance.depot
    features.append(
        {
            "type": "Feature",
            "geometry": {"type": "Point", "coordinates": [depot.location.lon, depot.location.lat]},
            "properties": {"kind": "depot", "window": [depot.window.earliest, depot.window.latest]},
        }
    )
    for wp in instance.waypoints:
        features.append(
            {
                "type": "Feature",
                "geometry": {"type": "Point", "coordinates": [wp.location.lon, wp.location.lat]},
                "properties": {
                    "kind": "waypoint",
                    "id": wp.id,
                    "demand": wp.demand,
                    "window": [wp.window.earliest, wp.window.latest],
                },
            }
        )
    for route in plan.routes:
        if not route.stops:  # a 1-point LineString is not valid GeoJSON
            continue
        coords = [[depot.location.lon, depot.location.lat]]
        for stop in route.stops:
            loc = instance.waypoint(stop.waypoint_id).location
            coords.append([loc.lon, loc.lat])
        features.append(
            {
                "type": "Feature",
                "geometry": {"type": "LineString", "coordinates": coords},
                "properties": {"kind": "route", "vehicle": route.vehicle_id, "stops": list(route.stop_ids)},
            }
        )
    doc = {"type": "FeatureCollection", "features": features}
    try:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
    except OSError as exc:
        raise OSError(f"cannot write GeoJSON to {path}: {exc}") from exc
