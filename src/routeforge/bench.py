"""Synthetic instance generation and the three-way benchmark harness.

Instances are drawn from a mixture of Gaussian density blobs inside a
Hong-Kong-sized bounding box, so the clustering strategies have real
spatial structure to find.  The harness runs each (size, repetition)
cell on one shared instance per strategy, converts failures into
records instead of exceptions, and exports the wide comparison CSV
plus GeoJSON for route inspection.
"""

from __future__ import annotations

import csv
import functools
import math
import json
import os
import time
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Optional, Sequence

import numpy as np

from .clusterer import ClusterConfig, NoSolutionFoundError
from .geo import GeoPoint, haversine_distance
from .geo import worker_cap as _worker_cap
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

# blob scattering: centres at least this far apart (degrees), spreads kept
# small enough that neighbouring blobs stay separable
_MIN_CENTER_SEP_DEG = 0.06
_CENTER_MARGIN_DEG = 0.03
_SIGMA_RANGE_DEG = (0.004, 0.009)


class WindowStyle(str, Enum):
    WIDE = "wide"
    MIXED = "mixed"


@dataclass(frozen=True)
class Region:
    """Bounding box in degrees."""

    lat_min: float = 22.15
    lat_max: float = 22.55
    lon_min: float = 113.85
    lon_max: float = 114.35

    def centroid(self) -> GeoPoint:
        return GeoPoint((self.lat_min + self.lat_max) / 2.0, (self.lon_min + self.lon_max) / 2.0)


@dataclass(frozen=True)
class GeneratorConfig:
    n_waypoints: int
    seed: int = 0
    region: Region = field(default_factory=Region)
    demand_range: tuple[int, int] = (1, 4)
    window_style: WindowStyle = WindowStyle.WIDE
    fleet_size: Optional[int] = None  # None -> max(1, n // 10)
    vehicle_capacity: int = 30

    def __post_init__(self):
        if self.n_waypoints < 1:
            raise ValueError("n_waypoints must be >= 1")
        lo, hi = self.demand_range
        if not 1 <= lo <= hi:
            raise ValueError(f"bad demand_range {self.demand_range}")
        if self.fleet_size is not None and self.fleet_size < 1:
            raise ValueError("fleet_size must be >= 1")
        if self.vehicle_capacity < 1:
            raise ValueError("vehicle_capacity must be >= 1")


def _scatter_centers(rng: np.random.Generator, k: int, region: Region) -> np.ndarray:
    """Blob centres, rejection-sampled to keep a minimum pairwise spacing."""
    lat_lo = region.lat_min + _CENTER_MARGIN_DEG
    lat_hi = region.lat_max - _CENTER_MARGIN_DEG
    lon_lo = region.lon_min + _CENTER_MARGIN_DEG
    lon_hi = region.lon_max - _CENTER_MARGIN_DEG
    if lat_lo >= lat_hi or lon_lo >= lon_hi:  # degenerate custom region
        lat_lo, lat_hi = region.lat_min, region.lat_max
        lon_lo, lon_hi = region.lon_min, region.lon_max
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
    """Deterministic synthetic instance: Gaussian blobs, depot at region centroid."""
    rng = np.random.default_rng(config.seed)
    n = config.n_waypoints
    region = config.region
    # blob count grows with n so no single blob can exceed the usual size cap
    k_lo = max(5, min(15, math.ceil(n / 350)))
    k = int(rng.integers(k_lo, 16))
    centers = _scatter_centers(rng, k, region)
    sigma = rng.uniform(_SIGMA_RANGE_DEG[0], _SIGMA_RANGE_DEG[1], k)
    which = rng.integers(0, k, n)
    lat = np.clip(centers[which, 0] + rng.normal(0.0, sigma[which]), region.lat_min, region.lat_max)
    lon = np.clip(centers[which, 1] + rng.normal(0.0, sigma[which]), region.lon_min, region.lon_max)
    lo, hi = config.demand_range
    demand = rng.integers(lo, hi + 1, n)

    depot_loc = region.centroid()
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


DEFAULT_SIZES = (100, 250, 500, 1000)
DEFAULT_REPS = 5
FULL_SIZES = tuple(range(500, 5001, 500))
FULL_REPS = 15
_BASE_SEED = 1729


def _cell_seed(base_seed: int, n: int, rep: int) -> int:
    return base_seed + n * 10_000 + rep


def _run_inprocess(instance, strategy, cluster_config, params):
    started = time.perf_counter()
    try:
        result = run_strategy(instance, strategy, cluster_config=cluster_config, params=params)
    except NoSolutionFoundError:
        return RunStatus.NO_SOLUTION, time.perf_counter() - started, None, None, None
    except MemoryError:
        return RunStatus.CRASHED_BUDGET, time.perf_counter() - started, None, None, None
    return (
        RunStatus.OK,
        result.wall_time_ms / 1000.0,
        result.total_distance,
        result.busy_vehicle_count,
        plan_to_dict(result.plan),
    )


def _budget_child(conn, instance, strategy, cluster_config, params, memory_mb):
    import resource

    limit = memory_mb << 20
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
    try:
        status, runtime_s, dist, busy, doc = _run_inprocess(instance, strategy, cluster_config, params)
        conn.send((status.value, runtime_s, dist, busy, doc))
    except MemoryError:
        conn.send((RunStatus.CRASHED_BUDGET.value, None, None, None, None))
    finally:
        conn.close()


def _run_budgeted(instance, strategy, cluster_config, params, budget: BudgetConfig):
    import multiprocessing as mp

    ctx = mp.get_context("fork")
    parent_conn, child_conn = ctx.Pipe(duplex=False)
    # Daemonic, so the solve forks no children: the limits fence one process,
    # and terminating it leaves nothing behind.
    proc = ctx.Process(
        target=_budget_child,
        args=(child_conn, instance, strategy, cluster_config, params, budget.memory_mb),
        daemon=True,
    )
    started = time.perf_counter()
    proc.start()
    child_conn.close()
    payload = None
    if parent_conn.poll(budget.wall_s):
        try:
            payload = parent_conn.recv()
        except EOFError:  # child died mid-send or without sending
            payload = None
    else:
        proc.terminate()
    proc.join()
    parent_conn.close()
    elapsed = time.perf_counter() - started
    if payload is None:  # timeout, OOM kill, or abnormal exit
        return RunStatus.CRASHED_BUDGET, elapsed, None, None, None
    status, runtime_s, dist, busy, doc = payload
    return RunStatus(status), runtime_s if runtime_s is not None else elapsed, dist, busy, doc


def _archive_path(archive_dir: str, n: int, rep: int, strategy: Strategy) -> str:
    return os.path.join(archive_dir, f"plan_{n:05d}_r{rep:02d}_{strategy.value}.json")


def _run_cell(
    n: int,
    rep: int,
    base_seed: int,
    template: Optional[GeneratorConfig],
    strategies: Sequence[Strategy],
    cluster_config: Optional[ClusterConfig],
    params: Optional[SolverParams],
    budget: Optional[BudgetConfig],
    archive_dir: Optional[str],
) -> list[BenchRecord]:
    seed = _cell_seed(base_seed, n, rep)
    if template is None:
        config = GeneratorConfig(n_waypoints=n, seed=seed)
    else:
        from dataclasses import replace

        config = replace(template, n_waypoints=n, seed=seed)
    instance = generate_instance(config)
    records = []
    for strategy in strategies:
        if budget is None:
            status, runtime_s, dist, busy, doc = _run_inprocess(instance, strategy, cluster_config, params)
        else:
            status, runtime_s, dist, busy, doc = _run_budgeted(instance, strategy, cluster_config, params, budget)
        if status is RunStatus.OK and archive_dir is not None and doc is not None:
            path = _archive_path(archive_dir, n, rep, strategy)
            try:
                with open(path, "w", encoding="utf-8") as fh:
                    json.dump(doc, fh)
            except OSError as exc:
                raise OSError(f"cannot archive plan to {path}: {exc}") from exc
        records.append(
            BenchRecord(
                n_waypoints=n,
                strategy=strategy,
                repetition_index=rep,
                runtime_s=round(runtime_s, 6) if runtime_s is not None else None,
                distance_m=int(dist) if dist is not None else None,
                busy_vehicles=busy,
                status=status,
            )
        )
    return records


def _solve_in_process() -> None:
    """Bench workers already fill the CPUs, so their solves fork no children."""
    os.environ["ROUTE_FORGE_THREADS"] = "1"


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
    workers: int = 1,
) -> list[BenchRecord]:
    """Run the strategy comparison grid; failures become records, never raises.

    Each (size, repetition) cell generates one seeded instance and runs every
    requested strategy on it, so per-cell deltas are paired.  `generator`
    supplies non-default knobs (windows, demand range, capacity); its
    n_waypoints and seed fields are overridden per cell.
    """
    if archive_dir is not None:
        os.makedirs(archive_dir, exist_ok=True)
    cells = [(n, rep) for n in sizes for rep in range(repetitions)]
    workers = _worker_cap(workers)
    run_one = functools.partial(
        _run_cell,
        base_seed=base_seed,
        template=generator,
        strategies=tuple(strategies),
        cluster_config=cluster_config,
        params=params,
        budget=budget,
        archive_dir=archive_dir,
    )
    if workers <= 1 or len(cells) <= 1:
        batches = [run_one(n, rep) for n, rep in cells]
    else:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers, initializer=_solve_in_process) as pool:
            batches = list(pool.map(run_one, *zip(*cells)))
    records = [record for batch in batches for record in batch]
    order = {s: i for i, s in enumerate(strategies)}
    size_order = {n: i for i, n in enumerate(sizes)}
    records.sort(key=lambda r: (size_order[r.n_waypoints], r.repetition_index, order[r.strategy]))
    return records


_CSV_STRATEGY_SUFFIX = {
    Strategy.MONOLITHIC: "monolithic",
    Strategy.DBSCAN: "dbscan",
    Strategy.RECURSIVE_DBSCAN: "recursive",
}
CSV_COLUMNS = ["wps"] + [
    f"{prefix}_{suffix}"
    for prefix in ("runtime", "distance", "cars")
    for suffix in ("monolithic", "dbscan", "recursive")
]


def export_csv(records: Iterable[BenchRecord], path: str) -> None:
    """Wide CSV, one row per (size, repetition); missing strategy cells are `-`."""
    by_cell: dict[tuple[int, int], dict[str, BenchRecord]] = {}
    cell_order: list[tuple[int, int]] = []
    for record in records:
        key = (record.n_waypoints, record.repetition_index)
        if key not in by_cell:
            by_cell[key] = {}
            cell_order.append(key)
        by_cell[key][_CSV_STRATEGY_SUFFIX[record.strategy]] = record
    try:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(CSV_COLUMNS)
            for key in cell_order:
                n, _rep = key
                row = [str(n)]
                for prefix in ("runtime", "distance", "cars"):
                    for suffix in ("monolithic", "dbscan", "recursive"):
                        record = by_cell[key].get(suffix)
                        if record is None or record.status is not RunStatus.OK:
                            row.append("-")
                        elif prefix == "runtime":
                            row.append(f"{record.runtime_s:.6f}")
                        elif prefix == "distance":
                            row.append(str(record.distance_m))
                        else:
                            row.append(str(record.busy_vehicles))
                writer.writerow(row)
    except OSError as exc:
        raise OSError(f"cannot write results to {path}: {exc}") from exc


def parse_csv(path: str) -> list[dict]:
    """Inverse of export_csv; `-` cells come back as None."""
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames != CSV_COLUMNS:
                raise ValueError(f"unexpected columns in {path}: {reader.fieldnames}")
            rows = []
            for raw in reader:
                row: dict = {"wps": int(raw["wps"])}
                for col in CSV_COLUMNS[1:]:
                    value = raw[col]
                    if value == "-":
                        row[col] = None
                    elif col.startswith("runtime"):
                        row[col] = float(value)
                    else:
                        row[col] = int(value)
                rows.append(row)
            return rows
    except OSError as exc:
        raise OSError(f"cannot read results from {path}: {exc}") from exc


def summarise(records: Iterable[BenchRecord]) -> list[dict]:
    """Per (size, strategy) means over OK runs, with deltas vs the monolithic baseline."""
    groups: dict[tuple[int, Strategy], list[BenchRecord]] = {}
    for record in records:
        groups.setdefault((record.n_waypoints, record.strategy), []).append(record)
    sizes = sorted({n for n, _ in groups})
    out = []
    for n in sizes:
        baseline = [r for r in groups.get((n, Strategy.MONOLITHIC), []) if r.status is RunStatus.OK]
        base_runtime = sum(r.runtime_s for r in baseline) / len(baseline) if baseline else None
        base_distance = sum(r.distance_m for r in baseline) / len(baseline) if baseline else None
        base_cars = sum(r.busy_vehicles for r in baseline) / len(baseline) if baseline else None
        for strategy in Strategy:
            cell = groups.get((n, strategy))
            if cell is None:
                continue
            ok = [r for r in cell if r.status is RunStatus.OK]
            row = {
                "wps": n,
                "strategy": strategy.value,
                "runs": len(cell),
                "ok": len(ok),
                "mean_runtime_s": round(sum(r.runtime_s for r in ok) / len(ok), 3) if ok else None,
                "mean_distance_m": round(sum(r.distance_m for r in ok) / len(ok), 1) if ok else None,
                "mean_cars": round(sum(r.busy_vehicles for r in ok) / len(ok), 2) if ok else None,
            }
            for name, base in (("runtime", base_runtime), ("distance", base_distance), ("cars", base_cars)):
                mean = row[f"mean_{name}_s" if name == "runtime" else f"mean_{name}_m" if name == "distance" else "mean_cars"]
                if strategy is Strategy.MONOLITHIC or not ok or base in (None, 0):
                    row[f"{name}_delta_pct"] = None
                else:
                    row[f"{name}_delta_pct"] = round((mean / base - 1.0) * 100.0, 1)
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
