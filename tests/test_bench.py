import csv
import json
import math
import os
import signal
import time

import jsonschema
import pytest

from routeforge.bench import (
    CSV_COLUMNS,
    HORIZON_S,
    LAT_MAX,
    LAT_MIN,
    LON_MAX,
    LON_MIN,
    BenchRecord,
    BudgetConfig,
    GeneratorConfig,
    RunStatus,
    WindowStyle,
    _cell_seed,
    export_csv,
    export_geojson,
    generate_instance,
    run_benchmark,
    summarise,
)
from routeforge import bench, pipeline
from routeforge.clusterer import NoSolutionFoundError
from routeforge.geo import haversine_distance
from routeforge.model import (
    InfeasibleSequenceError,
    instance_to_dict,
    plan_from_dict,
    validate_solution,
)
from routeforge.pipeline import Strategy, run_strategy
from routeforge.solver import SolverParams

FAST = SolverParams(time_limit_ms=100)

GEOJSON_SCHEMA = {
    "type": "object",
    "required": ["type", "features"],
    "properties": {
        "type": {"const": "FeatureCollection"},
        "features": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["type", "geometry", "properties"],
                "properties": {
                    "type": {"const": "Feature"},
                    "geometry": {
                        "type": "object",
                        "required": ["type", "coordinates"],
                        "properties": {"type": {"enum": ["Point", "LineString"]}},
                        "allOf": [
                            {
                                "if": {"properties": {"type": {"const": "Point"}}},
                                "then": {
                                    "properties": {
                                        "coordinates": {
                                            "type": "array",
                                            "minItems": 2,
                                            "maxItems": 2,
                                            "items": {"type": "number"},
                                        }
                                    }
                                },
                            },
                            {
                                "if": {"properties": {"type": {"const": "LineString"}}},
                                "then": {
                                    "properties": {
                                        "coordinates": {
                                            "type": "array",
                                            "minItems": 2,
                                            "items": {
                                                "type": "array",
                                                "minItems": 2,
                                                "maxItems": 2,
                                                "items": {"type": "number"},
                                            },
                                        }
                                    }
                                },
                            },
                        ],
                    },
                    "properties": {"type": "object"},
                },
            },
        },
    },
}


# --- generator ---


def test_generator_config_validation():
    with pytest.raises(ValueError):
        GeneratorConfig(n_waypoints=0)
    with pytest.raises(ValueError):
        GeneratorConfig(n_waypoints=10, demand_range=(0, 3))
    with pytest.raises(ValueError):
        GeneratorConfig(n_waypoints=10, demand_range=(4, 2))
    with pytest.raises(ValueError):
        GeneratorConfig(n_waypoints=10, fleet_size=0)
    with pytest.raises(ValueError):
        GeneratorConfig(n_waypoints=10, vehicle_capacity=0)
    with pytest.raises(ValueError, match="seed must be >= 0"):
        GeneratorConfig(n_waypoints=10, seed=-1)
    with pytest.raises(ValueError, match="exceeds vehicle_capacity"):
        GeneratorConfig(n_waypoints=10, demand_range=(1, 31), vehicle_capacity=30)
    GeneratorConfig(n_waypoints=10, demand_range=(1, 30), vehicle_capacity=30)
    with pytest.raises(TypeError):
        GeneratorConfig(10, 3)  # keyword-only, so an old positional call fails loudly


def test_generator_is_deterministic():
    config = GeneratorConfig(n_waypoints=300, seed=99)
    a = generate_instance(config)
    b = generate_instance(config)
    assert json.dumps(instance_to_dict(a)) == json.dumps(instance_to_dict(b))
    c = generate_instance(GeneratorConfig(n_waypoints=300, seed=100))
    assert instance_to_dict(c) != instance_to_dict(a)


def test_generated_instance_stays_in_bounds():
    config = GeneratorConfig(n_waypoints=1_000, seed=5)
    instance = generate_instance(config)
    assert instance.n_waypoints == 1_000
    assert len(instance.vehicles) == 100  # n // 10
    assert instance.depot.location.lat == pytest.approx((LAT_MIN + LAT_MAX) / 2.0)
    assert instance.depot.location.lon == pytest.approx((LON_MIN + LON_MAX) / 2.0)
    for wp in instance.waypoints:
        assert LAT_MIN <= wp.location.lat <= LAT_MAX
        assert LON_MIN <= wp.location.lon <= LON_MAX
        assert 1 <= wp.demand <= 4
        assert 0 <= wp.window.earliest <= wp.window.latest <= HORIZON_S


def test_single_waypoint_instance():
    instance = generate_instance(GeneratorConfig(n_waypoints=1, seed=0))
    assert instance.n_waypoints == 1
    assert len(instance.vehicles) == 1


def test_custom_demand_and_fleet():
    config = GeneratorConfig(n_waypoints=50, seed=3, demand_range=(2, 2), fleet_size=7)
    instance = generate_instance(config)
    assert all(w.demand == 2 for w in instance.waypoints)
    assert len(instance.vehicles) == 7


def test_mixed_windows_are_bounded_and_reachable():
    config = GeneratorConfig(n_waypoints=200, seed=11, window_style=WindowStyle.MIXED)
    instance = generate_instance(config)
    speed = instance.travel.speed_mps
    saw_narrow = False
    for wp in instance.waypoints:
        length = wp.window.latest - wp.window.earliest
        assert 7_200 <= length <= 21_600
        saw_narrow = saw_narrow or length < HORIZON_S
        travel = haversine_distance(instance.depot.location, wp.location) / speed
        assert wp.window.latest >= math.ceil(travel) + 60  # reachable from pickup 0
    assert saw_narrow


def test_mixed_window_instance_is_solvable():
    config = GeneratorConfig(
        n_waypoints=60, seed=17, window_style=WindowStyle.MIXED, fleet_size=12
    )
    instance = generate_instance(config)
    result = run_strategy(instance, Strategy.MONOLITHIC, params=FAST)
    assert validate_solution(result.plan, instance) == []


# --- benchmark harness ---


def rebuild_cell_instance(n, rep, template=None):
    seed = _cell_seed(1729, n, rep)
    if template is None:
        return generate_instance(GeneratorConfig(n_waypoints=n, seed=seed))
    from dataclasses import replace

    return generate_instance(replace(template, n_waypoints=n, seed=seed))


def test_benchmark_grid_shape_and_order(tmp_path):
    records = run_benchmark(
        sizes=[40, 60],
        repetitions=2,
        params=FAST,
        archive_dir=str(tmp_path),
    )
    assert len(records) == 2 * 2 * 3
    keys = [(r.n_waypoints, r.repetition_index, r.strategy) for r in records]
    expected = [
        (n, rep, s) for n in (40, 60) for rep in (0, 1) for s in tuple(Strategy)
    ]
    assert keys == expected
    for record in records:
        if record.status is RunStatus.OK:
            assert record.runtime_s is not None
            assert record.distance_m is not None
            assert record.busy_vehicles is not None
        else:
            assert record.distance_m is None
    # the paired baseline must hold up on instances this small
    for record in records:
        if record.strategy in (Strategy.MONOLITHIC, Strategy.RECURSIVE_DBSCAN):
            assert record.status is RunStatus.OK


def test_archived_plans_validate_against_regenerated_instances(tmp_path):
    records = run_benchmark(sizes=[40], repetitions=1, params=FAST, archive_dir=str(tmp_path))
    ok = [r for r in records if r.status is RunStatus.OK]
    assert ok
    for record in ok:
        name = f"plan_{record.n_waypoints:05d}_r{record.repetition_index:02d}_{record.strategy.value}.json"
        path = os.path.join(str(tmp_path), name)
        assert os.path.exists(path)
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        instance = rebuild_cell_instance(record.n_waypoints, record.repetition_index)
        plan = plan_from_dict(doc, instance)
        assert validate_solution(plan, instance) == []
        assert len(plan.busy_vehicles) == record.busy_vehicles


def test_wall_budget_breach_is_a_crash_record():
    records = run_benchmark(
        sizes=[60],
        repetitions=1,
        strategies=[Strategy.MONOLITHIC],
        budget=BudgetConfig(memory_mb=4_096, wall_s=0.005),
    )
    assert [r.status for r in records] == [RunStatus.CRASHED_BUDGET]
    assert records[0].distance_m is None


def test_wall_budget_breach_leaves_no_process_behind(monkeypatch, tmp_path):
    # Every sub-solve stalls, so the wall budget runs out mid-solve.  Each
    # process that reached a sub-solve notes its pid first.
    pid_file = tmp_path / "pids"

    def stalled(sub, params):
        with open(pid_file, "a", encoding="utf-8") as fh:
            fh.write(f"{os.getpid()}\n")
        time.sleep(60)

    monkeypatch.setattr(pipeline, "solve_cvrptw", stalled)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    started = time.monotonic()
    records = run_benchmark(
        sizes=[1_200],
        repetitions=1,
        strategies=[Strategy.DBSCAN],
        budget=BudgetConfig(memory_mb=4_096, wall_s=2.0),
    )
    elapsed = time.monotonic() - started
    pids = [int(line) for line in pid_file.read_text().split()]
    alive = []
    for pid in pids:
        try:
            os.kill(pid, signal.SIGKILL)
            alive.append(pid)
        except ProcessLookupError:
            pass
    assert [r.status for r in records] == [RunStatus.CRASHED_BUDGET]
    assert pids
    assert alive == []
    assert elapsed < 30


def test_wall_budget_holds_under_an_inherited_alarm_handler(monkeypatch, tmp_path):
    # The fenced child inherits this process's SIGALRM handler, which does
    # nothing; its wall timer must still end the stalled run.
    pid_file = tmp_path / "pids"

    def stalled(sub, params):
        with open(pid_file, "a", encoding="utf-8") as fh:
            fh.write(f"{os.getpid()}\n")
        time.sleep(60)

    monkeypatch.setattr(pipeline, "solve_cvrptw", stalled)
    previous = signal.signal(signal.SIGALRM, lambda signum, frame: None)
    try:
        started = time.monotonic()
        records = run_benchmark(
            sizes=[60],
            repetitions=1,
            strategies=[Strategy.MONOLITHIC],
            budget=BudgetConfig(memory_mb=4_096, wall_s=1.0),
        )
        elapsed = time.monotonic() - started
    finally:
        signal.signal(signal.SIGALRM, previous)
    [pid] = [int(line) for line in pid_file.read_text().split()]
    with pytest.raises(ProcessLookupError):
        os.kill(pid, signal.SIGKILL)
    assert [r.status for r in records] == [RunStatus.CRASHED_BUDGET]
    assert records[0].distance_m is None
    assert 1.0 <= elapsed < 5.0


def test_memory_budget_breach_is_a_crash_record():
    # the 4,001-node distance matrix alone is one 128 MB array, four times
    # the cap and more than the heap that earlier in-process solves leave
    # free, so the child cannot finish inside recycled heap space
    records = run_benchmark(
        sizes=[4_000],
        repetitions=1,
        strategies=[Strategy.MONOLITHIC],
        params=FAST,
        budget=BudgetConfig(memory_mb=32, wall_s=120.0),
    )
    assert [r.status for r in records] == [RunStatus.CRASHED_BUDGET]


def test_budgeted_run_matches_unbudgeted_results(tmp_path):
    free = run_benchmark(sizes=[40], repetitions=1, params=FAST, archive_dir=str(tmp_path / "free"))
    fenced = run_benchmark(
        sizes=[40],
        repetitions=1,
        params=FAST,
        budget=BudgetConfig(memory_mb=4_096, wall_s=120.0),
        archive_dir=str(tmp_path / "fenced"),
    )
    assert [(r.status, r.distance_m, r.busy_vehicles) for r in free] == [
        (r.status, r.distance_m, r.busy_vehicles) for r in fenced
    ]
    # the fenced child's archived plans are the in-process ones, byte for byte
    names = sorted(os.listdir(tmp_path / "free"))
    assert len(names) == sum(r.status is RunStatus.OK for r in free) > 0
    assert sorted(os.listdir(tmp_path / "fenced")) == names
    for name in names:
        assert (tmp_path / "fenced" / name).read_bytes() == (tmp_path / "free" / name).read_bytes()


@pytest.mark.parametrize("budget", [None, BudgetConfig()], ids=["in_process", "fenced"])
def test_unexpected_error_propagates_fenced_or_not(monkeypatch, budget):
    for error in (ValueError("broken strategy"), InfeasibleSequenceError(3, 10.0, 5)):

        def broken(*args, **kwargs):
            raise error

        monkeypatch.setattr(bench, "run_strategy", broken)
        with pytest.raises(type(error)) as raised:
            run_benchmark(sizes=[20], repetitions=1, budget=budget)
        assert str(raised.value) == str(error)


@pytest.mark.parametrize("budget", [None, BudgetConfig()], ids=["in_process", "fenced"])
def test_no_solution_is_timed_by_run_strategy_fenced_or_not(monkeypatch, budget):
    def unsolvable(*args, **kwargs):
        exc = NoSolutionFoundError("no plan")
        exc.wall_time_ms = 1234.5
        raise exc

    monkeypatch.setattr(bench, "run_strategy", unsolvable)
    records = run_benchmark(sizes=[20], repetitions=1, strategies=[Strategy.DBSCAN], budget=budget)
    assert [(r.status, r.runtime_s, r.distance_m) for r in records] == [(RunStatus.NO_SOLUTION, 1.2345, None)]


def test_repeated_sizes_rejected():
    with pytest.raises(ValueError, match="sizes must not repeat"):
        run_benchmark(sizes=[40, 60, 40], repetitions=1)
    with pytest.raises(ValueError, match=r"^empty grid: 0 sizes, 3 strategies, 1 repetitions$"):
        run_benchmark(sizes=(), repetitions=1)
    for repetitions in (0, -1):
        with pytest.raises(ValueError, match=rf"^empty grid: 1 sizes, 3 strategies, {repetitions} repetitions$"):
            run_benchmark(sizes=[40], repetitions=repetitions)


def test_repeated_strategies_rejected():
    with pytest.raises(ValueError, match="strategies must not repeat"):
        run_benchmark(sizes=[40], repetitions=1, strategies=[Strategy.MONOLITHIC, Strategy.DBSCAN, Strategy.MONOLITHIC])
    with pytest.raises(ValueError, match=r"strategies must not repeat, got \['DBSCAN', 'DBSCAN'\]"):
        run_benchmark(sizes=[40], repetitions=1, strategies=["DBSCAN", Strategy.DBSCAN])
    with pytest.raises(ValueError, match=r"^empty grid: 1 sizes, 0 strategies, 1 repetitions$"):
        run_benchmark(sizes=[40], repetitions=1, strategies=())
    with pytest.raises(ValueError, match="'bogus' is not a valid Strategy"):
        run_benchmark(sizes=[40], repetitions=1, strategies=["bogus"])


def test_strategies_given_by_value_run_the_strategies_they_name():
    # at n = 400 the clustered plan differs from the monolithic one
    records = run_benchmark(sizes=[400], repetitions=1, strategies=["MONOLITHIC", Strategy.RECURSIVE_DBSCAN], params=FAST)
    assert [r.strategy for r in records] == [Strategy.MONOLITHIC, Strategy.RECURSIVE_DBSCAN]
    assert all(type(r.strategy) is Strategy for r in records)
    (monolithic,) = run_benchmark(sizes=[400], repetitions=1, strategies=[Strategy.MONOLITHIC], params=FAST)
    assert (records[0].distance_m, records[0].busy_vehicles) == (monolithic.distance_m, monolithic.busy_vehicles)
    assert records[0].distance_m != records[1].distance_m


def test_negative_base_seed_rejected():
    with pytest.raises(ValueError, match="base_seed must be >= 0, got -1"):
        run_benchmark(sizes=[40], repetitions=1, base_seed=-1)


def test_benchmark_is_deterministic_apart_from_runtime():
    a = run_benchmark(sizes=[40], repetitions=2, params=FAST)
    b = run_benchmark(sizes=[40], repetitions=2, params=FAST)
    strip = lambda rs: [(r.n_waypoints, r.repetition_index, r.strategy, r.status, r.distance_m, r.busy_vehicles) for r in rs]
    assert strip(a) == strip(b)


# --- CSV ---


def sample_records():
    return [
        BenchRecord(100, Strategy.MONOLITHIC, 0, 2.0, 10_000, 2, RunStatus.OK),
        BenchRecord(100, Strategy.DBSCAN, 0, None, None, None, RunStatus.NO_SOLUTION),
        BenchRecord(100, Strategy.RECURSIVE_DBSCAN, 0, 1.5, 11_000, 2, RunStatus.OK),
        BenchRecord(100, Strategy.MONOLITHIC, 1, 4.0, 20_000, 4, RunStatus.OK),
        BenchRecord(100, Strategy.DBSCAN, 1, 3.0, 21_000, 4, RunStatus.OK),
        BenchRecord(100, Strategy.RECURSIVE_DBSCAN, 1, 1.5, 22_000, 4, RunStatus.OK),
        BenchRecord(250, Strategy.MONOLITHIC, 0, 9.0, 50_000, 8, RunStatus.CRASHED_BUDGET),
        BenchRecord(250, Strategy.RECURSIVE_DBSCAN, 0, 3.25, 52_000, 9, RunStatus.OK),
    ]


def test_csv_round_trip(tmp_path):
    path = str(tmp_path / "results.csv")
    # a sub-centisecond runtime keeps all six decimals of its record
    fast = BenchRecord(500, Strategy.RECURSIVE_DBSCAN, 0, 0.004567, 60_000, 10, RunStatus.OK)
    export_csv(sample_records() + [fast], path)
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip()
    assert header == ",".join(CSV_COLUMNS)
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 4  # (100, rep0), (100, rep1), (250, rep0), (500, rep0)
    assert rows[3]["runtime_recursive"] == "0.004567"
    first = rows[0]
    assert first["wps"] == "100"
    assert first["runtime_monolithic"] == "2.000000"
    assert first["distance_monolithic"] == "10000"
    assert first["cars_monolithic"] == "2"
    assert first["runtime_dbscan"] == "-"  # no-solution cell
    assert first["distance_recursive"] == "11000"
    third = rows[2]
    assert third["runtime_monolithic"] == "-"  # crashed cell
    assert third["distance_dbscan"] == "-"  # strategy never ran
    assert third["cars_recursive"] == "9"


def test_summary_arithmetic():
    rows = summarise(sample_records())
    by_key = {(r["wps"], r["strategy"]): r for r in rows}

    mono = by_key[(100, "MONOLITHIC")]
    assert mono["runs"] == 2 and mono["ok"] == 2
    assert mono["mean_runtime_s"] == 3.0
    assert mono["mean_distance_m"] == 15_000.0
    assert mono["mean_cars"] == 3.0
    assert mono["runtime_delta_pct"] is None

    recursive = by_key[(100, "RECURSIVE_DBSCAN")]
    assert recursive["mean_runtime_s"] == 1.5
    assert recursive["runtime_delta_pct"] == -50.0
    assert recursive["distance_delta_pct"] == 10.0  # 16,500 vs 15,000
    assert recursive["cars_delta_pct"] == 0.0

    dbscan = by_key[(100, "DBSCAN")]
    assert dbscan["runs"] == 2 and dbscan["ok"] == 1
    assert dbscan["mean_distance_m"] == 21_000.0

    crashed = by_key[(250, "MONOLITHIC")]
    assert crashed["ok"] == 0
    assert crashed["mean_runtime_s"] is None
    # no OK baseline at 250, so the recursive delta cannot be computed
    assert by_key[(250, "RECURSIVE_DBSCAN")]["runtime_delta_pct"] is None


# --- GeoJSON ---


def test_geojson_document_shape(tmp_path):
    instance = generate_instance(GeneratorConfig(n_waypoints=2, seed=1, fleet_size=1))
    result = run_strategy(instance, Strategy.MONOLITHIC, params=FAST)
    path = str(tmp_path / "routes.geojson")
    export_geojson(result.plan, instance, path)
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    jsonschema.validate(doc, GEOJSON_SCHEMA)

    kinds = [f["properties"].get("kind") for f in doc["features"]]
    assert kinds.count("depot") == 1
    assert kinds.count("waypoint") == 2
    assert kinds.count("route") == len(result.plan.routes)

    route = next(f for f in doc["features"] if f["properties"]["kind"] == "route")
    coords = route["geometry"]["coordinates"]
    assert coords[0] == [instance.depot.location.lon, instance.depot.location.lat]
    first_stop = result.plan.routes[0].stops[0]
    wp = instance.waypoint(first_stop.waypoint_id)
    assert coords[1] == [wp.location.lon, wp.location.lat]


def test_geojson_empty_plan_keeps_points(tmp_path):
    from routeforge.model import RoutePlan

    instance = generate_instance(GeneratorConfig(n_waypoints=3, seed=2))
    path = str(tmp_path / "empty.geojson")
    export_geojson(RoutePlan(()), instance, path)
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    jsonschema.validate(doc, GEOJSON_SCHEMA)
    kinds = [f["properties"].get("kind") for f in doc["features"]]
    assert kinds == ["depot", "waypoint", "waypoint", "waypoint"]
