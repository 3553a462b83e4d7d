import json

import pytest

from routeforge.bench import parse_csv
from routeforge.cli import main
from routeforge.model import load_instance, load_plan, validate_solution


def gen(tmp_path, name="inst.json", n=30, seed=3, extra=()):
    path = str(tmp_path / name)
    code = main(["generate", "--n", str(n), "--seed", str(seed), "--out", path, *extra])
    assert code == 0
    return path


# --- generate ---


def test_generate_writes_loadable_instance(tmp_path):
    path = gen(tmp_path, n=25, seed=9)
    instance = load_instance(path)
    assert instance.n_waypoints == 25


def test_generate_respects_knobs(tmp_path):
    path = gen(
        tmp_path,
        n=40,
        extra=("--windows", "mixed", "--fleet-size", "9", "--capacity", "44", "--demand-max", "5"),
    )
    instance = load_instance(path)
    assert len(instance.vehicles) == 9
    assert all(v.capacity == 44 for v in instance.vehicles)
    assert all(1 <= w.demand <= 5 for w in instance.waypoints)
    assert any(w.window.latest - w.window.earliest < 43_200 for w in instance.waypoints)


# --- solve ---


def test_solve_writes_plan_and_geojson(tmp_path, capsys):
    inst_path = gen(tmp_path, n=30, extra=("--fleet-size", "6"))
    plan_path = str(tmp_path / "plan.json")
    geo_path = str(tmp_path / "routes.geojson")
    code = main(
        [
            "solve",
            inst_path,
            "--out",
            plan_path,
            "--geojson",
            geo_path,
            "--time-limit-ms",
            "200",
        ]
    )
    assert code == 0
    instance = load_instance(inst_path)
    plan = load_plan(plan_path, instance)
    assert validate_solution(plan, instance) == []
    with open(geo_path, encoding="utf-8") as fh:
        assert json.load(fh)["type"] == "FeatureCollection"
    out = capsys.readouterr().out
    assert "distance" in out


@pytest.mark.parametrize("strategy", ["monolithic", "dbscan", "recursive-dbscan"])
def test_solve_accepts_every_strategy(tmp_path, strategy):
    inst_path = gen(tmp_path, n=20, extra=("--fleet-size", "6"))
    plan_path = str(tmp_path / f"plan_{strategy}.json")
    code = main(
        ["solve", inst_path, "--strategy", strategy, "--out", plan_path, "--time-limit-ms", "100"]
    )
    assert code == 0
    instance = load_instance(inst_path)
    assert validate_solution(load_plan(plan_path, instance), instance) == []


def test_solve_reports_infeasible_fleet(tmp_path, capsys):
    inst_path = gen(tmp_path, n=40, extra=("--fleet-size", "1"))
    code = main(["solve", inst_path, "--out", str(tmp_path / "plan.json")])
    assert code == 1
    assert "no solution" in capsys.readouterr().err


# --- cluster ---


def test_cluster_covers_every_waypoint(tmp_path):
    inst_path = gen(tmp_path, n=60, seed=4)
    out_path = str(tmp_path / "clusters.json")
    assert main(["cluster", inst_path, "--out", out_path]) == 0
    with open(out_path, encoding="utf-8") as fh:
        doc = json.load(fh)
    ids = sorted(i for c in doc["clusters"] for i in c["members"])
    assert ids == list(range(1, 61))
    assert all({"members", "radius", "depth"} <= set(c) for c in doc["clusters"])


def test_cluster_flat_mode(tmp_path):
    inst_path = gen(tmp_path, n=60, seed=4)
    out_path = str(tmp_path / "flat.json")
    assert main(["cluster", inst_path, "--out", out_path, "--flat", "--max-cluster-size", "20"]) == 0
    with open(out_path, encoding="utf-8") as fh:
        doc = json.load(fh)
    assert max(len(c["members"]) for c in doc["clusters"]) <= 20


@pytest.mark.parametrize("mode", [[], ["--flat"]])
def test_cluster_empty_instance_writes_no_clusters(tmp_path, mode):
    inst_path = gen(tmp_path, n=10)
    with open(inst_path, encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["waypoints"] = []
    with open(inst_path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    out_path = str(tmp_path / "clusters.json")
    assert main(["cluster", inst_path, "--out", out_path, *mode]) == 0
    with open(out_path, encoding="utf-8") as fh:
        assert json.load(fh) == {"clusters": []}


def test_cluster_flat_at_radius_zero(tmp_path):
    inst_path = gen(tmp_path, n=30, seed=5)
    out_path = str(tmp_path / "flat.json")
    code = main(
        ["cluster", inst_path, "--out", out_path, "--flat", "--min-radius", "0", "--max-radius", "0"]
    )
    assert code == 0
    with open(out_path, encoding="utf-8") as fh:
        doc = json.load(fh)
    # no two generated waypoints coincide, so a 0 m radius leaves singletons
    assert sorted(c["members"] for c in doc["clusters"]) == [[i] for i in range(1, 31)]
    assert {c["radius"] for c in doc["clusters"]} == {0}


# --- validate ---


def test_validate_accepts_solver_output(tmp_path, capsys):
    inst_path = gen(tmp_path, n=20, extra=("--fleet-size", "5"))
    plan_path = str(tmp_path / "plan.json")
    assert main(["solve", inst_path, "--out", plan_path, "--time-limit-ms", "100"]) == 0
    assert main(["validate", inst_path, plan_path]) == 0
    assert "feasible" in capsys.readouterr().out


def test_validate_flags_tampered_plan(tmp_path, capsys):
    inst_path = gen(tmp_path, n=20, extra=("--fleet-size", "5"))
    plan_path = str(tmp_path / "plan.json")
    assert main(["solve", inst_path, "--out", plan_path, "--time-limit-ms", "100"]) == 0
    with open(plan_path, encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["routes"][0]["stops"].append(dict(doc["routes"][0]["stops"][0]))  # revisit a stop
    with open(plan_path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)
    assert main(["validate", inst_path, plan_path]) == 1
    assert "MULTIPLY_VISITED" in capsys.readouterr().out


# --- bench ---


def test_bench_writes_csv_and_summary(tmp_path, capsys):
    csv_path = str(tmp_path / "results.csv")
    code = main(
        [
            "bench",
            "--out",
            csv_path,
            "--sizes",
            "30,40",
            "--reps",
            "1",
            "--no-budget",
            "--time-limit-ms",
            "100",
        ]
    )
    assert code == 0
    rows = parse_csv(csv_path)
    assert [row["wps"] for row in rows] == [30, 40]
    assert "MONOLITHIC" in capsys.readouterr().out


def test_bench_strategy_subset(tmp_path):
    csv_path = str(tmp_path / "subset.csv")
    code = main(
        [
            "bench",
            "--out",
            csv_path,
            "--sizes",
            "30",
            "--reps",
            "1",
            "--strategies",
            "monolithic,recursive-dbscan",
            "--no-budget",
            "--time-limit-ms",
            "100",
        ]
    )
    assert code == 0
    row = parse_csv(csv_path)[0]
    assert row["runtime_monolithic"] is not None
    assert row["runtime_recursive"] is not None
    assert row["runtime_dbscan"] is None


def test_bench_seed_equal_to_the_default_changes_no_plan(tmp_path):
    # --seed picks the instances; the solver keeps its own default seed
    rows = []
    for name, extra in (("default.csv", []), ("seeded.csv", ["--seed", "1729"])):
        csv_path = str(tmp_path / name)
        argv = ["bench", "--out", csv_path, "--sizes", "200", "--reps", "1", "--no-budget", *extra]
        assert main(argv) == 0
        rows.append([{k: v for k, v in row.items() if not k.startswith("runtime")} for row in parse_csv(csv_path)])
    assert rows[0] == rows[1]


# --- failure modes ---


def test_unknown_subcommand_is_usage_error(capsys):
    assert main(["frobnicate"]) == 2
    capsys.readouterr()


def test_missing_required_flag_is_usage_error(tmp_path, capsys):
    inst_path = gen(tmp_path, n=10)
    assert main(["solve", inst_path]) == 2  # --out is required
    capsys.readouterr()


def test_unreadable_instance_is_usage_error(tmp_path, capsys):
    assert main(["solve", str(tmp_path / "absent.json"), "--out", str(tmp_path / "p.json")]) == 2
    assert "cannot load instance" in capsys.readouterr().err


def test_bad_strategy_name_is_usage_error(tmp_path, capsys):
    csv_path = str(tmp_path / "x.csv")
    code = main(
        ["bench", "--out", csv_path, "--sizes", "30", "--reps", "1", "--strategies", "sorcery"]
    )
    assert code == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["generate", "--n", "0"], "n_waypoints"),
        (["generate", "--n", "5", "--capacity", "0"], "vehicle_capacity"),
        (["cluster", "{inst}", "--max-cluster-size", "0"], "max_cluster_size"),
        (["cluster", "{inst}", "--min-radius", "-1"], "min_radius"),
        (["solve", "{inst}", "--time-limit-ms", "-5"], "time_limit_ms"),
        (["solve", "{inst}", "--optimization-step", "-1"], "optimization_step"),
        (["bench", "--sizes", "30", "--reps", "1", "--capacity", "0"], "vehicle_capacity"),
        (["bench", "--sizes", "30,x", "--reps", "1"], "positive integers, got 'x'"),
        (["bench", "--sizes", "0", "--reps", "1"], "positive integers, got '0'"),
        (["bench", "--sizes", "-3", "--reps", "1"], "positive integers, got '-3'"),
        (["solve", "{inst}", "--optimization-step", "nan"], "optimization_step"),
        (["generate", "--n", "5", "--demand-max", "0"], "demand_range"),
        (["bench", "--sizes", "30", "--reps", "1", "--demand-max", "0"], "demand_range"),
        (["bench", "--sizes", "30", "--reps", "0"], "positive integer, got '0'"),
        (["bench", "--sizes", "30", "--reps", "-2"], "positive integer, got '-2'"),
        (["bench", "--sizes", "30", "--reps", "1", "--budget-mb", "0"], "memory_mb"),
        (["bench", "--sizes", "30", "--reps", "1", "--budget-wall-s", "0"], "wall_s"),
        (["bench", "--sizes", "30", "--reps", "1", "--budget-wall-s", "inf"], "wall_s"),
        (["bench", "--sizes", "30", "--reps", "1", "--workers", "0"], "workers must be a positive integer, got '0'"),
        (["bench", "--sizes", "30", "--reps", "1", "--workers", "-3"], "workers must be a positive integer, got '-3'"),
        (["bench", "--sizes", "30", "--reps", "1", "--strategies", ",,"], "names no strategy"),
        (["solve", "{inst}", "--min-radius", "50", "--max-radius", "10"], "min_radius 50 exceeds max_radius 10"),
        (["cluster", "{inst}", "--max-radius", "-5"], "min_radius 1 exceeds max_radius -5"),
        (["bench", "--sizes", "30", "--reps", "1", "--min-radius", "20000"], "min_radius 20000 exceeds max_radius 10000"),
    ],
)
def test_bad_flag_value_is_usage_error(tmp_path, capsys, argv, message):
    inst_path = gen(tmp_path, n=10)
    capsys.readouterr()
    out = str(tmp_path / "out.json")
    assert main([tok.format(inst=inst_path) for tok in argv] + ["--out", out]) == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert "Traceback" not in captured.err


def test_help_exits_clean(capsys):
    assert main(["--help"]) == 0
    assert "generate" in capsys.readouterr().out
