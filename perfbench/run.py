"""Solve benchmark for routeforge: clustering against routing, end to end.

Run from the repository root, without installing the package:

    python3 perfbench/run.py --workload recursive-wide-3000 --seed 1 --seconds 30 --trace 0

The seed picks the synthetic instances; they are generated once with
``generate_instance``, written as JSON under ``perfbench/.work/instances``
and read back with ``load_instance`` by a separate worker process that only
loads and solves them (see worker.py).  Every plan is checked by checker.py,
which shares no code with the solver.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``, the
end-to-end metrics with ``--trace 0`` and the per-layer metrics with
``--trace 1``.  The exit code is 0 only when a result was printed.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"
DEADLINE_S = 170.0

sys.path.insert(0, str(HERE))
from checker import check_plan  # noqa: E402
from tracer import layer_metrics  # noqa: E402


@dataclass(frozen=True)
class Workload:
    strategy: str
    n_waypoints: int
    window_style: str
    instances: int


# The two 3000-waypoint workloads draw the same instance seeds, so they pair
# up as the paper's monolithic-versus-recursive comparison.  The instance
# counts trade the length of a round against the spread across seeds; the
# 2000-waypoint instances are short, so a round holds more of them.
WORKLOADS = {
    "monolithic-wide-3000": Workload("MONOLITHIC", 3000, "wide", 4),
    "recursive-wide-3000": Workload("RECURSIVE_DBSCAN", 3000, "wide", 4),
    "dbscan-mixed-2000": Workload("DBSCAN", 2000, "mixed", 24),
}
MAX_CLUSTER_SIZE = 500  # ClusterConfig().max_cluster_size

LAYER_UNITS = {"ratio": ("search_accept_ratio", "search_converged"), "km": ("search_gain_km",), "MB": ("peak_rss_mb",)}


def instance_seeds(seed: int, count: int) -> list[int]:
    rng = random.Random(seed)
    return [rng.randrange(2**31) for _ in range(count)]


def instance_files(workload: Workload, seed: int) -> list[Path]:
    """Generate the workload's instances for this seed unless already on disk."""
    sys.path.insert(0, str(ROOT / "src"))
    from routeforge import GeneratorConfig, WindowStyle, generate_instance, save_instance

    folder = WORK / "instances"
    folder.mkdir(parents=True, exist_ok=True)
    paths = []
    for instance_seed in instance_seeds(seed, workload.instances):
        path = folder / f"n{workload.n_waypoints}-{workload.window_style}-{instance_seed}.json"
        if not path.exists():
            config = GeneratorConfig(
                n_waypoints=workload.n_waypoints,
                seed=instance_seed,
                window_style=WindowStyle(workload.window_style),
            )
            partial = path.with_suffix(f".{os.getpid()}.part")
            save_instance(generate_instance(config), str(partial))
            os.replace(partial, path)
        paths.append(path)
    return paths


def run_worker(workload: Workload, path: Path, trace: int, out: Path, started: float) -> dict:
    out.parent.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    subprocess.run(
        [sys.executable, str(HERE / "worker.py"), str(ROOT), workload.strategy, str(trace), str(out), str(path)],
        env=env,
        stdout=sys.stderr,
        check=True,
        timeout=DEADLINE_S - (time.perf_counter() - started),
    )
    with open(out, encoding="utf-8") as fh:
        return json.load(fh)


def run_rounds(workload: Workload, paths: list[Path], seconds: float, trace: int, tag: str, started: float) -> list[list[dict]]:
    """Solve every instance once per round, each in its own worker process.

    Rounds go on while another one still fits in ``seconds``; there is always
    at least one.
    """
    folder = WORK / ("traces" if trace else "runs")
    rounds: list[list[dict]] = []
    began = time.perf_counter()
    longest = 0.0
    while True:
        round_started = time.perf_counter()
        rounds.append(
            [run_worker(workload, path, trace, folder / f"{tag}-{index}.json", started) for index, path in enumerate(paths)]
        )
        longest = max(longest, time.perf_counter() - round_started)
        if time.perf_counter() - began + longest > seconds:
            break
    return rounds


def check_round(workload: Workload, documents: list[dict], reports: list[dict]) -> list[str]:
    problems = []
    cap = None if workload.strategy == "MONOLITHIC" else MAX_CLUSTER_SIZE
    for index, (doc, report) in enumerate(zip(documents, reports)):
        if "error" not in report["outcome"]:
            problems += [f"instance {index}: {p}" for p in check_plan(doc, report["outcome"], cap)]
    return problems


def totals(reports: list[dict]) -> tuple[float, int]:
    solved = [r["outcome"] for r in reports if "error" not in r["outcome"]]
    return sum(o["total_distance"] for o in solved) / 1000.0, sum(o["busy_vehicle_count"] for o in solved)


def joined_spans(reports: list[dict]) -> list[dict]:
    """The spans of several workers as one list, parents re-indexed."""
    spans: list[dict] = []
    for report in reports:
        offset = len(spans)
        spans += [dict(s, parent=None if s["parent"] is None else s["parent"] + offset) for s in report["spans"]]
    return spans


def per_instance_median(rounds: list[list[dict]], key: str) -> float:
    """Sum over the instances of each instance's median over the rounds."""
    return sum(statistics.median(r[i][key] for r in rounds) for i in range(len(rounds[0])))


def metric(name: str, value: float, unit: str) -> tuple[str, dict]:
    return name, {"value": value, "unit": unit}


def layer_unit(name: str) -> str:
    short = name.split(".", 1)[1]
    for unit, names in LAYER_UNITS.items():
        if short in names:
            return unit
    return "s" if short.endswith("_s") else "count"


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    started = time.perf_counter()
    if not (ROOT / "src" / "routeforge").is_dir():
        print(f"no routeforge sources under {ROOT / 'src'}: run from a repository checkout", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    paths = instance_files(workload, args.seed)
    documents = []
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            documents.append(json.load(fh))
    tag = f"{args.workload}-seed{args.seed}"

    if args.trace == 0:
        rounds = run_rounds(workload, paths, args.seconds, 0, tag, started)
    else:
        # One untraced and one traced round of the same instances: the
        # difference is the tracing overhead, and the plans must agree.
        rounds = run_rounds(workload, paths, 0, 0, tag, started) + run_rounds(workload, paths, 0, 1, tag, started)

    problems = []
    for number, reports in enumerate(rounds):
        problems += check_round(workload, documents, reports)
        # Repeated and traced rounds must give exactly the first round's plans.
        if [r["outcome"] for r in reports] != [r["outcome"] for r in rounds[0]]:
            problems.append(f"round {number} gave other outcomes than round 0")
    for index, report in enumerate(rounds[0]):
        if "error" in report["outcome"]:
            print(f"instance {index} failed: {report['outcome']['error']}")
    failed = sum(1 for reports in rounds for r in reports if "error" in r["outcome"])

    distance_km, vehicles = totals(rounds[0])
    print(
        f"{args.workload} seed {args.seed}: instance seeds {instance_seeds(args.seed, workload.instances)}, "
        f"{len(rounds)} round(s), distance {distance_km:.3f} km, {vehicles} vehicles, "
        f"solve times {[[round(r['solve_s'], 3) for r in reports] for reports in rounds]}, "
        f"peak RSS {[[round(r['peak_rss_mb'], 1) for r in reports] for reports in rounds]} MB"
    )
    if args.trace == 0:
        metrics = dict(
            [
                metric("solve_s", per_instance_median(rounds, "solve_s"), "s"),
                metric("distance_km", distance_km, "km"),
                metric("vehicles", vehicles, "count"),
                metric("setup_s", per_instance_median(rounds, "setup_s"), "s"),
            ]
        )
    else:
        untraced, traced = rounds
        traced_distance_km, traced_vehicles = totals(traced)
        print(f"traced round: distance {traced_distance_km:.3f} km, {traced_vehicles} vehicles")
        layers = layer_metrics(joined_spans(traced))
        layers["pipeline.fleet_unused"] = sum(len(d["vehicles"]) for d in documents) - traced_vehicles
        # Peak memory varies too much between the instances of the recursive
        # workload to carry a bound, so it is reported here, untraced.
        layers["memory.peak_rss_mb"] = statistics.median(r["peak_rss_mb"] for r in untraced)
        layers["trace.overhead_s"] = sum(r["solve_s"] for r in traced) - sum(r["solve_s"] for r in untraced)
        metrics = dict(metric(name, value, layer_unit(name)) for name, value in layers.items())

    for problem in problems:
        print(f"check failed: {problem}")
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": len(rounds) * workload.instances,
                "failed": failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
