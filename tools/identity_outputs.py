"""Write the outputs a refactor must keep byte-identical.

Usage:

    PYTHONPATH=src python3 tools/identity_outputs.py OUT_DIR

For every size N in 500, 1500, 3000 and 5000 and every seed S in 0, 1 and 2
with wide windows, and for N = 2000 with mixed 2-6 h windows at the same
seeds, the script drives the ``routeforge`` command line in process and
writes:

    OUT_DIR/{case}/instance.json       routeforge generate --n N --seed S [--windows mixed]
    OUT_DIR/{case}/clusters.json       routeforge cluster
    OUT_DIR/{case}/clusters_flat.json  routeforge cluster --flat
    OUT_DIR/{case}/plan_{strategy}.json  routeforge solve, per strategy

where case is n{N}_s{S} for wide windows and n{N}_s{S}_mixed for mixed ones.
One more case, n1200_s4_fleet30-24-36, solves the wide-window instance of
N = 1200 and seed 4 with vehicle capacities that cycle 30, 24, 36 by vehicle
id.  Its later clusters find another capacity order among the free vehicles,
so the solve throws some pre-solved plans away and solves those clusters
again in order.  The case n1000_s0_fleet84 generates N = 1000 and seed 0
with 84 vehicles: the monolithic solve uses 83 of them, and each clustered
strategy meets a cluster that its free vehicles cannot serve, so for those
it writes

    OUT_DIR/{case}/error_{strategy}.txt  the "no solution:" line of routeforge solve

which shows the waypoint ids the error names.  The case n3000_s1_cap250
passes --max-cluster-size 250 to every cluster and solve command on the
wide-window instance of N = 3000 and seed 1.  At that cap the recursive
decomposition cuts clusters down to depth 15, and DBSCAN writes an
error_dbscan.txt because the vehicle pool runs dry.  Last, it writes

    OUT_DIR/bench.csv                  routeforge bench --sizes 300,200 --reps 2
    OUT_DIR/bench_unfenced.csv         the same with --no-budget

the CSV of a small grid of every strategy without the runtime columns, once
with each run fenced in its budgeted child and once with every run in
process.  The sizes are not in sorted order and each has two repetitions,
so the files also show the order in which the grid runs its cells.  The
two files are equal when both run paths agree.

Nothing that varies run to run (the solve line with its wall time) is
written.  It solves with the ``routeforge`` package found on the import
path, so running it once with the parent commit's ``src`` and once with the
change's, then ``diff -r`` of the two trees, shows whether the change kept
every output.  One run takes about two minutes on a 2-vCPU machine.

Where a change may move floats in their last bits but must keep every
route, or moves some plans on purpose, compare the two trees instead of
diffing them:

    PYTHONPATH=src python3 tools/identity_outputs.py compare DIR_A DIR_B

prints one line per file.  An instance or cluster file reads ``same`` when
the two copies are byte-equal.  A plan reads ``routes same`` when every
route has the same vehicle and the same stop ids in the same order, then
the largest absolute difference between any two floats at the same place
in the two plans (``drift 0`` for byte-equal plans).  A plan whose routes
differ reads ``ROUTES DIFFER``, then each tree's busy vehicles and total
distance, priced with ``routeforge`` on that tree's ``instance.json`` of
the case, as ``vehicles A -> B, distance A -> B km``.  The command exits 0
when every instance and cluster file is byte-equal and every plan's routes
are the same, and 1 otherwise (a file in only one tree counts as a
difference).
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import sys
import tempfile
from dataclasses import replace

SEEDS = (0, 1, 2)
# (size, window style): the wide sizes, and the shape of the mixed-window
# benchmark workload, whose solves bind on the windows.
CASES = ((500, "wide"), (1500, "wide"), (3000, "wide"), (5000, "wide"), (2000, "mixed"))
STRATEGIES = ("monolithic", "dbscan", "recursive-dbscan")
# (size, seed, capacities by vehicle id modulo their count)
MIXED_FLEET = (1200, 4, (30, 24, 36))
# (size, seed, fleet size): enough vehicles for one solve of every waypoint,
# too few for the clustered strategies
SHORT_FLEET = (1000, 0, 84)
# (size, seed, cluster size cap): a cap that makes the decomposition recurse
# deep
SMALL_CAP = (3000, 1, 250)


def _run(cli, argv: list[str], codes: tuple[int, ...] = (0,)) -> tuple[int, str]:
    """Run one command; an exit code not in `codes` ends the script.
    Returns the exit code and what the command wrote to stderr."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    if code not in codes:
        raise SystemExit(f"routeforge {' '.join(argv)} exited {code}: {err.getvalue().strip()}")
    return code, err.getvalue()


def _case(
    cli,
    out: str,
    n: int,
    seed: int,
    windows: str,
    capacities: tuple[int, ...] = (),
    flags: tuple[str, ...] = (),
    cluster_flags: tuple[str, ...] = (),
) -> None:
    """One case directory; `flags` go to generate, `cluster_flags` to every
    cluster and solve command."""
    from routeforge import load_instance, save_instance

    os.makedirs(out, exist_ok=True)
    instance = os.path.join(out, "instance.json")
    _run(cli, ["generate", "--n", str(n), "--seed", str(seed), "--windows", windows, *flags, "--out", instance])
    if capacities:
        generated = load_instance(instance)
        fleet = tuple(replace(v, capacity=capacities[v.id % len(capacities)]) for v in generated.vehicles)
        save_instance(replace(generated, vehicles=fleet), instance)
    _run(cli, ["cluster", instance, *cluster_flags, "--out", os.path.join(out, "clusters.json")])
    _run(cli, ["cluster", instance, "--flat", *cluster_flags, "--out", os.path.join(out, "clusters_flat.json")])
    for strategy in STRATEGIES:
        plan = os.path.join(out, f"plan_{strategy}.json")
        argv = ["solve", instance, "--strategy", strategy, *cluster_flags, "--out", plan]
        code, err = _run(cli, argv, codes=(0, 1))
        if code == 1:  # the one "no solution:" line, which names no wall time
            with open(os.path.join(out, f"error_{strategy}.txt"), "w", encoding="utf-8") as fh:
                fh.write(err)
    print(f"{os.path.basename(out)} done", file=sys.stderr)


def _bench(cli, out: str, name: str, flags: tuple[str, ...] = ()) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        raw = os.path.join(tmp, name)
        _run(cli, ["bench", "--sizes", "300,200", "--reps", "2", *flags, "--out", raw])
        with open(raw, encoding="utf-8", newline="") as fh:
            rows = list(csv.reader(fh))
    keep = [k for k, column in enumerate(rows[0]) if not column.startswith("runtime_")]
    with open(os.path.join(out, name), "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerows([row[k] for k in keep] for row in rows)
    print(f"{name} done", file=sys.stderr)


def _files(root: str) -> set[str]:
    return {
        os.path.relpath(os.path.join(top, name), root) for top, _, names in os.walk(root) for name in names
    }


def _routes(plan: dict) -> list[tuple[int, list[int]]]:
    return [(r["vehicle"], [s["id"] for s in r["stops"]]) for r in plan["routes"]]


def _drift(a, b) -> float:
    """The largest absolute difference between floats at the same place in
    two JSON values of the same shape."""
    if isinstance(a, dict):
        return max((_drift(a[k], b[k]) for k in a), default=0.0)
    if isinstance(a, list):
        return max((_drift(x, y) for x, y in zip(a, b)), default=0.0)
    if isinstance(a, float) or isinstance(b, float):
        return abs(a - b)
    return 0.0


def _plan_totals(path: str) -> tuple[int, float]:
    """A plan file's busy vehicles and total distance in km, priced on
    the instance.json next to it."""
    from routeforge import evaluate_objective, load_instance, load_plan

    instance = load_instance(os.path.join(os.path.dirname(path), "instance.json"))
    plan = load_plan(path, instance)
    return len(plan.busy_vehicles), evaluate_objective(plan, instance) / 1000.0


def _compare_file(path_a: str, path_b: str) -> tuple[bool, str]:
    """Whether the file passes, and its report."""
    with open(path_a, "rb") as fa, open(path_b, "rb") as fb:
        raw_a, raw_b = fa.read(), fb.read()
    if not os.path.basename(path_a).startswith("plan_"):
        return raw_a == raw_b, "same" if raw_a == raw_b else "DIFFERS"
    plan_a, plan_b = json.loads(raw_a), json.loads(raw_b)
    if _routes(plan_a) != _routes(plan_b):
        (vehicles_a, km_a), (vehicles_b, km_b) = _plan_totals(path_a), _plan_totals(path_b)
        return False, f"ROUTES DIFFER, vehicles {vehicles_a} -> {vehicles_b}, distance {km_a:.3f} -> {km_b:.3f} km"
    return True, f"routes same, drift {_drift(plan_a, plan_b):.3g}"


def compare(dir_a: str, dir_b: str) -> int:
    files_a, files_b = _files(dir_a), _files(dir_b)
    ok = True
    for rel in sorted(files_a | files_b):
        if rel not in files_a or rel not in files_b:
            passed, report = False, f"ONLY IN {dir_a if rel in files_a else dir_b}"
        else:
            passed, report = _compare_file(os.path.join(dir_a, rel), os.path.join(dir_b, rel))
        ok = ok and passed
        print(f"{rel}: {report}")
    return 0 if ok else 1


def main(argv: list[str]) -> int:
    if len(argv) == 3 and argv[0] == "compare":
        return compare(argv[1], argv[2])
    if len(argv) != 1:
        print(
            "usage: python3 tools/identity_outputs.py OUT_DIR\n"
            "       PYTHONPATH=src python3 tools/identity_outputs.py compare DIR_A DIR_B",
            file=sys.stderr,
        )
        return 2
    from routeforge import cli

    print(f"routeforge from {os.path.dirname(cli.__file__)}", file=sys.stderr)
    for n, windows in CASES:
        for seed in SEEDS:
            case = f"n{n}_s{seed}" + ("" if windows == "wide" else f"_{windows}")
            _case(cli, os.path.join(argv[0], case), n, seed, windows)
    n, seed, capacities = MIXED_FLEET
    fleet = "-".join(map(str, capacities))
    _case(cli, os.path.join(argv[0], f"n{n}_s{seed}_fleet{fleet}"), n, seed, "wide", capacities)
    n, seed, fleet_size = SHORT_FLEET
    flags = ("--fleet-size", str(fleet_size))
    _case(cli, os.path.join(argv[0], f"n{n}_s{seed}_fleet{fleet_size}"), n, seed, "wide", flags=flags)
    n, seed, cap = SMALL_CAP
    cluster_flags = ("--max-cluster-size", str(cap))
    _case(cli, os.path.join(argv[0], f"n{n}_s{seed}_cap{cap}"), n, seed, "wide", cluster_flags=cluster_flags)
    _bench(cli, argv[0], "bench.csv")
    _bench(cli, argv[0], "bench_unfenced.csv", ("--no-budget",))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
