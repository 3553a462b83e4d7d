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

Nothing that varies run to run (the solve line with its wall time) is
written.  It solves with the ``routeforge`` package found on the import
path, so running it once with the parent commit's ``src`` and once with the
change's, then ``diff -r`` of the two trees, shows whether the change kept
every output.  One run takes about two minutes on a 2-vCPU machine.
"""

from __future__ import annotations

import contextlib
import io
import os
import sys

SEEDS = (0, 1, 2)
# (size, window style): the wide sizes, and the shape of the mixed-window
# benchmark workload, whose solves bind on the windows.
CASES = ((500, "wide"), (1500, "wide"), (3000, "wide"), (5000, "wide"), (2000, "mixed"))
STRATEGIES = ("monolithic", "dbscan", "recursive-dbscan")


def _run(cli, argv: list[str]) -> None:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    if code != 0:
        raise SystemExit(f"routeforge {' '.join(argv)} exited {code}: {err.getvalue().strip()}")


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python3 tools/identity_outputs.py OUT_DIR", file=sys.stderr)
        return 2
    from routeforge import cli

    print(f"routeforge from {os.path.dirname(cli.__file__)}", file=sys.stderr)
    for n, windows in CASES:
        for seed in SEEDS:
            case = f"n{n}_s{seed}" + ("" if windows == "wide" else f"_{windows}")
            out = os.path.join(argv[0], case)
            os.makedirs(out, exist_ok=True)
            instance = os.path.join(out, "instance.json")
            _run(cli, ["generate", "--n", str(n), "--seed", str(seed), "--windows", windows, "--out", instance])
            _run(cli, ["cluster", instance, "--out", os.path.join(out, "clusters.json")])
            _run(cli, ["cluster", instance, "--flat", "--out", os.path.join(out, "clusters_flat.json")])
            for strategy in STRATEGIES:
                plan = os.path.join(out, f"plan_{strategy}.json")
                _run(cli, ["solve", instance, "--strategy", strategy, "--out", plan])
            print(f"{case} done", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
