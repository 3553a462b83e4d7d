"""One measured process: load one instance file, then solve it.

Usage (run.py starts it; it is not meant to be run by hand):

    python3 perfbench/worker.py ROOT STRATEGY TRACE OUT INSTANCE

It times ``load_instance`` on INSTANCE several times and keeps the median as
the set-up time, then solves the instance once with ``run_strategy`` at the
default settings.  With TRACE=1 the calls between the layers are wrapped in
spans.  The outcome, both times, the peak resident memory of this process and
any spans are written as JSON to OUT.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import statistics
import sys
import time

SETUP_REPEATS = 5


def plan_rows(plan) -> list:
    """A plan as ``[vehicle, pickup, [[waypoint, arrival, departure], ...]]`` rows."""
    return [
        [r.vehicle_id, r.depot_pickup_time, [[s.waypoint_id, s.arrival_time, s.departure_time] for s in r.stops]]
        for r in plan.routes
    ]


def main(argv: list[str]) -> int:
    root, strategy_name, trace, out, path = argv
    sys.path.insert(0, os.path.join(root, "src"))
    from routeforge import NoSolutionFoundError, RecursionLimitError, Strategy, load_instance, run_strategy

    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from tracer import Tracer

    setup = []
    for _ in range(SETUP_REPEATS):
        instance = None
        gc.collect()
        started = time.perf_counter()
        instance = load_instance(path)
        setup.append(time.perf_counter() - started)

    strategy = Strategy(strategy_name)
    tracer = Tracer() if trace == "1" else None
    gc.collect()
    if tracer is not None:
        tracer.install()
    started = time.perf_counter()
    try:
        if tracer is None:
            result = run_strategy(instance, strategy)
        else:
            result = tracer.span("pipeline.run_strategy", run_strategy, instance, strategy)
        outcome = {
            "routes": plan_rows(result.plan),
            "total_distance": result.total_distance,
            "busy_vehicle_count": result.busy_vehicle_count,
            "peak_cluster_size": result.peak_cluster_size,
        }
    except (NoSolutionFoundError, RecursionLimitError) as exc:
        outcome = {"error": f"{type(exc).__name__}: {exc}"}
    finally:
        solve_s = time.perf_counter() - started
        if tracer is not None:
            tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    with open(out, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "setup_s": statistics.median(setup),
                "solve_s": solve_s,
                "peak_rss_mb": peak_rss_mb,
                "outcome": outcome,
                "spans": tracer.spans if tracer is not None else [],
            },
            fh,
        )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
