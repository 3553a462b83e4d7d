"""Command line front end.

Subcommands: `generate` (synthetic instance file), `solve` (instance ->
plan), `cluster` (diagnostic cluster dump), `bench` (strategy comparison
grid -> CSV), `validate` (instance + plan -> violations).  Exit codes:
0 success, 1 no solution found or validation failures, 2 usage errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from .bench import (
    DEFAULT_REPS,
    DEFAULT_SIZES,
    BudgetConfig,
    GeneratorConfig,
    RunStatus,
    WindowStyle,
    export_csv,
    export_geojson,
    generate_instance,
    run_benchmark,
    summarise,
)
from .clusterer import (
    ClusterConfig,
    ClusterSet,
    Feasibility,
    NoSolutionFoundError,
    binary_search_clusters,
    recursive_dbscan,
)
from .model import InvalidInstanceError, load_instance, load_plan, save_instance, save_plan, validate_solution
from .pipeline import Strategy, run_strategy
from .solver import SolverParams

_STRATEGY_NAMES = {
    "monolithic": Strategy.MONOLITHIC,
    "dbscan": Strategy.DBSCAN,
    "recursive-dbscan": Strategy.RECURSIVE_DBSCAN,
}


class _UsageError(Exception):
    pass


def _load_instance_or_usage(path: str):
    try:
        return load_instance(path)
    except (OSError, InvalidInstanceError, json.JSONDecodeError) as exc:
        raise _UsageError(f"cannot load instance {path}: {exc}") from exc


def _config(cls, **kwargs):
    """Build a config from flag values; a value the config rejects is a usage error."""
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise _UsageError(f"bad option value: {exc}") from exc


def _int_at_least(text: str, least: int, rule: str) -> int:
    """Parse an integer >= `least`; `rule` opens the message that rejects `text`."""
    if not text.strip().isdecimal() or int(text) < least:
        raise argparse.ArgumentTypeError(f"{rule}, got {text!r}")
    return int(text)


def _waypoint_counts(text: str) -> list[int]:
    """Parse --sizes: comma-separated positive waypoint counts, at least one,
    none repeated."""
    sizes = [_int_at_least(tok, 1, "waypoint counts must be positive integers") for tok in filter(None, text.split(","))]
    if not sizes:
        raise argparse.ArgumentTypeError(f"waypoint counts name no size, got {text!r}")
    if len(set(sizes)) != len(sizes):
        raise argparse.ArgumentTypeError(f"waypoint counts must not repeat, got {text!r}")
    return sizes


def _strategies(text: str) -> list[Strategy]:
    """Parse --strategies: comma-separated strategy names, at least one,
    none repeated."""
    names = list(filter(None, text.split(",")))
    for name in names:
        if name not in _STRATEGY_NAMES:
            raise argparse.ArgumentTypeError(f"unknown strategy {name!r}")
    if not names:
        raise argparse.ArgumentTypeError(f"strategy list names no strategy, got {text!r}")
    if len(set(names)) != len(names):
        raise argparse.ArgumentTypeError(f"strategies must not repeat, got {text!r}")
    return [_STRATEGY_NAMES[name] for name in names]


def _given(**values) -> dict:
    """The keyword values of the flags the user gave (not None), so that
    every default lives in its config class alone."""
    return {name: value for name, value in values.items() if value is not None}


def _cluster_config(args) -> Optional[ClusterConfig]:
    names = ("min_radius", "max_radius", "max_cluster_size", "min_cluster_size")
    given = _given(**{name: getattr(args, name) for name in names})
    return _config(ClusterConfig, **given) if given else None


def _solver_params(args, rng_seed: Optional[int] = None) -> Optional[SolverParams]:
    """SolverParams from the solver flags; only `solve --seed` sets rng_seed,
    since `bench --seed` seeds the instance grid."""
    given = _given(
        time_limit_ms=args.time_limit_ms,
        optimization_step=args.optimization_step,
        rng_seed=rng_seed,
    )
    return _config(SolverParams, **given) if given else None


def _generator_flags(args) -> dict:
    """GeneratorConfig keywords for the --windows, --capacity and
    --demand-max flags the user gave."""
    return _given(
        window_style=None if args.windows is None else WindowStyle(args.windows),
        vehicle_capacity=args.capacity,
        demand_range=None if args.demand_max is None else (1, args.demand_max),
    )


def _add_solver_flags(parser) -> None:
    parser.add_argument("--time-limit-ms", type=int, default=None, help="search budget per solve")
    parser.add_argument("--optimization-step", type=float, default=None, help="minimum accepted improvement, meters")


def _add_cluster_flags(parser) -> None:
    parser.add_argument("--min-radius", type=int, default=None, help="radius search lower bound, meters")
    parser.add_argument("--max-radius", type=int, default=None, help="radius search upper bound, meters")
    parser.add_argument("--max-cluster-size", type=int, default=None, help="hard per-cluster size cap")
    parser.add_argument("--min-cluster-size", type=int, default=None, help="clusters smaller than this get merged")


def _cmd_generate(args) -> int:
    given = _given(seed=args.seed, fleet_size=args.fleet_size, **_generator_flags(args))
    config = _config(GeneratorConfig, n_waypoints=args.n, **given)
    instance = generate_instance(config)
    save_instance(instance, args.out)
    print(f"wrote {args.out}: {args.n} waypoints, {len(instance.vehicles)} vehicles")
    return 0


def _cmd_solve(args) -> int:
    instance = _load_instance_or_usage(args.instance)
    strategy = _STRATEGY_NAMES[args.strategy]
    try:
        result = run_strategy(
            instance,
            strategy,
            cluster_config=_cluster_config(args),
            params=_solver_params(args, args.seed),
        )
    except NoSolutionFoundError as exc:
        print(f"no solution: {exc}", file=sys.stderr)
        return 1
    save_plan(result.plan, args.out)
    if args.geojson:
        export_geojson(result.plan, instance, args.geojson)
    print(
        f"strategy={args.strategy} distance_m={result.total_distance:.0f} "
        f"vehicles={result.busy_vehicle_count} clusters={result.cluster_count} "
        f"wall_ms={result.wall_time_ms:.0f}"
    )
    return 0


def _cmd_cluster(args) -> int:
    instance = _load_instance_or_usage(args.instance)
    points = [wp.location for wp in instance.waypoints]
    config = _cluster_config(args) or ClusterConfig()
    try:
        if not points:
            cluster_set = ClusterSet(())
        elif args.flat:
            cluster_set, radius = binary_search_clusters(points, config, Feasibility.MAX_SIZE_CAP)
        else:
            cluster_set = recursive_dbscan(points, config)
    except NoSolutionFoundError as exc:
        print(f"no clustering: {exc}", file=sys.stderr)
        return 1
    doc = {
        "clusters": [
            {
                "members": [i + 1 for i in cluster.members],  # waypoint ids
                "radius": cluster.radius,
                "depth": cluster.depth,
            }
            for cluster in cluster_set.clusters
        ]
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
    sizes = sorted((len(c["members"]) for c in doc["clusters"]), reverse=True)
    print(f"wrote {args.out}: {len(sizes)} clusters, sizes {sizes}")
    return 0


def _cmd_bench(args) -> int:
    # a given --sizes or --reps is never empty or 0
    sizes = args.sizes or list(DEFAULT_SIZES)
    reps = args.reps or DEFAULT_REPS
    generator_flags = _generator_flags(args)
    generator = _config(GeneratorConfig, n_waypoints=1, **generator_flags) if generator_flags else None
    budget = None
    if not args.no_budget:
        budget = _config(BudgetConfig, **_given(memory_mb=args.budget_mb, wall_s=args.budget_wall_s))
    records = run_benchmark(
        sizes,
        reps,
        args.strategies or list(Strategy),
        generator=generator,
        cluster_config=_cluster_config(args),
        params=_solver_params(args),
        budget=budget,
        archive_dir=args.archive_dir,
        **_given(base_seed=args.seed),
    )
    export_csv(records, args.out)
    failures = sum(1 for r in records if r.status is not RunStatus.OK)
    print(f"wrote {args.out}: {len(records)} runs, {failures} not OK")
    for row in summarise(records):
        deltas = ", ".join(
            f"{name} {row[f'{name}_delta_pct']:+.1f}%"
            for name in ("runtime", "distance", "cars")
            if row.get(f"{name}_delta_pct") is not None
        )
        print(
            f"  n={row['wps']} {row['strategy']}: ok {row['ok']}/{row['runs']}"
            + (f", {deltas}" if deltas else "")
        )
    return 0


def _cmd_validate(args) -> int:
    instance = _load_instance_or_usage(args.instance)
    try:
        plan = load_plan(args.plan, instance)
    except (OSError, json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise _UsageError(f"cannot load plan {args.plan}: {exc}") from exc
    violations = validate_solution(plan, instance)
    if violations:
        for violation in violations:
            print(f"{violation.kind.value}: {violation.detail}")
        print(f"{len(violations)} violations")
        return 1
    print("plan is feasible")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="routeforge", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("generate", help="write a synthetic instance JSON")
    p_gen.add_argument("--n", type=int, required=True, help="waypoint count")
    p_gen.add_argument("--seed", type=int, default=None)
    p_gen.add_argument("--out", required=True)
    p_gen.add_argument("--windows", choices=[w.value for w in WindowStyle])
    p_gen.add_argument("--capacity", type=int, default=None, help="vehicle capacity")
    p_gen.add_argument("--fleet-size", type=int, default=None)
    p_gen.add_argument("--demand-max", type=int, default=None)
    p_gen.set_defaults(func=_cmd_generate)

    p_solve = sub.add_parser("solve", help="solve an instance file")
    p_solve.add_argument("instance")
    p_solve.add_argument("--strategy", choices=sorted(_STRATEGY_NAMES), default="recursive-dbscan")
    p_solve.add_argument("--out", required=True, help="plan JSON output path")
    p_solve.add_argument("--geojson", default=None, help="also write routes as GeoJSON")
    p_solve.add_argument("--seed", type=int, default=None, help="solver tie-breaking seed")
    _add_solver_flags(p_solve)
    _add_cluster_flags(p_solve)
    p_solve.set_defaults(func=_cmd_solve)

    p_cluster = sub.add_parser("cluster", help="dump the clustering for an instance")
    p_cluster.add_argument("instance")
    p_cluster.add_argument("--out", required=True)
    p_cluster.add_argument("--flat", action="store_true", help="single radius search instead of recursive")
    _add_cluster_flags(p_cluster)
    p_cluster.set_defaults(func=_cmd_cluster)

    p_bench = sub.add_parser("bench", help="run the strategy comparison grid")
    p_bench.add_argument("--out", required=True, help="CSV output path")
    p_bench.add_argument("--sizes", type=_waypoint_counts, default=None, help="comma-separated waypoint counts")
    p_bench.add_argument("--reps", type=lambda text: _int_at_least(text, 1, "repetitions must be a positive integer"))
    p_bench.add_argument("--strategies", type=_strategies, default=None, help="comma-separated subset of strategies")
    p_bench.add_argument(
        "--seed", type=lambda text: _int_at_least(text, 0, "seed must be a non-negative integer"), help="base seed for the grid"
    )
    p_bench.add_argument("--windows", choices=[w.value for w in WindowStyle])
    p_bench.add_argument("--capacity", type=int, default=None)
    p_bench.add_argument("--demand-max", type=int, default=None)
    p_bench.add_argument("--archive-dir", default=None, help="write each OK plan JSON here")
    p_bench.add_argument("--budget-mb", type=int)
    p_bench.add_argument("--budget-wall-s", type=float)
    p_bench.add_argument("--no-budget", action="store_true", help="run in-process without per-run limits")
    _add_solver_flags(p_bench)
    _add_cluster_flags(p_bench)
    p_bench.set_defaults(func=_cmd_bench)

    p_val = sub.add_parser("validate", help="check a plan file against an instance")
    p_val.add_argument("instance")
    p_val.add_argument("plan")
    p_val.set_defaults(func=_cmd_validate)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage, 0 on --help
        return int(exc.code) if exc.code is not None else 0
    try:
        return args.func(args)
    except _UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except OSError as exc:
        print(str(exc), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
