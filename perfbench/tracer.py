"""Spans around the calls ``pipeline`` makes into the other layers.

The tracer swaps module attributes for timing wrappers inside the worker
process only, so the program itself carries no tracing code.  Each span
records its name, start, end, parent span and a few counters read from the
call's arguments and result after the clock has stopped.  ``layer_metrics``
turns the spans of one round into the per-layer metrics.
"""

from __future__ import annotations

import sys
import time
from typing import Callable

# (module, attribute, span name).  The modules are read from sys.modules:
# ``routeforge.dbscan`` as a package attribute is the re-exported function.
WRAPPED = (
    ("routeforge.pipeline", "recursive_dbscan", "clusterer.recursive_dbscan"),
    ("routeforge.pipeline", "binary_search_clusters", "clusterer.binary_search_clusters"),
    ("routeforge.pipeline", "optimise_clusters", "pipeline.optimise_clusters"),
    ("routeforge.pipeline", "solve_cvrptw", "solver.solve_cvrptw"),
    ("routeforge.pipeline", "validate_solution", "pipeline.validate_solution"),
    ("routeforge.pipeline", "evaluate_objective", "pipeline.evaluate_objective"),
    ("routeforge.clusterer", "dbscan", "dbscan.dbscan"),
    ("routeforge.clusterer", "pairwise_meters", "dbscan.pairwise_meters"),
    ("routeforge.solver", "build_matrix", "solver.build_matrix"),
    ("routeforge.solver", "path_cheapest_arc", "solver.path_cheapest_arc"),
    ("routeforge.solver", "local_search", "solver.local_search"),
    ("routeforge.solver", "validate_solution", "solver.validate_solution"),
)

CLUSTERER_SPANS = ("clusterer.recursive_dbscan", "clusterer.binary_search_clusters")


def _plan_meters(plan, matrix) -> float:
    total = 0.0
    for route in plan.routes:
        prev = 0
        for stop in route.stops:
            total += matrix.d(prev, stop.waypoint_id)
            prev = stop.waypoint_id
    return total


def _cluster_attrs(cluster_set) -> dict:
    return {
        "clusters": len(cluster_set.clusters),
        "peak": max(cluster_set.sizes(), default=0),
        "depth": max((c.depth for c in cluster_set.clusters), default=0),
    }


def _annotate(name: str, args: tuple, kwargs: dict, result) -> dict:
    if name == "clusterer.recursive_dbscan":
        return _cluster_attrs(result)
    if name == "clusterer.binary_search_clusters":
        return _cluster_attrs(result[0])
    if name == "dbscan.dbscan":
        n = len(args[0])
        limit = sys.modules["routeforge.dbscan"].BRUTE_FORCE_LIMIT
        grid = kwargs.get("pairwise") is None and n > limit
        return {"points": n, "grid": grid}
    if name == "dbscan.pairwise_meters":
        return {"cells": len(args[0]) ** 2}
    if name == "solver.build_matrix":
        return {"cells": result.n**2}
    if name == "solver.path_cheapest_arc":
        return {"routes": len(result.routes)}
    if name == "solver.local_search":
        plan, _, matrix = args[:3]
        stats = kwargs["stats"]
        return {
            "evals": stats["evals"],
            "accepted": stats["accepted"],
            "converged": stats["converged"],
            "gain_m": _plan_meters(plan, matrix) - _plan_meters(result, matrix),
        }
    return {}


class Tracer:
    """Records spans in memory while installed."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, Callable]] = []

    def span(self, name: str, fn: Callable, *args, **kwargs):
        """Call ``fn`` inside a span named ``name`` and return its result."""
        index = len(self.spans)
        record = {"name": name, "parent": self._stack[-1] if self._stack else None, "attrs": {}}
        self.spans.append(record)
        self._stack.append(index)
        record["start"] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()
        record["attrs"] = _annotate(name, args, kwargs, result)
        return result

    def _wrapper(self, name: str, fn: Callable) -> Callable:
        def traced(*args, **kwargs):
            if name == "solver.local_search" and kwargs.get("stats") is None:
                kwargs["stats"] = {}
            return self.span(name, fn, *args, **kwargs)

        return traced

    def install(self) -> None:
        for module_name, attr, name in WRAPPED:
            module = sys.modules[module_name]
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrapper(name, original))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)


def _duration(span: dict) -> float:
    return span["end"] - span["start"]


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer totals over every span of one traced round."""
    by_name: dict[str, list[dict]] = {}
    for span in spans:
        by_name.setdefault(span["name"], []).append(span)

    def total(*names: str) -> float:
        return sum(_duration(s) for n in names for s in by_name.get(n, ()))

    def attr_sum(name: str, key: str) -> float:
        return sum(s["attrs"][key] for s in by_name.get(name, ()))

    def children_time(parent_names: tuple, child_names: tuple) -> float:
        parents = {i for i, s in enumerate(spans) if s["name"] in parent_names}
        return sum(
            _duration(s) for s in spans if s["name"] in child_names and s["parent"] in parents
        )

    clusterer = [s for n in CLUSTERER_SPANS for s in by_name.get(n, ())]
    probes = by_name.get("dbscan.dbscan", [])
    searches = by_name.get("solver.local_search", [])
    evals = attr_sum("solver.local_search", "evals")
    accepted = attr_sum("solver.local_search", "accepted")
    clusterer_s = total(*CLUSTERER_SPANS)
    optimise_s = total("pipeline.optimise_clusters")
    return {
        "clusterer.time_s": clusterer_s,
        "clusterer.self_s": clusterer_s
        - children_time(CLUSTERER_SPANS, ("dbscan.dbscan", "dbscan.pairwise_meters")),
        "clusterer.probes": len(probes),
        "clusterer.clusters": sum(s["attrs"]["clusters"] for s in clusterer),
        "clusterer.peak_cluster_size": max((s["attrs"]["peak"] for s in clusterer), default=0),
        "clusterer.max_depth": max((s["attrs"]["depth"] for s in clusterer), default=0),
        "dbscan.time_s": total("dbscan.dbscan"),
        "dbscan.grid_probes": sum(1 for s in probes if s["attrs"]["grid"]),
        "dbscan.dense_probes": sum(1 for s in probes if not s["attrs"]["grid"]),
        "dbscan.points_probed": sum(s["attrs"]["points"] for s in probes),
        "dbscan.pairwise_s": total("dbscan.pairwise_meters"),
        "dbscan.pairwise_cells": attr_sum("dbscan.pairwise_meters", "cells"),
        "solver.matrix_s": total("solver.build_matrix"),
        "solver.matrix_cells": attr_sum("solver.build_matrix", "cells"),
        "solver.greedy_s": total("solver.path_cheapest_arc"),
        "solver.greedy_routes": attr_sum("solver.path_cheapest_arc", "routes"),
        "solver.search_s": total("solver.local_search"),
        "solver.search_evals": evals,
        "solver.search_accepted": accepted,
        "solver.search_accept_ratio": accepted / evals if evals else 0.0,
        "solver.search_converged": (
            sum(1 for s in searches if s["attrs"]["converged"]) / len(searches) if searches else 0.0
        ),
        "solver.search_gain_km": attr_sum("solver.local_search", "gain_m") / 1000.0,
        "solver.validate_s": total("solver.validate_solution"),
        "pipeline.assembly_s": optimise_s
        - children_time(("pipeline.optimise_clusters",), ("solver.solve_cvrptw",)),
        "pipeline.check_s": total("pipeline.validate_solution", "pipeline.evaluate_objective"),
        "pipeline.subsolves": sum(
            1
            for s in by_name.get("solver.solve_cvrptw", ())
            if s["parent"] is not None and spans[s["parent"]]["name"] == "pipeline.optimise_clusters"
        ),
    }
