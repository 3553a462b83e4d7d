"""The tracer must not change the plans it measures, and must clean up.

Run from the repository root:

    python3 -m pytest -q perfbench/test_tracer.py
"""

from __future__ import annotations

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from routeforge import GeneratorConfig, Strategy, generate_instance, run_strategy  # noqa: E402
from tracer import WRAPPED, Tracer, layer_metrics  # noqa: E402


def test_traced_solve_gives_the_same_plan_and_consistent_counts():
    instance = generate_instance(GeneratorConfig(n_waypoints=300, seed=2))
    plain = run_strategy(instance, Strategy.RECURSIVE_DBSCAN)
    originals = [getattr(sys.modules[m], a) for m, a, _ in WRAPPED]

    tracer = Tracer()
    tracer.install()
    try:
        traced = tracer.span("pipeline.run_strategy", run_strategy, instance, Strategy.RECURSIVE_DBSCAN)
    finally:
        tracer.uninstall()

    assert [getattr(sys.modules[m], a) for m, a, _ in WRAPPED] == originals
    assert traced.plan == plain.plan
    metrics = layer_metrics(tracer.spans)
    assert metrics["pipeline.subsolves"] == plain.cluster_count
    assert metrics["clusterer.clusters"] == plain.cluster_count
    assert metrics["clusterer.peak_cluster_size"] == plain.peak_cluster_size
    # 300 points are below the grid threshold, so every probe is dense.
    assert metrics["dbscan.grid_probes"] == 0
    assert metrics["dbscan.dense_probes"] == metrics["clusterer.probes"] > 0
    assert 0.0 <= metrics["clusterer.self_s"] <= metrics["clusterer.time_s"]
    assert 0.0 <= metrics["pipeline.assembly_s"]
    assert metrics["solver.greedy_routes"] >= plain.busy_vehicle_count
    assert metrics["solver.search_gain_km"] >= 0.0
