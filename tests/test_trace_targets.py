"""The traced benchmark run (bench/spans.py) wraps catgraph functions by name.

A rename in catgraph that the span list does not follow would only show up
as a crash of `bench/run.py --trace 1`; this test makes it fail here instead.
"""

import importlib.util
from pathlib import Path

import numpy as np

from catgraph import connectivity, walks
from catgraph.graphs import AdjacencyGraph

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_trace_targets_exist_and_record_every_layer():
    spans = _load_spans()
    for owner, attr, group, _amount in spans._targets():
        assert hasattr(owner, attr), f"{group}: {owner}.{attr}"
    g = AdjacencyGraph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    ring = AdjacencyGraph.from_edges(3, [(0, 0), (0, 1), (1, 2), (2, 0)])
    tracer = spans.Tracer()
    uninstall = spans.install(tracer)
    try:
        connectivity.connect_det(g, 0, 3)
        connectivity.connect_rand(g, 3, 0, seed=1)
        connectivity.connect_revertible(g, 0, 3, seed=1)
        walks.estimate_dag(g, 0, 3, 0.5)
        walks.estimate_general(g, 0, 3, 3, 0.5)
        walks.estimate_stationary(ring, 0, 2, 0.5)
    finally:
        uninstall()
    arrays = tracer.arrays()
    summary = spans.summarize(tracer.names, arrays)
    groups = summary["groups"]
    for group in ("connectivity.iteration", "connectivity.phase",
                  "connectivity.layer_push", "walks.registers"):
        assert groups[group]["calls"] > 0, group
    assert groups["connectivity.layer_push"]["amount"] > 0
    def drivers_of(group):
        spans_of_group = summary["span_group"] == summary["group_ids"][group]
        return {tracer.call_driver[c] for c in arrays["call"][spans_of_group]}

    assert {"estimate_dag", "estimate_general",
            "estimate_stationary"} <= drivers_of("walks.registers")
    assert {"connect_det", "connect_rand",
            "connect_revertible"} <= drivers_of("connectivity.answer")
    # the randomized drivers shift their register spans through the traced
    # `shift_indices`, which reports each span's length as its register count
    assert {"connect_rand", "connect_revertible"} <= drivers_of("tape.shift")
    assert groups["tape.shift"]["amount"] > 0
    # each program's phases land in its own layer group
    assert drivers_of("connectivity.phase") == {"connect_det", "connect_rand"}
    assert drivers_of("connectivity.layer_push") == {"connect_revertible"}
    # every push and reverse run makes its T phases through the traced
    # entry points, so a rewrite of the phase loop cannot go round them
    driver_of_span = np.array(tracer.call_driver)[arrays["call"]]

    def calls_of(group, driver):
        return int(np.count_nonzero(
            summary["outer"] & (driver_of_span == driver)
            & (summary["span_group"] == summary["group_ids"][group])))

    phases = {"connect_det": ("connectivity.phase", g.n),
              "connect_rand": ("connectivity.phase", g.n),
              "connect_revertible": ("connectivity.layer_push",
                                     connectivity.revertible_parameters(g)["T"])}
    for driver, (group, T) in phases.items():
        runs = (calls_of("connectivity.push_run", driver)
                + calls_of("connectivity.reverse_run", driver))
        assert calls_of(group, driver) == T * runs > 0, driver
