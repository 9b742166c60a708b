"""Seeded instance generators and the benchmark's workload definitions.

The generators live here, not in the test helpers, so that editing a test
cannot silently change a workload. Every instance is drawn from a
``random.Random`` seeded by the command line; the same seed gives the same
graphs, queries, tape profiles, driver seeds and pause-hook bit lists.

A workload is a list of ``Spec`` objects: one driver call each, with its
instance. The harness builds the tapes and runs the specs round-robin.
"""

from __future__ import annotations

import random
from collections import deque
from dataclasses import dataclass, field

from catgraph.graphs import AdjacencyGraph

DRIVERS = (
    "connect_det",
    "connect_rand",
    "connect_revertible",
    "estimate_dag",
    "estimate_general",
    "estimate_stationary",
)
WALK_DRIVERS = DRIVERS[3:]
TAPE_PROFILES = ("zeros", "ones", "random")


@dataclass
class Spec:
    """One driver call on one instance; `key` names it in the model records."""

    driver: str
    key: str
    graph: AdjacencyGraph
    s: int
    t: int
    profile: str
    tape_seed: int
    params: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------


def reachable_from(g: AdjacencyGraph, s: int) -> list[bool]:
    seen = [False] * g.n
    seen[s] = True
    queue = deque([s])
    while queue:
        u = queue.popleft()
        for w in g.out_lists[u]:
            if not seen[w]:
                seen[w] = True
                queue.append(w)
    return seen


def two_rings(rng: random.Random, n: int) -> tuple[AdjacencyGraph, int, int]:
    """Two disjoint directed cycles under a random labelling; s and t apart.

    No s->t path exists, so every randomized iteration runs: the worst case
    of the connectivity drivers.
    """
    a = n // 2
    label = list(range(n))
    rng.shuffle(label)
    ring_a, ring_b = label[:a], label[a:]
    edges = [(ring[i], ring[(i + 1) % len(ring)])
             for ring in (ring_a, ring_b) for i in range(len(ring))]
    return AdjacencyGraph.from_edges(n, edges), rng.choice(ring_a), rng.choice(ring_b)


def random_digraph_query(
    rng: random.Random, n: int, density: float, reachable: bool
) -> tuple[AdjacencyGraph, int, int]:
    """A loop-free digraph with round(density * n(n-1)) random edges and a
    pair (s, t), s != t, whose reachability is `reachable`; graphs are
    redrawn until such a pair exists."""
    pairs_all = [(u, v) for u in range(n) for v in range(n) if u != v]
    while True:
        g = AdjacencyGraph.from_edges(n, rng.sample(pairs_all, round(density * len(pairs_all))))
        pairs = []
        for s in range(n):
            reach = reachable_from(g, s)
            pairs.extend((s, t) for t in range(n) if t != s and reach[t] == reachable)
        if pairs:
            s, t = rng.choice(pairs)
            return g, s, t


def random_dag(rng: random.Random, n: int) -> tuple[AdjacencyGraph, int, int]:
    """A random DAG with 2n edges, a start s that is not a sink, and a sink t
    (reachable from s when one is)."""
    order = list(range(n))
    rng.shuffle(order)
    possible = [(order[i], order[j]) for i in range(n) for j in range(i + 1, n)]
    rng.shuffle(possible)
    g = AdjacencyGraph.from_edges(n, possible[: min(2 * n, len(possible))])
    s = rng.choice([v for v in range(n) if g.out_lists[v]])
    reach = reachable_from(g, s)
    sinks = [v for v in range(n) if not g.out_lists[v]]
    reached = [v for v in sinks if reach[v]]
    return g, s, rng.choice(reached or sinks)


def out_regular(rng: random.Random, n: int, d: int) -> AdjacencyGraph:
    """Every vertex has out-degree d, to distinct other vertices."""
    edges = []
    for u in range(n):
        edges.extend((u, v) for v in rng.sample([v for v in range(n) if v != u], d))
    return AdjacencyGraph.from_edges(n, edges)


def ergodic(rng: random.Random, n: int) -> AdjacencyGraph:
    """Strongly connected and aperiodic: a Hamiltonian cycle, a self-loop at
    0, and one extra random out-edge per vertex."""
    edges = {(v, (v + 1) % n) for v in range(n)}
    edges.add((0, 0))
    for u in range(n):
        edges.add((u, rng.randrange(n)))
    return AdjacencyGraph.from_edges(n, sorted(edges))


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


def _connect_specs(rng, driver, shapes, make):
    specs = []
    for i, shape in enumerate(shapes):
        g, s, t = make(rng, *shape)
        specs.append(Spec(driver, f"{driver}:{i}", g, s, t,
                          TAPE_PROFILES[i % 3], rng.getrandbits(32),
                          {"seed": rng.getrandbits(32)}))
    return specs


def _dag_specs(rng, shapes):
    specs = []
    for i, (n, eps) in enumerate(shapes):
        g, s, t = random_dag(rng, n)
        specs.append(Spec("estimate_dag", f"estimate_dag:{i}", g, s, t,
                          TAPE_PROFILES[i % 3], rng.getrandbits(32), {"eps": eps}))
    return specs


def _general_specs(rng, shapes):
    specs = []
    for i, (n, d, T, eps) in enumerate(shapes):
        g = out_regular(rng, n, d)
        s, t = rng.randrange(n), rng.randrange(n)
        specs.append(Spec("estimate_general", f"estimate_general:{i}", g, s, t,
                          TAPE_PROFILES[i % 3], rng.getrandbits(32),
                          {"T": T, "eps": eps}))
    return specs


def _stationary_specs(rng, shapes):
    specs = []
    for i, (n, mix, delta) in enumerate(shapes):
        g = ergodic(rng, n)
        specs.append(Spec("estimate_stationary", f"estimate_stationary:{i}", g,
                          rng.randrange(n), 0, TAPE_PROFILES[i % 3],
                          rng.getrandbits(32),
                          {"mix_time": mix, "delta": delta, "start": rng.randrange(n)}))
    return specs


def small(rng: random.Random) -> list[Spec]:
    """Small inputs where per-call fixed costs dominate: driver preamble and
    epilogue, digests, program construction, small-bank block I/O."""
    densities = (0.15, 0.25, 0.35)
    query_shapes = [(n, p, reach) for n in range(4, 11) for p in densities
                    for reach in (True, False)]
    rev_shapes = [(n, p, reach) for n in (4, 5, 6) for p in densities
                  for reach in (True, False)] * 2
    return (
        _connect_specs(rng, "connect_det", query_shapes, random_digraph_query)
        + _connect_specs(rng, "connect_rand", query_shapes, random_digraph_query)
        + _connect_specs(rng, "connect_revertible", rev_shapes, random_digraph_query)
        + _dag_specs(rng, [(n, eps) for n in range(6, 13) for eps in (0.2, 0.1)])
        + _general_specs(rng, [(n, 2, T, 0.25) for n in range(4, 9) for T in (2, 3, 4)])
        + _stationary_specs(rng, [(n, mix, 0.05) for n in range(4, 9) for mix in (2, 3)])
    )


def large(rng: random.Random) -> list[Spec]:
    """No-path two rings (every randomized iteration runs, wide registers and
    grouped extraction) and the larger walk instances, where the phase,
    shift, extraction and rotor kernels dominate."""
    return (
        _connect_specs(rng, "connect_det", [(16,), (24,), (32,)], two_rings)
        + _connect_specs(rng, "connect_rand", [(16,), (24,), (32,)], two_rings)
        + _connect_specs(rng, "connect_revertible", [(8,), (9,)], two_rings)
        + _dag_specs(rng, [(n, eps) for eps in (0.05, 0.02) for n in (20, 30, 40, 60)])
        + _general_specs(rng, [(8, 2, 4, 0.1), (12, 2, 6, 0.1), (16, 3, 8, 0.1)])
        + _stationary_specs(rng, [(10, 10, 0.02), (20, 10, 0.02), (40, 10, 0.02)])
    )


WORKLOADS = {"small": small, "large": large}


def build_specs(workload: str, seed: int) -> list[Spec]:
    """The workload's calls for this seed, interleaved across drivers so
    that every driver's calls are spread over each round."""
    specs = WORKLOADS[workload](random.Random(f"{workload}:{seed}"))
    by_driver = [[sp for sp in specs if sp.driver == d] for d in DRIVERS]
    longest = max(len(lst) for lst in by_driver)
    return [lst[i] for i in range(longest) for lst in by_driver if i < len(lst)]
