import random
from fractions import Fraction

import numpy as np
import pytest

from catgraph.errors import SinkVertexError
from catgraph.graphs import AdjacencyGraph
from catgraph.oracles import (
    bfs_reach,
    count_paths,
    count_paths_layers,
    dag_reach_probabilities,
    is_acyclic,
    mixing_error,
    rotor_route_dag,
    stationary_exact,
    transitive_closure,
    walk_distribution,
    zeta_table,
)

from catgraph.walks import FWD, VisitCounters

from helpers import ergodic_graph, figure_dag, random_dag, random_graph, reference_walk


def test_bfs_reach_path_graph():
    g = AdjacencyGraph.from_edges(3, [(0, 1), (1, 2)])
    reach = bfs_reach(g)
    assert reach[0][2] and not reach[2][0]


def test_bfs_reach_edgeless_is_identity():
    g = AdjacencyGraph.from_edges(4, [])
    assert bfs_reach(g) == [[i == j for j in range(4)] for i in range(4)]


def test_bfs_matches_transitive_closure():
    rng = random.Random(0)
    for _ in range(40):
        g = random_graph(rng, rng.randint(1, 8))
        assert bfs_reach(g) == transitive_closure(g)


def test_count_paths_length_zero():
    g = AdjacencyGraph.from_edges(3, [(0, 1)])
    assert count_paths(g, 1, 0) == [0, 1, 0]


def test_count_paths_diamond():
    g = AdjacencyGraph.from_edges(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
    assert count_paths(g, 0, 2)[3] == 2


def test_count_paths_within_bound():
    rng = random.Random(1)
    for _ in range(30):
        n = rng.randint(1, 6)
        g = random_graph(rng, n, p=0.6)
        T = rng.randint(0, 5)
        for c in count_paths(g, rng.randrange(n), T):
            assert c <= n**T


def test_zeta_base_case_single_vertex():
    g = AdjacencyGraph.from_edges(1, [])
    assert zeta_table(g, 0, 0)[0][0] == 1


def test_zeta_nonzero_iff_short_enough_path():
    rng = random.Random(2)
    for _ in range(40):
        n = rng.randint(1, 6)
        g = random_graph(rng, n, p=0.4)
        s = rng.randrange(n)
        T = rng.randint(0, 6)
        table = zeta_table(g, s, T)
        # distance oracle by layered path counts
        counts = count_paths_layers(g, s, T)
        for v in range(n):
            reachable_short = any(counts[i][v] > 0 for i in range(T + 1))
            assert (table[T][v] > 0) == reachable_short
            assert table[T][v] <= (n + 1) ** T


def test_walk_distribution_point_mass():
    g = AdjacencyGraph.from_edges(2, [(0, 1), (1, 0)])
    assert walk_distribution(g, 0, 0) == [1, 0]


def test_walk_distribution_rejects_sinks():
    g = AdjacencyGraph.from_edges(2, [(0, 1)])
    with pytest.raises(SinkVertexError):
        walk_distribution(g, 0, 3)


def test_walk_distribution_sums_to_one_exact():
    rng = random.Random(3)
    for _ in range(20):
        g = ergodic_graph(rng, rng.randint(2, 8))
        dist = walk_distribution(g, 0, rng.randint(0, 6))
        assert sum(dist) == Fraction(1)


def test_walk_distribution_float_mode_matches_exact():
    rng = random.Random(4)
    g = ergodic_graph(rng, 6)
    exact = walk_distribution(g, 0, 5, exact=True)
    floats = walk_distribution(g, 0, 5, exact=False)
    for a, b in zip(exact, floats):
        assert abs(float(a) - b) < 1e-9


def test_figure_reach_probabilities():
    g = figure_dag()
    p = dag_reach_probabilities(g, 0)
    assert p == [
        Fraction(1),
        Fraction(1, 2), Fraction(1, 2),
        Fraction(1, 4), Fraction(1, 2), Fraction(1, 4),
        Fraction(1, 2), Fraction(1, 2),
    ]


def test_stationary_four_cycle_uniform():
    g = AdjacencyGraph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    pi = stationary_exact(g)
    assert np.allclose(pi, 0.25)


def test_stationary_complete_with_self_loops_uniform():
    g = AdjacencyGraph.from_edges(3, [(u, v) for u in range(3) for v in range(3)])
    pi = stationary_exact(g)
    assert np.allclose(pi, 1 / 3)


def test_stationary_fixed_point_residual():
    rng = random.Random(5)
    from catgraph.oracles import walk_matrix

    for _ in range(15):
        g = ergodic_graph(rng, rng.randint(2, 10))
        pi = stationary_exact(g, tol=1e-13)
        W = walk_matrix(g)
        assert np.abs(W @ pi - pi).sum() <= 1e-10


def test_mixing_error_shrinks():
    rng = random.Random(6)
    g = ergodic_graph(rng, 6, extra=2)
    errs = [mixing_error(g, T) for T in (1, 4, 16, 64)]
    assert errs[-1] <= errs[0]
    assert errs[-1] < 0.01


def test_is_acyclic():
    assert is_acyclic(AdjacencyGraph.from_edges(3, [(0, 1), (1, 2)]))
    assert not is_acyclic(AdjacencyGraph.from_edges(2, [(0, 1), (1, 0)]))
    assert not is_acyclic(AdjacencyGraph.from_edges(1, [(0, 0)]))


def test_rotor_route_dag_matches_sequential_walks():
    rng = random.Random(23)
    wrapped = over_period = 0
    for _ in range(400):
        g = random_dag(rng, rng.randint(1, 12))
        s = rng.randrange(g.n)
        width = rng.randint(1, 5)
        K = rng.randint(0, 80)
        init = [rng.randrange(1 << width) for _ in range(g.n)]
        values = list(init)
        counters = VisitCounters.for_graph(g)
        for _ in range(K):
            reference_walk(g, s, FWD, values, width, counters, None, None)
        chips, edge_chips, registers = rotor_route_dag(g, s, K, init, width)
        assert chips == counters.visits
        assert edge_chips == counters.transitions
        assert registers == values
        wrapped += any(g.outdeg(v) and init[v] + chips[v] > 1 << width
                       for v in range(g.n))
        over_period += K > 1 << width
    assert wrapped > 50 and over_period > 50


def test_rotor_route_dag_rejects_cycles():
    g = AdjacencyGraph.from_edges(2, [(0, 1), (1, 0)])
    with pytest.raises(ValueError):
        rotor_route_dag(g, 0, 1, [0, 0], 1)
