import random
from collections import Counter

import pytest

from catgraph.errors import GraphFormatError
from catgraph.graphs import (
    AdjacencyGraph,
    DegreeReducedView,
    GraphOracle,
    LayeredLiftView,
    SelfLoopView,
    SinkLoopsView,
    load_graph,
)
from catgraph.oracles import bfs_reach, count_paths, topological_order
from catgraph.walks import _out_lists

from helpers import random_graph


def test_load_path_graph():
    g = load_graph("3 2\n0 1\n1 2")
    assert (g.n, g.m) == (3, 2)
    assert g.out_neighbors(0) == [1]
    assert g.in_neighbors(2) == [1]


def test_load_isolated_vertices():
    g = load_graph("2 0")
    assert (g.n, g.m) == (2, 0)


def test_load_comments_and_blank_lines():
    g = load_graph("# header\n\n3 1\n# edge\n0 2\n")
    assert g.out_neighbors(0) == [2]


def test_load_vertex_out_of_range():
    with pytest.raises(GraphFormatError):
        load_graph("2 1\n0 5")


def test_load_duplicate_edge_rejected():
    with pytest.raises(GraphFormatError):
        load_graph("3 2\n0 1\n0 1")


def test_load_malformed():
    with pytest.raises(GraphFormatError):
        load_graph("3 1\n0 1 2")
    with pytest.raises(GraphFormatError):
        load_graph("nonsense")
    with pytest.raises(GraphFormatError):
        load_graph("3 2\n0 1")
    with pytest.raises(GraphFormatError):
        load_graph("")


def test_neighbor_queries_absent_sentinel():
    g = load_graph("2 1\n0 1")
    assert g.outnbr(0, 0) == 1
    assert g.outnbr(0, 1) is None
    assert g.innbr(0, 0) is None


def test_oracle_in_out_consistency():
    rng = random.Random(0)
    for _ in range(30):
        g = random_graph(rng, rng.randint(1, 8))
        for u in range(g.n):
            for v in g.out_neighbors(u):
                assert u in g.in_neighbors(v)
        for v in range(g.n):
            for u in g.in_neighbors(v):
                assert v in g.out_neighbors(u)


# --- degree reduction -------------------------------------------------------


def test_reduce_star_matches_tree_construction():
    # u1..u4 = vertices 0..3 feeding v = 4
    g = AdjacencyGraph.from_edges(5, [(0, 4), (1, 4), (2, 4), (3, 4)])
    view = DegreeReducedView(g)
    enc = view.encode
    assert view.in_neighbors(enc(4, 0)) == [enc(4, 1), enc(4, 2)]
    assert view.in_neighbors(enc(4, 1)) == [enc(0, 0), enc(1, 0)]
    assert view.in_neighbors(enc(4, 2)) == [enc(2, 0), enc(3, 0)]
    assert sorted(view.iter_nonisolated()) == sorted(
        [enc(u, 0) for u in range(4)] + [enc(4, 0), enc(4, 1), enc(4, 2)]
    )


def test_reduce_low_indegree_keeps_direct_edges():
    g = AdjacencyGraph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    view = DegreeReducedView(g)
    for v in range(4):
        assert view.indeg(v) == 1
        assert view.in_neighbors(v) == [(v - 1) % 4]
        assert view.outdeg(v) == 1


def test_reduce_max_indegree_two():
    rng = random.Random(1)
    for _ in range(60):
        g = random_graph(rng, rng.randint(2, 8), p=0.6)
        view = DegreeReducedView(g)
        for vid in range(view.n):
            assert view.indeg(vid) <= 2


def test_reduce_preserves_reachability():
    rng = random.Random(2)
    for _ in range(100):
        n = rng.randint(2, 8)
        g = random_graph(rng, n, p=rng.choice((0.2, 0.4, 0.7)))
        view = DegreeReducedView(g)
        base_reach = bfs_reach(g)
        view_reach = bfs_reach(view)
        for s in range(n):
            for t in range(n):
                assert view_reach[s][t] == base_reach[s][t], (s, t)


def test_reduce_nonisolated_enumeration_matches_scan():
    rng = random.Random(3)
    for _ in range(40):
        n = rng.randint(2, 7)
        g = random_graph(rng, n, p=0.5)
        view = DegreeReducedView(g)
        listed = sorted(view.iter_nonisolated())
        scanned = [
            vid for vid in range(view.n)
            if view.indeg(vid) + view.outdeg(vid) > 0
        ]
        assert listed == sorted(scanned)
        assert len(listed) <= 2 * g.m + n


def test_reduce_edgeless_enumeration_empty():
    g = AdjacencyGraph.from_edges(3, [])
    assert list(DegreeReducedView(g).iter_nonisolated()) == []


def test_reduce_edges_project_to_base_edges_or_loops():
    rng = random.Random(4)
    for _ in range(25):
        g = random_graph(rng, rng.randint(2, 6), p=0.5)
        view = DegreeReducedView(g)
        base_edges = set(g.edges())
        for vid in range(view.n):
            y, _ = view.decode(vid)
            for j in range(view.indeg(vid)):
                uid = view.innbr(vid, j)
                x, _ = view.decode(uid)
                assert x == y or (x, y) in base_edges


def test_reduce_outnbr_exhaustive_search_consistent():
    rng = random.Random(5)
    for _ in range(8):
        g = random_graph(rng, rng.randint(2, 5), p=0.6)
        view = DegreeReducedView(g)
        edges_by_in = {}
        for vid in range(view.n):
            for j in range(view.indeg(vid)):
                edges_by_in.setdefault(view.innbr(vid, j), []).append(vid)
        for uid in range(view.n):
            expected = sorted(edges_by_in.get(uid, []))
            assert view.outdeg(uid) == len(expected)
            got = [view.outnbr(uid, j) for j in range(view.outdeg(uid))]
            assert got == expected
            assert view.outnbr(uid, view.outdeg(uid)) is None


def test_reduce_degree_rejects_tiny_graph():
    with pytest.raises(ValueError):
        DegreeReducedView(AdjacencyGraph.from_edges(1, []))


# --- layered lift ------------------------------------------------------------


def test_lift_zero_layers_all_sinks():
    g = AdjacencyGraph.from_edges(3, [(0, 1), (1, 2)])
    lift = LayeredLiftView(g, 0)
    assert lift.n == 3
    assert all(lift.outdeg(v) == 0 for v in range(lift.n))


def test_lift_single_edge_unrolls():
    g = AdjacencyGraph.from_edges(2, [(0, 1)])
    lift = LayeredLiftView(g, 2)
    edges = [
        (u, lift.outnbr(u, i))
        for u in range(lift.n)
        for i in range(lift.outdeg(u))
    ]
    assert edges == [
        (lift.encode(0, 0), lift.encode(1, 1)),
        (lift.encode(1, 0), lift.encode(2, 1)),
    ]
    assert all(lift.outdeg(lift.encode(2, v)) == 0 for v in range(2))


def test_lift_edge_count_and_acyclicity():
    rng = random.Random(6)
    for _ in range(25):
        g = random_graph(rng, rng.randint(1, 7), p=0.5)
        T = rng.randint(0, 5)
        lift = LayeredLiftView(g, T)
        total = sum(lift.outdeg(v) for v in range(lift.n))
        assert total == g.m * T
        assert topological_order(lift) is not None
        for v in range(lift.n):
            assert lift.indeg(v) == len(lift.in_neighbors(v))


# --- self-loop wrappers -------------------------------------------------------


def test_virtual_self_loop_singleton():
    g = AdjacencyGraph.from_edges(1, [])
    looped = SelfLoopView(g, 0)
    assert looped.outdeg(0) == looped.indeg(0) == 1
    for k in (1, 5, 9):
        assert count_paths(looped, 0, k)[0] == 1


def test_virtual_self_loop_pads_path_lengths():
    g = AdjacencyGraph.from_edges(2, [(0, 1)])
    looped = SelfLoopView(g, 1)
    assert count_paths(looped, 0, 5)[1] == 1


def test_virtual_self_loop_preserves_reachability():
    rng = random.Random(7)
    for _ in range(30):
        g = random_graph(rng, rng.randint(1, 7))
        t = rng.randrange(g.n)
        looped = SelfLoopView(g, t)
        assert bfs_reach(looped) == bfs_reach(g)


def test_sink_loops_view_consistency():
    g = AdjacencyGraph.from_edges(4, [(0, 1), (0, 2), (1, 3)])
    view = SinkLoopsView(g)
    assert view.outdeg(2) == 1 and view.outnbr(2, 0) == 2
    assert view.outdeg(3) == 1 and view.outnbr(3, 0) == 3
    assert view.outdeg(0) == 2
    # loops at listed vertices: the last out-edge, in sorted in-neighbor order
    g2 = AdjacencyGraph.from_edges(4, [(0, 1), (2, 1), (1, 3)])
    looped = SelfLoopView(g2, 1, 3)
    assert looped.out_neighbors(1) == [3, 1] and looped.outnbr(1, 2) is None
    assert looped.in_neighbors(1) == [0, 1, 2]
    for view in (view, looped):
        for v in range(4):
            for u in view.in_neighbors(v):
                assert v in view.out_neighbors(u)
            assert view.in_neighbors(v) == sorted(view.in_neighbors(v))
            assert view.indeg(v) == len(view.in_neighbors(v))


def test_lift_edge_count_answers_from_its_base():
    # T copies of the base's edges, none out of the last layer: the same
    # count as summing the lift's out-degrees over all (T+1)*n vertices
    rng = random.Random(19)
    sinks = 0
    for _ in range(40):
        g = random_graph(rng, rng.randint(1, 8), p=rng.choice((0.1, 0.3)))
        sinks += sum(g.outdeg(v) == 0 for v in range(g.n))
        for base in (g, SinkLoopsView(g)):
            for T in (0, 1, 3):
                lift = LayeredLiftView(base, T)
                assert lift.edge_count() == GraphOracle.edge_count(lift)
    assert sinks > 0


def test_lift_out_lists_longest_is_the_largest_outdeg():
    # estimate_dag's edge_choice range comes from the longest out-list:
    # the base's largest out-degree, or 0 with no layer to leave, the same
    # as the brute-force maximum over all (T+1)*n lift vertices
    rng = random.Random(23)
    sinks = 0
    for _ in range(40):
        g = random_graph(rng, rng.randint(1, 8), p=rng.choice((0.1, 0.3)))
        sinks += sum(g.outdeg(v) == 0 for v in range(g.n))
        for base in (g, SinkLoopsView(g)):
            for T in (0, 1, 3):
                lift = LayeredLiftView(base, T)
                want = max(lift.outdeg(v) for v in range(lift.n))
                assert max(map(len, _out_lists(lift)), default=0) == want
    assert sinks > 0


def test_out_neighbors_list_the_per_index_answers():
    # the walks read each out-list once with `out_neighbors`: every view
    # lists the out-edges that its `outdeg` and `outnbr` queries give,
    # sinks and the lift's last layer (all sinks) included
    rng = random.Random(17)
    empty = Counter()
    for _ in range(40):
        g = random_graph(rng, rng.randint(1, 8), p=rng.choice((0.1, 0.3)))
        looped = SelfLoopView(g, *rng.sample(range(g.n), rng.randint(0, g.n)))
        views = [g, looped, SinkLoopsView(g)]
        views += [LayeredLiftView(view, T) for view in views for T in (0, 1, 3)]
        for view in views:
            for v in range(view.n):
                nb = view.out_neighbors(v)
                assert nb == [view.outnbr(v, i) for i in range(view.outdeg(v))]
                if not nb:
                    last = type(view) is LayeredLiftView and v >= view.layers * view.base_n
                    empty["last layer" if last else "sink"] += 1
                nb.append(v)  # a caller's list, not the graph's
                assert view.outdeg(v) == len(nb) - 1
    assert empty["sink"] > 0 and empty["last layer"] > 0
