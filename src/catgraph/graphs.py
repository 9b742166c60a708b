"""Query-access digraphs: adjacency backend, degree reduction, layered lift.

All views are lazy — degree/neighbor queries are computed per call and the
lifted vertex sets are never materialized. Connectivity code only needs
in-edge access and walk code only out-edge access, matching the oracle split.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque

from .errors import GraphFormatError
from .tape import ceil_log2


class GraphOracle:
    """Query interface: vertex count plus degree / i-th neighbor lookups.

    Neighbor queries return None (the absent marker) when the index is out of
    range, rather than raising.
    """

    n: int

    def indeg(self, v: int) -> int:
        raise NotImplementedError

    def outdeg(self, v: int) -> int:
        raise NotImplementedError

    def innbr(self, v: int, i: int) -> int | None:
        raise NotImplementedError

    def outnbr(self, v: int, i: int) -> int | None:
        raise NotImplementedError

    def in_neighbors(self, v: int) -> list[int]:
        return [self.innbr(v, i) for i in range(self.indeg(v))]

    def out_neighbors(self, v: int) -> list[int]:
        return [self.outnbr(v, i) for i in range(self.outdeg(v))]

    def edge_count(self) -> int:
        return sum(self.outdeg(v) for v in range(self.n))


class AdjacencyGraph(GraphOracle):
    """In-memory backend with both adjacency directions, sorted ascending."""

    def __init__(self, n: int, out_lists: list[list[int]], in_lists: list[list[int]], m: int):
        self.n = n
        self.out_lists = out_lists
        self.in_lists = in_lists
        self.m = m

    @classmethod
    def from_edges(cls, n: int, edges) -> "AdjacencyGraph":
        if n < 0:
            raise GraphFormatError("vertex count must be nonnegative")
        out_lists = [[] for _ in range(n)]
        in_lists = [[] for _ in range(n)]
        seen = set()
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise GraphFormatError(f"vertex id out of range in edge ({u}, {v})")
            if (u, v) in seen:
                raise GraphFormatError(f"duplicate edge ({u}, {v})")
            seen.add((u, v))
            out_lists[u].append(v)
            in_lists[v].append(u)
        for lst in out_lists:
            lst.sort()
        for lst in in_lists:
            lst.sort()
        return cls(n, out_lists, in_lists, len(seen))

    def indeg(self, v: int) -> int:
        return len(self.in_lists[v])

    def outdeg(self, v: int) -> int:
        return len(self.out_lists[v])

    def innbr(self, v: int, i: int) -> int | None:
        lst = self.in_lists[v]
        return lst[i] if 0 <= i < len(lst) else None

    def outnbr(self, v: int, i: int) -> int | None:
        lst = self.out_lists[v]
        return lst[i] if 0 <= i < len(lst) else None

    def out_neighbors(self, v: int) -> list[int]:
        """A copy of v's out-list, so the caller cannot change the graph."""
        return list(self.out_lists[v])

    def edge_count(self) -> int:
        return self.m

    def edges(self):
        for u, targets in enumerate(self.out_lists):
            for v in targets:
                yield (u, v)


def load_graph(text: str) -> AdjacencyGraph:
    """Parse the text format: '# comments', then 'n m', then m lines 'u v'."""
    header = None
    edges = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if header is None:
            if len(parts) != 2:
                raise GraphFormatError(f"line {lineno}: expected 'n m' header")
            try:
                header = (int(parts[0]), int(parts[1]))
            except ValueError:
                raise GraphFormatError(f"line {lineno}: non-integer header") from None
            if header[0] < 0 or header[1] < 0:
                raise GraphFormatError(f"line {lineno}: negative header values")
            continue
        if len(parts) != 2:
            raise GraphFormatError(f"line {lineno}: expected edge 'u v'")
        try:
            edges.append((int(parts[0]), int(parts[1])))
        except ValueError:
            raise GraphFormatError(f"line {lineno}: non-integer edge") from None
    if header is None:
        raise GraphFormatError("missing 'n m' header line")
    n, m = header
    if len(edges) != m:
        raise GraphFormatError(f"header declares {m} edges, found {len(edges)}")
    return AdjacencyGraph.from_edges(n, edges)


def read_graph_file(path: str) -> AdjacencyGraph:
    with open(path, "r", encoding="utf-8") as fh:
        return load_graph(fh.read())


def is_acyclic(g: GraphOracle) -> bool:
    return topological_order(g) is not None


def topological_order(g: GraphOracle) -> list[int] | None:
    """Kahn's algorithm; None when the graph has a cycle."""
    n = g.n
    indeg = [0] * n
    for u in range(n):
        for i in range(g.outdeg(u)):
            indeg[g.outnbr(u, i)] += 1
    queue = deque(v for v in range(n) if indeg[v] == 0)
    order = []
    while queue:
        u = queue.popleft()
        order.append(u)
        for i in range(g.outdeg(u)):
            w = g.outnbr(u, i)
            indeg[w] -= 1
            if indeg[w] == 0:
                queue.append(w)
    return order if len(order) == n else None


class SelfLoopView(GraphOracle):
    """Wrapper adding one virtual self-loop at each listed vertex.

    The loop is the vertex's last out-edge, and it sits in sorted position
    among the vertex's in-neighbors; it is a new edge even if the base graph
    already loops there.
    """

    def __init__(self, base: GraphOracle, *vertices: int):
        for v in vertices:
            if not 0 <= v < base.n:
                raise ValueError(f"vertex {v} out of range")
        self.base = base
        self.n = base.n
        # each looped vertex -> the index of its loop among its out-edges
        self.loop_vertices = {v: base.outdeg(v) for v in vertices}

    def outdeg(self, v: int) -> int:
        return self.base.outdeg(v) + (v in self.loop_vertices)

    def outnbr(self, v: int, i: int) -> int | None:
        if v in self.loop_vertices and i == self.loop_vertices[v]:
            return v
        return self.base.outnbr(v, i)

    def indeg(self, v: int) -> int:
        return self.base.indeg(v) + (v in self.loop_vertices)

    def innbr(self, v: int, i: int) -> int | None:
        if v not in self.loop_vertices:
            return self.base.innbr(v, i)
        base_in = self.base.in_neighbors(v)
        pos = bisect_left(base_in, v)
        merged = base_in[:pos] + [v] + base_in[pos:]
        return merged[i] if 0 <= i < len(merged) else None


class SinkLoopsView(SelfLoopView):
    """A self-loop at every sink of the base graph, so walks are total."""

    def __init__(self, base: GraphOracle):
        super().__init__(base, *(v for v in range(base.n) if base.outdeg(v) == 0))


def with_sink_loops(g: GraphOracle) -> GraphOracle:
    """g itself when it has no sinks, else SinkLoopsView(g), so walks are total."""
    return SinkLoopsView(g) if any(g.outdeg(v) == 0 for v in range(g.n)) else g


class DegreeReducedView(GraphOracle):
    """In-degree-2 lift: each vertex becomes a binary tree of its in-edges.

    Vertex (v, i) is encoded as v + n*i for i in [n-1]. High-in-degree
    vertices get internal tree nodes (v, 1..indeg-2) feeding the root (v, 0);
    an edge u -> v of the base graph lands on the leaf slot of u's position
    among v's sorted in-neighbors. Everything else is isolated filler so that
    ids stay a plain integer range.
    """

    def __init__(self, base: GraphOracle):
        if base.n < 2:
            raise ValueError("degree reduction needs at least 2 vertices")
        self.base = base
        self.base_n = base.n
        self.n = base.n * (base.n - 1)

    def decode(self, vid: int) -> tuple[int, int]:
        return vid % self.base_n, vid // self.base_n

    def encode(self, v: int, i: int) -> int:
        return v + self.base_n * i

    def is_live(self, vid: int) -> bool:
        v, i = self.decode(vid)
        if i == 0:
            return True
        return self.base.indeg(v) >= 2 and i <= self.base.indeg(v) - 2

    def indeg(self, vid: int) -> int:
        v, i = self.decode(vid)
        d = self.base.indeg(v)
        if i == 0:
            return d if d < 2 else 2
        return 2 if (d >= 2 and i <= d - 2) else 0

    def innbr(self, vid: int, j: int) -> int | None:
        v, i = self.decode(vid)
        d = self.base.indeg(v)
        if j < 0 or j >= self.indeg(vid):
            return None
        if d < 2:
            # root only; direct edge from the single in-neighbor's root
            return self.encode(self.base.innbr(v, j), 0)
        k = 2 * i + 1 + j
        if k >= d - 1:
            # leaf slot: k = d-1 holds the first sorted in-neighbor
            u = self.base.innbr(v, k + 2 - d - 1)
            return self.encode(u, 0)
        return self.encode(v, k)

    def outdeg(self, vid: int) -> int:
        v, i = self.decode(vid)
        if i == 0:
            return self.base.outdeg(v)
        return 1 if self.is_live(vid) else 0

    def outnbr(self, vid: int, j: int) -> int | None:
        # Exhaustive search, as sketched: collect out-edges by scanning all
        # non-isolated candidates' in-lists. Slow by design; the connectivity
        # drivers never call it.
        if j < 0 or j >= self.outdeg(vid):
            return None
        targets = []
        for wid in self.iter_nonisolated():
            for jj in range(self.indeg(wid)):
                if self.innbr(wid, jj) == vid:
                    targets.append(wid)
        targets.sort()
        return targets[j] if j < len(targets) else None

    def iter_nonisolated(self):
        """Yield non-isolated ids, ascending within each base vertex's block."""
        for v in range(self.base_n):
            d = self.base.indeg(v)
            if d + self.base.outdeg(v) > 0:
                yield self.encode(v, 0)
            for i in range(1, max(d - 1, 0)):
                yield self.encode(v, i)

    def diameter_bound(self) -> int:
        """Walk-length bound: each base edge costs at most 1 + tree depth."""
        n = self.base_n
        return n * (1 + ceil_log2(max(n, 2)))


class LayeredLiftView(GraphOracle):
    """Acyclic unrolling on [T+1] x V; (i, v) encodes as i*n + v.

    Every edge of the base graph is copied between consecutive layers, so all
    layer-T vertices are sinks and a walk of the lift is a T-step walk of the
    base graph.
    """

    def __init__(self, base: GraphOracle, layers: int):
        if layers < 0:
            raise ValueError("layer count must be nonnegative")
        self.base = base
        self.base_n = base.n
        self.layers = layers
        self.n = (layers + 1) * base.n

    def decode(self, vid: int) -> tuple[int, int]:
        return vid // self.base_n, vid % self.base_n

    def encode(self, layer: int, v: int) -> int:
        return layer * self.base_n + v

    def edge_count(self) -> int:
        return self.layers * self.base.edge_count()

    def outdeg(self, vid: int) -> int:
        layer, v = self.decode(vid)
        return self.base.outdeg(v) if layer < self.layers else 0

    def outnbr(self, vid: int, i: int) -> int | None:
        layer, v = self.decode(vid)
        if layer >= self.layers:
            return None
        w = self.base.outnbr(v, i)
        return None if w is None else self.encode(layer + 1, w)

    def indeg(self, vid: int) -> int:
        layer, v = self.decode(vid)
        return self.base.indeg(v) if layer > 0 else 0

    def innbr(self, vid: int, i: int) -> int | None:
        layer, v = self.decode(vid)
        if layer == 0:
            return None
        u = self.base.innbr(v, i)
        return None if u is None else self.encode(layer - 1, u)
