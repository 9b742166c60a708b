"""Brute-force ground truth: reachability, exact path counts, walk
distributions, and stationary distributions.

Deliberately space-profligate; used by tests and the CLI's --verify mode only.
Exact rational arithmetic is used below n=20 / T=20, floats beyond.
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction

import numpy as np

from .errors import SinkVertexError
# the two acyclicity helpers need no numpy, so they live in graphs, where
# the CLI imports them; they stay importable from here
from .graphs import GraphOracle, is_acyclic, topological_order

EXACT_LIMIT = 20


def bfs_reach(g: GraphOracle) -> list[list[bool]]:
    """Reflexive reachability matrix via BFS from every vertex."""
    n = g.n
    reach = [[False] * n for _ in range(n)]
    for s in range(n):
        row = reach[s]
        row[s] = True
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for i in range(g.outdeg(u)):
                w = g.outnbr(u, i)
                if not row[w]:
                    row[w] = True
                    queue.append(w)
    return reach


def transitive_closure(g: GraphOracle) -> list[list[bool]]:
    """Independent cross-check: reflexive closure by boolean matrix powers."""
    n = g.n
    adj = [[u == v or v in set(g.out_neighbors(u)) for v in range(n)] for u in range(n)]
    changed = True
    while changed:
        changed = False
        for u in range(n):
            for w in range(n):
                if adj[u][w]:
                    for v in range(n):
                        if adj[w][v] and not adj[u][v]:
                            adj[u][v] = True
                            changed = True
    return adj


def count_paths_layers(g: GraphOracle, s: int, T: int) -> list[list[int]]:
    """counts[i][v] = exact number of length-i s->v paths, for i = 0..T."""
    n = g.n
    layers = [[0] * n for _ in range(T + 1)]
    layers[0][s] = 1
    for i in range(T):
        prev, cur = layers[i], layers[i + 1]
        for v in range(n):
            total = 0
            for j in range(g.indeg(v)):
                total += prev[g.innbr(v, j)]
            cur[v] = total
    return layers


def count_paths(g: GraphOracle, s: int, T: int) -> list[int]:
    """Exact per-vertex counts of length-T s->v paths (big integers)."""
    return count_paths_layers(g, s, T)[T]


def zeta_table(g: GraphOracle, s: int, T: int) -> list[list[int]]:
    """The two-bank nonzero-detection quantity, computed exactly.

    zeta[i][v] follows zeta_{i+1}(v) = zeta_{i-1}(v) + sum over edges (u, v)
    including a dummy self-edge at every vertex of zeta_i(u), with
    zeta_0 = indicator of s and zeta_{-1} = 0.
    """
    n = g.n
    table = [[0] * n for _ in range(T + 1)]
    table[0][s] = 1
    for i in range(T):
        prevprev = table[i - 1] if i >= 1 else [0] * n
        prev = table[i]
        cur = table[i + 1]
        for v in range(n):
            total = prevprev[v] + prev[v]  # old bank value + dummy edge
            for j in range(g.indeg(v)):
                total += prev[g.innbr(v, j)]
            cur[v] = total
    return table


def dag_reach_probabilities(g: GraphOracle, s: int) -> list[Fraction]:
    """Probability a random walk from s reaches each vertex of a DAG."""
    order = topological_order(g)
    if order is None:
        raise ValueError("graph has a cycle")
    p = [Fraction(0)] * g.n
    p[s] = Fraction(1)
    for u in order:
        d = g.outdeg(u)
        if d == 0 or p[u] == 0:
            continue
        share = p[u] / d
        for i in range(d):
            p[g.outnbr(u, i)] += share
    return p


def rotor_route_dag(g: GraphOracle, s: int, K: int, init: list[int], width: int):
    """K forward rotor walks from s on a DAG, routed vertex by vertex.

    By the abelian property of rotor routing, the j-th chip to reach v reads
    register value (init[v] + j) mod 2^width and leaves along out-edge (that
    value) mod outdeg(v), whatever order the chips arrive in. Routing every
    chip of a vertex at once, in topological order, therefore gives what K
    sequential walks give; each vertex's chips are split over its out-edges by
    counting residue classes over [init[v], init[v] + chips), wrapping at
    2^width, in O(n + m) arithmetic. `init` holds width-bit values.

    Returns (chips, edge_chips, registers): chips reaching each vertex,
    chips leaving along each out-edge (edge_chips[v][r] for out-edge r of v)
    and the final registers.
    """
    order = topological_order(g)
    if order is None:
        raise ValueError("graph has a cycle")
    M = 1 << width
    chips = [0] * g.n
    chips[s] = K
    edge_chips = [[0] * g.outdeg(v) for v in range(g.n)]
    registers = list(init)
    for u in order:
        c, d = chips[u], g.outdeg(u)
        if c == 0 or d == 0:
            continue
        x = init[u]
        full, rest = divmod(c, M)
        # values x .. x+rest-1 after the full cycles: [x, hi) plus [0, wrap)
        hi, wrap = min(x + rest, M), max(x + rest - M, 0)
        for r in range(d):
            k = (full * _residues_below(M, d, r) + _residues_below(hi, d, r)
                 - _residues_below(x, d, r) + _residues_below(wrap, d, r))
            edge_chips[u][r] = k
            chips[g.outnbr(u, r)] += k
        registers[u] = (x + c) % M
    return chips, edge_chips, registers


def _residues_below(b: int, d: int, r: int) -> int:
    """How many y in [0, b) have y mod d == r."""
    return b // d + (r < b % d)


def walk_matrix(g: GraphOracle) -> np.ndarray:
    """Left-stochastic walk matrix W with W[v, u] = 1/outdeg(u) per edge."""
    n = g.n
    W = np.zeros((n, n))
    for u in range(n):
        d = g.outdeg(u)
        if d == 0:
            raise SinkVertexError(f"vertex {u} has no outgoing edges")
        for i in range(d):
            W[g.outnbr(u, i), u] += 1.0 / d
    return W


def walk_distribution(g: GraphOracle, s: int, T: int, exact: bool | None = None):
    """Distribution of a T-step random walk from s.

    Returns Fractions when exact (default below the EXACT_LIMIT), else a
    float list. Every vertex must have out-degree >= 1.
    """
    if exact is None:
        exact = g.n <= EXACT_LIMIT and T <= EXACT_LIMIT
    for u in range(g.n):
        if g.outdeg(u) == 0:
            raise SinkVertexError(f"vertex {u} has no outgoing edges")
    if exact:
        dist = [Fraction(0)] * g.n
        dist[s] = Fraction(1)
        for _ in range(T):
            nxt = [Fraction(0)] * g.n
            for u in range(g.n):
                if dist[u] == 0:
                    continue
                share = dist[u] / g.outdeg(u)
                for i in range(g.outdeg(u)):
                    nxt[g.outnbr(u, i)] += share
            dist = nxt
        return dist
    W = walk_matrix(g)
    vec = np.zeros(g.n)
    vec[s] = 1.0
    for _ in range(T):
        vec = W @ vec
    return vec.tolist()


def stationary_exact(g: GraphOracle, tol: float = 1e-12, max_iters: int = 1_000_000):
    """Stationary distribution by power iteration; raises if it stalls."""
    W = walk_matrix(g)
    n = g.n
    pi = np.full(n, 1.0 / n)
    for _ in range(max_iters):
        nxt = W @ pi
        if np.abs(nxt - pi).sum() <= tol:
            return nxt
        pi = nxt
    raise ValueError("power iteration did not converge; walk may not be ergodic")


def mixing_error(g: GraphOracle, T: int, pi: np.ndarray | None = None) -> float:
    """max over basis vectors e_i of || W^T e_i - pi ||_1."""
    W = walk_matrix(g)
    if pi is None:
        pi = stationary_exact(g)
    WT = np.linalg.matrix_power(W, T)
    return float(np.abs(WT - pi[:, None]).sum(axis=0).max())
