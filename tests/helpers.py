"""Shared generators and fixed instances for the test suite."""

from __future__ import annotations

import random
from contextlib import contextmanager
from itertools import accumulate
from types import MethodType

from catgraph.errors import WalkCycleError
from catgraph.graphs import AdjacencyGraph, GraphOracle
from catgraph.tape import CatalyticTape, WorkspaceMeter, make_tape
from catgraph.walks import FWD, rotor_widths, walk_length

TAPE_PROFILES = ("zeros", "ones", "random")


def random_graph(rng: random.Random, n: int, p: float = 0.35) -> AdjacencyGraph:
    edges = [(u, v) for u in range(n) for v in range(n) if u != v and rng.random() < p]
    return AdjacencyGraph.from_edges(n, edges)


def random_dag(rng: random.Random, n: int, max_edges: int | None = None) -> AdjacencyGraph:
    order = list(range(n))
    rng.shuffle(order)
    possible = [
        (order[i], order[j]) for i in range(n) for j in range(i + 1, n)
    ]
    cap = max_edges if max_edges is not None else 2 * n
    rng.shuffle(possible)
    return AdjacencyGraph.from_edges(n, possible[: min(cap, len(possible))])


def out_regular_graph(rng: random.Random, n: int, d: int) -> AdjacencyGraph:
    edges = []
    for u in range(n):
        targets = rng.sample([v for v in range(n) if v != u], d)
        edges.extend((u, v) for v in targets)
    return AdjacencyGraph.from_edges(n, edges)


def ergodic_graph(rng: random.Random, n: int, extra: int = 1) -> AdjacencyGraph:
    """Strongly connected and aperiodic: a cycle, a self-loop, extra edges."""
    edges = {(v, (v + 1) % n) for v in range(n)}
    edges.add((0, 0))
    for u in range(n):
        for _ in range(extra):
            v = rng.randrange(n)
            edges.add((u, v))
    return AdjacencyGraph.from_edges(n, sorted(edges))


def figure_dag() -> AdjacencyGraph:
    """Layered 8-vertex DAG: one source, two sinks, all interior out-degree 2."""
    edges = [
        (0, 1), (0, 2),
        (1, 3), (1, 4), (2, 4), (2, 5),
        (3, 6), (3, 7), (4, 6), (4, 7), (5, 6), (5, 7),
    ]
    return AdjacencyGraph.from_edges(8, edges)


def structured_graphs(n: int) -> list[AdjacencyGraph]:
    """Deterministic small-instance families used by the counting pool."""
    out = []
    out.append(AdjacencyGraph.from_edges(n, []))
    out.append(AdjacencyGraph.from_edges(n, [(i, i + 1) for i in range(n - 1)]))
    if n >= 2:
        out.append(
            AdjacencyGraph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])
        )
        out.append(
            AdjacencyGraph.from_edges(
                n, [(u, v) for u in range(n) for v in range(n) if u != v]
            )
        )
    if n >= 3:
        out.append(AdjacencyGraph.from_edges(n, [(0, v) for v in range(1, n)]))
        out.append(AdjacencyGraph.from_edges(n, [(v, n - 1) for v in range(n - 1)]))
    if n >= 4:
        # two disjoint paths from 0 re-merging at 3
        out.append(AdjacencyGraph.from_edges(n, [(0, 1), (0, 2), (1, 3), (2, 3)]))
    return out


def counting_pool(per_n: int = 25, max_n: int = 6) -> list[AdjacencyGraph]:
    rng = random.Random(20240901)
    pool = []
    for n in range(1, max_n + 1):
        pool.extend(structured_graphs(n))
        for _ in range(per_n):
            pool.append(random_graph(rng, n, p=rng.choice((0.2, 0.4, 0.6))))
    return pool


def enumerate_digraphs(n: int):
    """All simple digraphs (no self-loops) on n labelled vertices."""
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    for bits in range(1 << len(pairs)):
        yield AdjacencyGraph.from_edges(
            n, [e for k, e in enumerate(pairs) if bits >> k & 1]
        )


def reference_walk(g, s, mode, values, width, counters, touched, steps) -> int:
    """One rotor walk, one oracle query at a time: the per-step loop the
    batched walk kernel replaced, kept as its reference."""
    mask = (1 << width) - 1
    v = s
    hops = 0
    while True:
        if counters is not None:
            counters.visits[v] += 1
        d = g.outdeg(v)
        if d == 0:
            return v
        if hops >= g.n:
            raise WalkCycleError(
                "walk exceeded the vertex count; input graph has a cycle"
            )
        if mode == FWD:
            r = values[v] % d
            values[v] = (values[v] + 1) & mask
        else:
            values[v] = (values[v] - 1) & mask
            r = values[v] % d
        if touched is not None:
            touched.add(v)
        if counters is not None:
            counters.transitions[v][r] += 1
        if steps is not None:
            steps.n += 1
        v = g.outnbr(v, r)
        hops += 1



def reference_stationary(g, v_star, mix_time, delta, tape, *, start=0,
                         restore=True) -> dict:
    """The stationary rotor walk as first written, kept as its reference:
    a visited set, a v* counter, one step counted per iteration, and a
    write-back of the visited rotors alone, one rotor span at a time. The
    rotors sit from bit 0 of `tape`; `restore` puts the tape back from a
    byte snapshot. Returns the fields of `estimate_stationary`'s result."""
    t_prime = walk_length(mix_time, g.edge_count(), delta)
    widths = rotor_widths(g)
    offsets = list(accumulate(widths, initial=0))
    before = tape.snapshot()
    values = [tape.read_bits(off, w) % g.outdeg(u)
              for u, (off, w) in enumerate(zip(offsets, widths))]
    counts = [0] * g.n
    visited = set()
    n_visit = steps = 0
    v = start
    for _ in range(t_prime):
        if v == v_star:
            n_visit += 1
        counts[v] += 1
        d = g.outdeg(v)
        r = values[v]
        values[v] = (values[v] + 1) % d
        visited.add(v)
        v = g.outnbr(v, r)
        steps += 1
    for u in sorted(visited):
        tape.write_bits(offsets[u], widths[u], values[u])
    if restore:
        tape.restore(before)
    return dict(rho=n_visit / t_prime, t_prime=t_prime, visit_counts=counts,
                final_rotors=values, elapsed_steps=steps,
                catalytic_bits=sum(widths[u] for u in visited),
                tape_restored=tape.snapshot() == before)

def reference_layer_push(prog, i: int, reverse: bool = False) -> None:
    """The push kernel that reads both of a phase's banks from the tape:
    the source bank and the next bank, each with one `read_bits`
    validated by `span_values`, then one `write_bits` of the next bank.
    Kept as the reference for the kernel that holds each bank across a
    run."""
    file, k = prog.file, len(prog.banks)
    bank, dst = prog.banks[i % k], prog.banks[(i + 1) % k]
    q = file.modulus
    read = file.tape.read_bits
    res = [val % q for val in file.span_values(bank, read(bank.offset, bank.bits))]
    blob = read(dst.offset, dst.bits)
    old = file.span_values(dst, blob)
    sign = -1 if reverse else 1
    delta = 0
    for val, pos, srcs in zip(old, dst.shifts, prog._sources):
        total = 0
        for u in srcs:
            total += res[u]
        b = val % q
        delta |= (val ^ (val - b + (b + sign * total) % q)) << pos
    file.tape.write_bits(dst.offset, dst.bits, blob ^ delta)
    prog.steps.add(prog.pushes_per_phase)


def reference_original_value(state, i: int, v: int) -> int:
    """The original-value query that reads the tape: register (i, v) and,
    while layer i is pushed, the layer-(i-1) registers of v's in-neighbors,
    each validated. Kept as the reference for the query that answers from
    the held banks."""
    file = state.file
    w = file.width
    value = file.tape.read_bits(file.base + (i * state.stride + v) * w, w)
    if v not in state.in_lists:  # not a relevant vertex
        return value
    q = file.modulus
    delta = 0
    if i == 0:
        if v == state.s:
            delta = state.b_applied
    elif i <= state.pushed and state.in_lists[v]:
        span, mask = file.span(state.in_lists[v]), file._mask
        blob = file.tape.read_bits(span.offset + (i - 1) * state.stride * w,
                                   span.bits)
        for u, pos in zip(span.indices, span.shifts):
            val = (blob >> pos) & mask
            file._require_valid((i - 1) * state.stride + u, val)
            delta += val % q
    b = value % q
    value = value - b + (b - delta) % q
    if i < state.shifted:
        value = (value - state.beta) & file._mask
    return value


def with_reference_kernel(prog):
    """`prog`, its phases run by `reference_layer_push` from now on."""
    prog.layer_push = MethodType(reference_layer_push, prog)
    return prog


class LoggingGraph(GraphOracle):
    """Out-edge queries answered by `base`, each one appended to `log`."""

    def __init__(self, base: GraphOracle):
        self.base = base
        self.n = base.n
        self.log: list[tuple] = []

    def outdeg(self, v: int) -> int:
        self.log.append(("outdeg", v))
        return self.base.outdeg(v)

    def outnbr(self, v: int, i: int) -> int | None:
        self.log.append(("outnbr", v, i))
        return self.base.outnbr(v, i)

    def out_neighbors(self, v: int) -> list[int]:
        self.log.append(("out_neighbors", v))
        return self.base.out_neighbors(v)


class InjectedFault(Exception):
    """Raised by `fail_at` in place of the call it cuts off."""


class CallCounter:
    def __init__(self):
        self.calls = 0


@contextmanager
def fail_at(owner, attr: str, k: int | None):
    """Replace `owner.attr` so that its k-th call (from 0) raises
    InjectedFault instead of running; every other call runs as usual. With
    k = None nothing raises. Yields a counter of the calls made."""
    original = vars(owner)[attr]
    counter = CallCounter()

    def wrapper(*args, **kwargs):
        index = counter.calls
        counter.calls += 1
        if index == k:
            raise InjectedFault(f"{attr} call {k}")
        return original(*args, **kwargs)

    setattr(owner, attr, wrapper)
    try:
        yield counter
    finally:
        setattr(owner, attr, original)


class CountingBuffer(bytearray):
    """A tape buffer that counts its item and slice assignments in `sets`."""

    sets = 0

    def __setitem__(self, key, value):
        self.sets += 1
        super().__setitem__(key, value)


def buffer_and_write_bits_counts(bits: int, run) -> tuple[int, int]:
    """Run `run(tape, meter)` on a random tape of `bits` bits whose buffer
    counts its writes; returns (buffer writes, `write_bits` calls of
    width > 0)."""
    tape = make_tape(bits, "random", 1)
    tape._buf = CountingBuffer(tape._buf)
    original = vars(CatalyticTape)["write_bits"]
    widths = []

    def counting(self, offset, width, value):
        widths.append(width)
        return original(self, offset, width, value)

    CatalyticTape.write_bits = counting
    try:
        run(tape, WorkspaceMeter())
    finally:
        CatalyticTape.write_bits = original
    return tape._buf.sets, sum(1 for w in widths if w > 0)
