"""Catalytic random-walk estimation via per-vertex rotor registers.

A walk at vertex v follows out-edge R_v mod outdeg(v) and increments R_v, so
repeated visits cycle fairly through the out-edges. Running K walks forward
and then K walks in reverse mode (decrement first, then read) retraces the
same vertex sequences and restores every register — provided the graph is
acyclic, which is what guarantees a single walk touches each register at most
once.

The general-graph estimator lifts the input to T+1 layers first; the
stationary estimator skips the lift, which costs catalytic restoration (the
register history becomes ambiguous), so it restores via an out-of-band
snapshot and reports the in-band irreversibility.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import add

from .errors import SinkVertexError, WalkCycleError
from .graphs import GraphOracle, LayeredLiftView, with_sink_loops
from .metrics import DriverRun, RunMetrics, StepCounter
from .tape import CatalyticTape, RegisterSpan, WorkspaceMeter, ceil_log2

FWD = "fwd"
REV = "rev"


def simulation_count(m: int, eps: float) -> int:
    """Number of walks K for additive error eps: ceil(2m/eps), at least 1."""
    if not 0 < eps < math.inf:
        raise ValueError(f"eps must be a finite positive number, got {eps}")
    return _ceil_div_float(2 * m, eps, f"eps {eps} gives more walks")


def _ceil_div_float(num: int, eps: float, what: str) -> int:
    """ceil(num/eps), at least 1; `what` names the cause of an overflow."""
    try:
        k = int(num / eps)
    except OverflowError:
        raise ValueError(f"{what} than a float holds") from None
    while k * eps < num:
        k += 1
    return max(k, 1)


def register_width(K: int) -> int:
    """Register bits: ceil(log2 K), clamped to at least one bit."""
    return max(1, ceil_log2(max(K, 2)))


class _PackedRegisters:
    """Registers packed in one checked tape span. Hot loops run against the
    values `load` reads; `flush` writes them all back, one span each way,
    so the tape is authoritative at every API boundary."""

    def __init__(self, tape: CatalyticTape, span: RegisterSpan):
        tape._check_span(span.offset, span.bits)
        self.tape = tape
        self.span = span

    def load(self) -> list[int]:
        """Every register's value, from one tape read."""
        return self.span.unpack(self.tape.read_bits(self.span.offset, self.span.bits))

    def flush(self, values: list[int]) -> None:
        """Write every register with one tape write; values are checked first."""
        self.tape.write_bits(self.span.offset, self.span.bits, self.span.pack(values))


class WalkRegisters(_PackedRegisters):
    """One width-bit register per vertex, packed on the tape from `base`,
    that wraps at 2**width. A walk masks every value it writes, so a
    register no walk moved is flushed as loaded."""

    def __init__(self, tape: CatalyticTape, base: int, count: int, width: int):
        if width < 1:
            raise ValueError("width must be at least 1")
        # an int width keeps `unpack` on its one-mask path
        super().__init__(tape, RegisterSpan(range(count), base, count * width,
                                            range(0, count * width, width), width))
        self.width = width
        self._marked = set()

    def mark_touched(self, indices) -> None:
        self._marked.update(indices)

    @property
    def touched_bits(self) -> int:
        """Bits of the registers marked touched so far."""
        return len(self._marked) * self.width


@dataclass
class VisitCounters:
    """Forward-phase statistics: visits, per-out-edge transitions, t-hits."""

    visits: list[int]
    transitions: list[list[int]]
    n_reach: int = 0

    @classmethod
    def for_graph(cls, g: GraphOracle) -> "VisitCounters":
        return cls(
            visits=[0] * g.n,
            transitions=[[0] * g.outdeg(v) for v in range(g.n)],
        )


_CYCLE = "walk exceeded the vertex count; input graph has a cycle"


def _out_lists(g: GraphOracle) -> list[list[int]]:
    """Every vertex's out-list, from one `out_neighbors` query per base vertex.

    A LayeredLiftView's lists are built from its base's: vertex
    layer * n + v gets [(layer + 1) * n + w for w in out[v]], and the
    vertices of layer T get []. That is T * m entries, at most eps * K / 2
    since K = ceil(2Tm / eps): fewer than a batch has walks.
    """
    if type(g) is not LayeredLiftView:
        return [g.out_neighbors(v) for v in range(g.n)]
    n = g.base_n
    out = [g.base.out_neighbors(v) for v in range(n)]
    shifts = [layer * n for layer in range(1, g.layers + 1)]
    lists = [[shift + w for w in nb] for shift in shifts for nb in out]
    lists.extend([] for _ in range(n))
    return lists


def _reaches_cycle(out: list[list[int]], s: int) -> bool:
    """Whether a cycle can be reached from s over the out-lists `out`.

    An iterative depth-first search: a cycle is an edge into a vertex that
    is still on the search path. It reads only `out`, so it queries no graph.
    """
    state = bytearray(len(out))  # 0 unseen, 1 on the path, 2 finished
    state[s] = 1
    path = [(s, iter(out[s]))]
    while path:
        v, rest = path[-1]
        for w in rest:
            if state[w] == 1:
                return True
            if not state[w]:
                state[w] = 1
                path.append((w, iter(out[w])))
                break
        else:
            state[v] = 2
            path.pop()
    return False


def _rotor_walks(out: list[list[int]], s: int, t: int, mode: str, walks: int,
                 values: list[int], width: int, counts: list[int] | None,
                 steps: StepCounter) -> tuple[int, int]:
    """Run `walks` rotor walks from s over the out-lists `out` and the
    loaded register values.

    Returns how many walks ended at t and the vertex the last walk ended
    at (s when there is no walk). Every FWD and REV batch of the
    estimators runs through this one function.

    No cycle may be reachable from s in `out`: `estimate_dag` checks that
    once per call, and a lift has none. Then a walk leaves each vertex at
    most once and moves that vertex's register by exactly one, so the hop
    loops keep no hop guard and count nothing. Over a chunk of at most
    2**width - 1 walks, the departures from v are its register's change
    mod 2**width (negated in REV): the kernel adds them to counts[v] when
    `counts` is given, and their sum to `steps`, once per chunk.

    The kernel queries no graph: `out` is the host-side copy that
    `_out_lists` builds once per driver call, so a lift is walked as a
    plain DAG. Steps, registers and the meter's charges are those of
    per-hop `outdeg` and `outnbr` queries.
    """
    deg = [len(nb) for nb in out]
    mask = (1 << width) - 1
    d0 = deg[s]
    v = s
    reach = 0
    # a chunk of 2**width walks could leave a vertex 2**width times, a change of 0
    for done in range(0, walks, mask):
        chunk = range(min(mask, walks - done))
        before = values[:]
        if mode == FWD:
            for _ in chunk:
                v, d = s, d0
                while d:
                    x = values[v]
                    values[v] = (x + 1) & mask
                    v = out[v][x % d]
                    d = deg[v]
                if v == t:
                    reach += 1
            moved = [(y - x) & mask for x, y in zip(before, values)]
        else:
            for _ in chunk:
                v, d = s, d0
                while d:
                    x = (values[v] - 1) & mask
                    values[v] = x
                    v = out[v][x % d]
                    d = deg[v]
                if v == t:
                    reach += 1
            moved = [(x - y) & mask for x, y in zip(before, values)]
        if counts is not None:
            counts[:] = map(add, counts, moved)
        steps.n += sum(moved)
    return reach, v


def _add_counters(counters: VisitCounters, out: list[list[int]], s: int,
                  walks: int, first: list[int], counts: list[int],
                  width: int) -> None:
    """Add a batch's visits and transitions to `counters`, from its counts.

    Vertex v's counts[v] departures read the register values first[v],
    first[v] + 1, ... mod 2**width in turn and leave along out-edge (value)
    mod outdeg(v), so its transitions count residue classes over
    [first[v], first[v] + counts[v]), as `oracles.rotor_route_dag` does.
    A vertex's visits are its inflow, plus one per walk started at s.
    """
    M = 1 << width
    visits, transitions = counters.visits, counters.transitions
    visits[s] += walks
    for v, c in enumerate(counts):
        if not c:
            continue
        nb, x = out[v], first[v]
        d = len(nb)
        full, rest = divmod(c, M)
        # values x .. x+rest-1 after the full cycles: [x, hi) plus [0, wrap)
        hi, wrap = min(x + rest, M), max(x + rest - M, 0)
        row = transitions[v]
        for r, w in enumerate(nb):
            k = (full * _residues_below(M, d, r) + _residues_below(hi, d, r)
                 - _residues_below(x, d, r) + _residues_below(wrap, d, r))
            row[r] += k
            visits[w] += k


def _residues_below(b: int, d: int, r: int) -> int:
    """How many y in [0, b) have y mod d == r."""
    return b // d + (r < b % d)


def walk_once(
    g: GraphOracle,
    s: int,
    mode: str,
    regs: WalkRegisters,
    counters: VisitCounters | None = None,
) -> int:
    """Run a single rotor walk against the tape; returns the sink vertex.

    It serves any graph, so unlike the batch kernel its loop keeps a hop
    guard: a walk about to take hop n + 1 raises WalkCycleError. The loop
    counts each departure, so a register that wraps back to its value still
    counts as touched. The registers are written back only when the walk
    finishes, so a walk that raises WalkCycleError leaves the tape as it was.
    """
    if mode not in (FWD, REV):
        raise ValueError(f"mode must be {FWD!r} or {REV!r}")
    out = _out_lists(g)
    values = regs.load()
    before = list(values)
    mask = (1 << regs.width) - 1
    counts = [0] * g.n
    v, hops = s, 0
    while out[v]:
        if hops == g.n:
            raise WalkCycleError(_CYCLE)
        if mode == FWD:
            x = values[v]
            values[v] = (x + 1) & mask
        else:
            x = values[v] = (values[v] - 1) & mask
        counts[v] += 1
        v = out[v][x % len(out[v])]
        hops += 1
    regs.mark_touched([i for i, c in enumerate(counts) if c])
    if counters is not None:
        # a REV walk's departures from v read values[v], values[v] + 1, ...
        _add_counters(counters, out, s, 1,
                      before if mode == FWD else values, counts, regs.width)
    regs.flush(values)
    return v


@dataclass
class DagWalkResult:
    rho: float
    n_reach: int
    walks: int
    width: int
    counters: VisitCounters | None
    metrics: RunMetrics


def dag_tape_bits(g: GraphOracle, eps: float) -> int:
    K = simulation_count(g.edge_count(), eps)
    return g.n * register_width(K)


def estimate_dag(
    g: GraphOracle,
    s: int,
    t: int,
    eps: float,
    tape: CatalyticTape | None = None,
    *,
    collect: bool = False,
    meter: WorkspaceMeter | None = None,
) -> DagWalkResult:
    """Estimate the probability a random walk from s reaches the sink t.

    Runs K = ceil(2m/eps) forward walks counting arrivals at t, then K
    reverse walks to undo every register change. The graph is read once,
    by `_out_lists`, and both batches walk those lists. Input with a cycle
    reachable from s raises WalkCycleError from one search of those lists,
    before the meter or the tape is touched. Without one, the reverse
    batch retraces the forward walks and leaves every register as loaded.
    """
    if not (0 <= s < g.n and 0 <= t < g.n):
        raise ValueError(f"s={s}, t={t} out of range for {g.n} vertices")
    out = _out_lists(g)
    if out[t]:
        raise SinkVertexError(f"target {t} is not a sink")
    m = sum(map(len, out))
    K = simulation_count(m, eps)
    width = register_width(K)
    if _reaches_cycle(out, s):
        raise WalkCycleError("a cycle is reachable from s; input graph is not a DAG")
    if tape is None:
        tape = CatalyticTape.zeros(g.n * width)
    regs = WalkRegisters(tape, 0, g.n, width)
    counts = [0] * g.n
    # hop_guard stays charged: the modelled machine counts each walk's hops
    # against n, and the cycle check only proves that the count cannot pass it
    with DriverRun(
        tape, meter, width=width, vertex=g.n,
        edge_choice=max(map(len, out), default=0) + 1,
        walk_index=K + 1, n_reach=K + 1, hop_guard=g.n + 2, walk_count=K + 1,
    ) as run:
        first = regs.load()
        values = list(first)
        n_reach, _ = _rotor_walks(out, s, t, FWD, K, values, width, counts, run.steps)
        _rotor_walks(out, s, t, REV, K, values, width, None, run.steps)
        touched = len(counts) - counts.count(0)
        if touched:
            regs.flush(values)
    counters = None
    if collect:
        counters = VisitCounters([0] * g.n, [[0] * len(nb) for nb in out])
        _add_counters(counters, out, s, K, first, counts, width)
        counters.n_reach = n_reach
    metrics = run.metrics(touched * width, estimate=n_reach / K,
                          extra={"walks": K})
    return DagWalkResult(n_reach / K, n_reach, K, width, counters, metrics)


def collect_counters(result: DagWalkResult) -> VisitCounters:
    """Counters recorded during the forward phase (collect=True runs only)."""
    if result.counters is None:
        raise ValueError("run was not collected; pass collect=True")
    return result.counters


@dataclass
class GeneralWalkResult:
    rho: float
    lift: LayeredLiftView
    dag: DagWalkResult
    metrics: RunMetrics


def general_tape_bits(g: GraphOracle, T: int, eps: float) -> int:
    return dag_tape_bits(LayeredLiftView(with_sink_loops(g), T), eps)


def estimate_general(
    g: GraphOracle,
    s: int,
    t: int,
    T: int,
    eps: float,
    tape: CatalyticTape | None = None,
    *,
    collect: bool = False,
    meter: WorkspaceMeter | None = None,
) -> GeneralWalkResult:
    """Estimate Pr[T-step walk from s ends at t] within additive eps.

    Sinks of the base graph get a virtual self-loop so the walk is total;
    the layered lift then makes the instance acyclic and the DAG estimator
    runs from (0, s) to the sink (T, t).
    """
    if not (0 <= s < g.n and 0 <= t < g.n):
        raise ValueError(f"s={s}, t={t} out of range for {g.n} vertices")
    if T < 0:
        raise ValueError("step count must be nonnegative")
    walkable = with_sink_loops(g)
    lift = LayeredLiftView(walkable, T)
    dag = estimate_dag(
        lift,
        lift.encode(0, s),
        lift.encode(T, t),
        eps,
        tape,
        collect=collect,
        meter=meter,
    )
    if walkable is not g:
        dag.metrics.normalizations.append(f"sink-self-loops:{len(walkable.loop_vertices)}")
    return GeneralWalkResult(dag.rho, lift, dag, dag.metrics)


# ---------------------------------------------------------------------------
# Stationary rotor walk (not catalytic in-band)
# ---------------------------------------------------------------------------


def rotor_widths(g: GraphOracle) -> list[int]:
    """Rotor bits per vertex: ceil(log2 outdeg(v)), one bit minimum."""
    return [ceil_log2(max(g.outdeg(v), 2)) for v in range(g.n)]


class RotorRegisters(_PackedRegisters):
    """Variable-width rotors of the widths of `rotor_widths`, packed in
    vertex order into [base, end). Vertex v stores a value in [outdeg(v)]:
    `load` reads its raw span mod outdeg(v), and `snapshot_spans` and
    `restore_spans` move the raw spans."""

    def __init__(self, tape: CatalyticTape, g: GraphOracle, base: int = 0):
        self.g = g
        self.widths = rotor_widths(g)
        super().__init__(tape, RegisterSpan.packed(base, self.widths))
        self.end = base + self.span.bits

    snapshot_spans = _PackedRegisters.load
    restore_spans = _PackedRegisters.flush

    def load(self) -> list[int]:
        outdeg = self.g.outdeg
        return [raw % d if (d := outdeg(v)) > 0 else raw
                for v, raw in enumerate(self.snapshot_spans())]


def stationary_tape_bits(g: GraphOracle) -> int:
    return sum(rotor_widths(g))


@dataclass
class StationaryResult:
    rho: float
    t_prime: int
    visit_counts: list[int]
    final_rotors: list[int]
    metrics: RunMetrics


def walk_length(T: int, m: int, delta: float) -> int:
    """T' = ceil(T*(m+2)/delta) rotor steps, at least one."""
    if T < 0:
        raise ValueError(f"mixing time must be nonnegative, got {T}")
    if not 0 < delta < math.inf:
        raise ValueError(f"delta must be a finite positive number, got {delta}")
    return _ceil_div_float(T * (m + 2), delta,
                           f"mixing time {T} and delta {delta} give more steps")


def estimate_stationary(
    g: GraphOracle,
    v_star: int,
    mix_time: int,
    delta: float,
    tape: CatalyticTape | None = None,
    *,
    start: int = 0,
    restore: bool = True,
    meter: WorkspaceMeter | None = None,
) -> StationaryResult:
    """Fraction of a long rotor walk spent at v_star.

    The walk runs T' = ceil(T*(m+2)/delta) steps; if the walk matrix mixes in
    time T with error eps, the fraction is within eps+delta of the stationary
    probability. The rotor updates themselves are not reversible on cyclic
    input, so restoration happens out of band (span snapshot), and metrics
    flag the in-band irreversibility.
    """
    if not 0 <= v_star < g.n:
        raise ValueError(f"v_star={v_star} out of range for {g.n} vertices")
    if not 0 <= start < g.n:
        raise ValueError(f"start={start} out of range for {g.n} vertices")
    # the graph is read-only input: every out-list is read once here, and
    # each step takes its degree and out-edge from these host-side copies
    out = [g.out_neighbors(v) for v in range(g.n)]
    degs = [len(nb) for nb in out]
    if 0 in degs:
        raise SinkVertexError(f"vertex {degs.index(0)} has no outgoing edges")
    m = sum(degs)
    t_prime = walk_length(mix_time, m, delta)
    if tape is None:
        tape = CatalyticTape.zeros(stationary_tape_bits(g))
    rotors = RotorRegisters(tape, g)
    counts = [0] * g.n
    v = start
    with DriverRun(
        tape, meter, vertex=g.n, edge_choice=max(degs) + 1,
        step=t_prime + 1, n_visit=t_prime + 1,
    ) as run:
        snap = rotors.snapshot_spans()
        # one read serves both: every out-degree is positive here, so each
        # rotor is its span mod out-degree, as `load` would give
        values = [raw % d for d, raw in zip(degs, snap)]
        # restore inside the try and again on the way out of it, so a fault
        # in the restoring write itself is retried
        try:
            for _ in range(t_prime):
                counts[v] += 1
                r = values[v]
                values[v] = (r + 1) % degs[v]
                v = out[v][r]
            run.steps.n += t_prime
            # a rotor the walk advanced gets its walked value and any other
            # its snapshot span, so the whole-span write changes only the
            # former and `values` is what a fresh `load` would now return
            rotors.flush([x if c else raw for x, c, raw in zip(values, counts, snap)])
            if restore:
                rotors.restore_spans(snap)
        except BaseException:
            if restore:
                rotors.restore_spans(snap)
            raise
    rho = counts[v_star] / t_prime
    metrics = run.metrics(
        sum(w for w, c in zip(rotors.widths, counts) if c), estimate=rho,
        normalizations=["out-of-band-rotor-restore"] if restore else [],
        extra={"t_prime": t_prime, "in_band_irreversible": True},
    )
    return StationaryResult(rho, t_prime, counts, values, metrics)
