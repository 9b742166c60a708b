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
from itertools import accumulate

from .errors import SinkVertexError, WalkCycleError
from .graphs import GraphOracle, LayeredLiftView, with_sink_loops
from .metrics import DriverRun, RunMetrics, StepCounter
from .tape import CatalyticTape, RegisterFile, WorkspaceMeter, ceil_log2

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


class WalkRegisters(RegisterFile):
    """One width-bit register per vertex, packed on the tape from `base`.

    A register file with modulus 2**width. Hot loops run against a loaded
    list of values; `flush` writes back the registers marked touched, so
    the tape is authoritative at every API boundary.
    """

    __slots__ = ()

    def __init__(self, tape: CatalyticTape, base: int, count: int, width: int):
        super().__init__(tape, base, count, width, 1 << width)

    def load(self) -> list[int]:
        return self.read_block(0, self.count)

    def flush(self, values: list[int]) -> None:
        """Write the marked registers' values with one `scatter`."""
        marked = sorted(self._dirty)
        self.scatter(marked, [values[i] for i in marked])

    def mark_touched(self, indices) -> None:
        self._dirty.update(indices)


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


def _rotor_walks(g: GraphOracle, s: int, mode: str, walks: int,
                 values: list[int], width: int, counters: VisitCounters | None,
                 touched: set | None, steps: StepCounter | None) -> dict[int, int]:
    """Run `walks` rotor walks from s over the loaded register values.

    Returns how many walks ended at each sink. Every FWD and REV batch of the
    estimators runs through this one loop. A walk about to take step g.n + 1
    raises WalkCycleError and leaves `values` half walked.

    A walk on a LayeredLiftView is a walk on its base graph plus a layer
    counter: vertex (layer, v) keeps its register at layer * base_n + v and
    the walk stops on the last layer. The lift is never materialized, and
    the base graph answers exactly the queries it answers through the view.
    Any other graph is walked as itself, with stride 0 and no last layer.
    """
    if type(g) is LayeredLiftView:
        base, stride, last = g.base, g.base_n, g.layers * g.base_n
    else:
        base, stride, last = g, 0, -1
    outdeg, outnbr = base.outdeg, base.outnbr
    mask = (1 << width) - 1
    fwd = mode == FWD
    n = g.n
    visits = transitions = None
    if counters is not None:
        visits, transitions = counters.visits, counters.transitions
    mark = touched.add if touched is not None else None
    off0 = s - s % stride if stride else 0
    v0 = s - off0
    ends: dict[int, int] = {}
    for _ in range(walks):
        off, v, hops = off0, v0, 0
        while True:
            i = off + v
            if visits is not None:
                visits[i] += 1
            if off == last:
                break
            d = outdeg(v)
            if d == 0:
                break
            if hops >= n:
                raise WalkCycleError(
                    "walk exceeded the vertex count; input graph has a cycle"
                )
            x = values[i]
            if fwd:
                r = x % d
                values[i] = (x + 1) & mask
            else:
                x = (x - 1) & mask
                values[i] = x
                r = x % d
            if mark is not None:
                mark(i)
            if transitions is not None:
                transitions[i][r] += 1
            v = outnbr(v, r)
            off += stride
            hops += 1
        ends[i] = ends.get(i, 0) + 1
        if steps is not None:
            steps.n += hops
    return ends


def walk_once(
    g: GraphOracle,
    s: int,
    mode: str,
    regs: WalkRegisters,
    counters: VisitCounters | None = None,
) -> int:
    """Run a single rotor walk against the tape; returns the sink vertex.

    The registers are written back only when the walk finishes, so a walk
    that raises WalkCycleError leaves the tape as it was.
    """
    if mode not in (FWD, REV):
        raise ValueError(f"mode must be {FWD!r} or {REV!r}")
    values = regs.load()
    touched: set = set()
    (end,) = _rotor_walks(g, s, mode, 1, values, regs.width, counters, touched, None)
    regs.mark_touched(touched)
    regs.flush(values)
    return end


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
    reverse walks to undo every register change. The cycle guard raises
    WalkCycleError on non-acyclic input; the registers are written back only
    after both batches finish, so the tape is then left as it was.
    """
    if not (0 <= s < g.n and 0 <= t < g.n):
        raise ValueError(f"s={s}, t={t} out of range for {g.n} vertices")
    if g.outdeg(t) != 0:
        raise SinkVertexError(f"target {t} is not a sink")
    m = g.edge_count()
    K = simulation_count(m, eps)
    width = register_width(K)
    if tape is None:
        tape = CatalyticTape.zeros(g.n * width)
    regs = WalkRegisters(tape, 0, g.n, width)
    counters = VisitCounters.for_graph(g) if collect else None
    touched: set = set()
    with DriverRun(
        tape, meter, width=width, vertex=g.n,
        edge_choice=max(g.outdeg(v) for v in range(g.n)) + 1,
        walk_index=K + 1, n_reach=K + 1, hop_guard=g.n + 2, walk_count=K + 1,
    ) as run:
        values = regs.load()
        ends = _rotor_walks(g, s, FWD, K, values, width, counters, touched, run.steps)
        _rotor_walks(g, s, REV, K, values, width, None, touched, run.steps)
        regs.mark_touched(touched)
        regs.flush(values)
    n_reach = ends.get(t, 0)
    if counters is not None:
        counters.n_reach = n_reach
    metrics = run.metrics(regs.touched_bits, estimate=n_reach / K,
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


class RotorRegisters:
    """Variable-width rotors: vertex v stores a value in [outdeg(v)].

    Spans are packed in vertex order with the widths of `rotor_widths` into
    the one span [base, end), v's at `offsets[v]` bits in, so each method is
    one tape read and/or write. A raw span is interpreted mod outdeg(v).
    """

    def __init__(self, tape: CatalyticTape, g: GraphOracle, base: int = 0):
        self.tape = tape
        self.g = g
        self.base = base
        self.widths = rotor_widths(g)
        self.offsets = list(accumulate(self.widths, initial=0))
        self.end = base + self.offsets.pop()
        tape._check_span(base, self.end - base)

    def snapshot_spans(self) -> list[int]:
        blob = self.tape.read_bits(self.base, self.end - self.base)
        return [(blob >> off) & ((1 << w) - 1)
                for off, w in zip(self.offsets, self.widths)]

    def load(self) -> list[int]:
        outdeg = self.g.outdeg
        return [raw % d if (d := outdeg(v)) > 0 else raw
                for v, raw in enumerate(self.snapshot_spans())]

    def flush(self, values: list[int]) -> None:
        """Write every rotor with one tape write; values are checked first."""
        blob = 0
        for off, w, x in zip(self.offsets, self.widths, values, strict=True):
            if x < 0 or x >> w:
                raise ValueError(f"rotor value {x} does not fit in {w} bits")
            blob |= x << off
        self.tape.write_bits(self.base, self.end - self.base, blob)

    def restore_spans(self, snap: list[int]) -> None:
        self.flush(snap)


def stationary_tape_bits(g: GraphOracle) -> int:
    return sum(rotor_widths(g))


@dataclass
class StationaryResult:
    rho: float
    t_prime: int
    visit_counts: list[int] | None
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
    collect: bool = False,
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
    for v in range(g.n):
        if g.outdeg(v) == 0:
            raise SinkVertexError(f"vertex {v} has no outgoing edges")
    m = g.edge_count()
    t_prime = walk_length(mix_time, m, delta)
    if tape is None:
        tape = CatalyticTape.zeros(stationary_tape_bits(g))
    rotors = RotorRegisters(tape, g)
    outdeg, outnbr = g.outdeg, g.outnbr
    counts = [0] * g.n
    v = start
    with DriverRun(
        tape, meter, vertex=g.n, edge_choice=max(g.outdeg(v) for v in range(g.n)) + 1,
        step=t_prime + 1, n_visit=t_prime + 1,
    ) as run:
        snap = rotors.snapshot_spans()
        # one read serves both: every out-degree is positive here, so each
        # rotor is its span mod out-degree, as `load` would give
        values = [raw % outdeg(u) for u, raw in enumerate(snap)]
        # restore inside the try and again on the way out of it, so a fault
        # in the restoring write itself is retried
        try:
            for _ in range(t_prime):
                counts[v] += 1
                r = values[v]
                values[v] = (r + 1) % outdeg(v)
                v = outnbr(v, r)
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
    return StationaryResult(rho, t_prime, counts if collect else None, values, metrics)
