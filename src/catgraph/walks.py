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

from dataclasses import dataclass

from .errors import SinkVertexError, WalkCycleError
from .graphs import GraphOracle, LayeredLiftView, lift_layered, with_sink_loops
from .metrics import DriverRun, RunMetrics, StepCounter
from .tape import CatalyticTape, WorkspaceMeter, ceil_log2

FWD = "fwd"
REV = "rev"


def simulation_count(m: int, eps: float) -> int:
    """Number of walks K for additive error eps: ceil(2m/eps), at least 1."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    return _ceil_div_float(2 * m, eps)


def _ceil_div_float(num: int, eps: float) -> int:
    k = int(num / eps)
    while k * eps < num:
        k += 1
    return max(k, 1)


def register_width(K: int) -> int:
    """Register bits: ceil(log2 K), clamped to at least one bit."""
    return max(1, ceil_log2(max(K, 2)))


class WalkRegisters:
    """One width-bit register per vertex, packed on the tape from `base`.

    Hot loops run against a loaded list of values; `flush` writes the list
    back so the tape is authoritative at every API boundary.
    """

    def __init__(self, tape: CatalyticTape, base: int, count: int, width: int):
        if width < 1:
            raise ValueError("width must be at least 1")
        tape._check_span(base, count * width)
        self.tape = tape
        self.base = base
        self.count = count
        self.width = width
        self._touched = set()

    def load(self) -> list[int]:
        t, w = self.tape, self.width
        return [t.read_bits(self.base + i * w, w) for i in range(self.count)]

    def flush(self, values: list[int]) -> None:
        t, w = self.tape, self.width
        for i, v in enumerate(values):
            t.write_bits(self.base + i * w, w, v)

    def mark_touched(self, indices) -> None:
        self._touched.update(indices)

    @property
    def touched_bits(self) -> int:
        return len(self._touched) * self.width


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

    def to_json_dict(self) -> dict:
        """Maps keyed by vertex and by "vertex:edge-index"."""
        return {
            "visits": {str(v): c for v, c in enumerate(self.visits)},
            "transitions": {
                f"{v}:{r}": c
                for v, row in enumerate(self.transitions)
                for r, c in enumerate(row)
            },
            "n_reach": self.n_reach,
        }


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


def _walk(g: GraphOracle, s: int, mode: str, values: list[int], width: int,
          counters: VisitCounters | None, touched: set | None,
          steps: StepCounter | None) -> int:
    """One walk over the loaded register values; returns the sink reached."""
    (end,) = _rotor_walks(g, s, mode, 1, values, width, counters, touched, steps)
    return end


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
    end = _walk(g, s, mode, values, regs.width, counters, touched, None)
    regs.flush(values)
    regs.mark_touched(touched)
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
    base: int = 0,
    collect: bool = False,
    meter: WorkspaceMeter | None = None,
    normalizations: list[str] | None = None,
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
        tape = CatalyticTape.zeros(base + g.n * width)
    regs = WalkRegisters(tape, base, g.n, width)
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
        regs.flush(values)
        regs.mark_touched(touched)
    n_reach = ends.get(t, 0)
    if counters is not None:
        counters.n_reach = n_reach
    metrics = run.metrics(regs.touched_bits, estimate=n_reach / K,
                          normalizations=list(normalizations or []),
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
    return dag_tape_bits(lift_layered(with_sink_loops(g), T), eps)


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
    normalizations = []
    if walkable is not g:
        normalizations.append(f"sink-self-loops:{len(walkable.loop_vertices)}")
    lift = lift_layered(walkable, T)
    dag = estimate_dag(
        lift,
        lift.encode(0, s),
        lift.encode(T, t),
        eps,
        tape,
        collect=collect,
        meter=meter,
        normalizations=normalizations,
    )
    return GeneralWalkResult(dag.rho, lift, dag, dag.metrics)


# ---------------------------------------------------------------------------
# Stationary rotor walk (not catalytic in-band)
# ---------------------------------------------------------------------------


def rotor_widths(g: GraphOracle) -> list[int]:
    """Rotor bits per vertex: ceil(log2 outdeg(v)), one bit minimum."""
    return [ceil_log2(max(g.outdeg(v), 2)) for v in range(g.n)]


class RotorRegisters:
    """Variable-width rotors: vertex v stores a value in [outdeg(v)].

    Spans are packed in vertex order with the widths of `rotor_widths`; a
    raw span is interpreted mod outdeg(v).
    """

    def __init__(self, tape: CatalyticTape, g: GraphOracle, base: int = 0):
        self.tape = tape
        self.g = g
        self.offsets = []
        self.widths = rotor_widths(g)
        off = base
        for w in self.widths:
            self.offsets.append(off)
            off += w
        self.end = off
        tape._check_span(base, off - base)

    def load(self) -> list[int]:
        out = []
        for v in range(self.g.n):
            raw = self.tape.read_bits(self.offsets[v], self.widths[v])
            d = self.g.outdeg(v)
            out.append(raw % d if d > 0 else raw)
        return out

    def flush(self, values: list[int], only=None) -> None:
        which = range(self.g.n) if only is None else only
        for v in which:
            self.tape.write_bits(self.offsets[v], self.widths[v], values[v])

    def snapshot_spans(self) -> list[int]:
        return [self.tape.read_bits(self.offsets[v], self.widths[v]) for v in range(self.g.n)]

    def restore_spans(self, snap: list[int]) -> None:
        for v, val in enumerate(snap):
            self.tape.write_bits(self.offsets[v], self.widths[v], val)

    @property
    def total_bits(self) -> int:
        return self.end - self.offsets[0] if self.offsets else 0


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
    if delta <= 0:
        raise ValueError("delta must be positive")
    return _ceil_div_float(T * (m + 2), delta)


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
        raise ValueError(f"v_star={v_star} out of range")
    for v in range(g.n):
        if g.outdeg(v) == 0:
            raise SinkVertexError(f"vertex {v} has no outgoing edges")
    m = g.edge_count()
    t_prime = walk_length(mix_time, m, delta)
    if tape is None:
        tape = CatalyticTape.zeros(stationary_tape_bits(g))
    rotors = RotorRegisters(tape, g)
    counts = [0] * g.n if collect else None
    visited = set()
    n_visit = 0
    v = start
    with DriverRun(
        tape, meter, vertex=g.n, edge_choice=max(g.outdeg(v) for v in range(g.n)) + 1,
        step=t_prime + 1, n_visit=t_prime + 1,
    ) as run:
        snap = rotors.snapshot_spans() if restore else None
        values = rotors.load()
        for _ in range(t_prime):
            if v == v_star:
                n_visit += 1
            if counts is not None:
                counts[v] += 1
            d = g.outdeg(v)
            r = values[v]
            values[v] = (values[v] + 1) % d
            visited.add(v)
            v = g.outnbr(v, r)
            run.steps.n += 1
        # only rotors the walk actually advanced are written back
        rotors.flush(values, only=sorted(visited))
        final = rotors.load()
        if restore:
            rotors.restore_spans(snap)
    rho = n_visit / t_prime if t_prime else 0.0
    metrics = run.metrics(
        sum(rotors.widths[u] for u in visited), estimate=rho,
        normalizations=["out-of-band-rotor-restore"] if restore else [],
        extra={"t_prime": t_prime, "in_band_irreversible": True},
    )
    return StationaryResult(rho, t_prime, counts, final, metrics)
