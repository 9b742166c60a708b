"""Edge-push register programs and the three s->t connectivity drivers.

Two register programs do the work:

* a layered program over {0..T} x V whose push/reverse sequences leave the
  register difference between the b=1 and b=0 runs equal to the number of
  length-i s->v paths mod q (and which supports answering "what was this
  register's original value" at any pause point);
* a two-bank program over {0,1} x V that alternates parity per phase, adds a
  dummy self-edge at every vertex, and computes (mod q) a value that is
  nonzero over the integers exactly when an s->t path of length <= T exists.

The drivers wrap these with modulus/shift selection: deterministic (q = 2**l
large enough for exactness), randomized (small random modulus plus a random
shift, may abort), and the locally revertible variant on the degree-reduced
graph.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable, Sequence

from .errors import InvalidRegisterError
from .graphs import DegreeReducedView, GraphOracle, SelfLoopView
from .metrics import DriverRun, RunMetrics, StepCounter
from .tape import (
    GROUP_BITS,
    CatalyticTape,
    RegisterFile,
    RegisterSpan,
    WorkspaceMeter,
    allocate_registers,
    ceil_log2,
)

VERDICT_PATH = "path"
VERDICT_NO_PATH = "no-path"
VERDICT_ABORT = "abort"

DEFAULT_KAPPA = 8.0


def nonzero_value_bound(n: int) -> int:
    """Upper bound (exclusive) used to size exact registers: (n+1)^n + 1."""
    return (n + 1) ** n + 1


@dataclass
class ConnectivityAnswer:
    verdict: str
    metrics: RunMetrics


@dataclass(frozen=True)
class PausePoint:
    """Identifier handed to the revertibility hook at each safe point."""

    pause_id: int
    iteration: int
    stage: str


# ---------------------------------------------------------------------------
# Push kernel shared by both programs
# ---------------------------------------------------------------------------


def _push_layer(
    file: RegisterFile,
    src: RegisterSpan,
    dst: RegisterSpan,
    sources: Sequence[Sequence[int]],
    sign: int,
) -> None:
    """Edge pushes from one span of registers into another.

    The k-th destination gains sign times the sum of the residues of the
    source registers at the positions `sources[k]`. Every source and every
    destination with sources is validated before anything is written. Each
    span is read with one `gather` and `dst` is written with one `scatter`,
    so registers left out of the spans stay untouched and clean.
    """
    q, limit = file.modulus, file._limit
    src_vals = file.gather(src)
    dst_vals = file.gather(dst)
    if src_vals and max(src_vals) >= limit:
        k = next(k for k, val in enumerate(src_vals) if val >= limit)
        raise InvalidRegisterError(
            f"register {src.indices[k]} holds {src_vals[k]} >= q*d = {limit}"
        )
    res = [val % q for val in src_vals]
    out = []
    for val, srcs in zip(dst_vals, sources):
        if srcs:
            if val >= limit:
                raise InvalidRegisterError(
                    f"register {dst.indices[len(out)]} holds {val} >= q*d = {limit}"
                )
            total = 0
            for u in srcs:
                total += res[u]
            b = val % q
            val = val - b + (b + sign * total) % q
        out.append(val)
    file.scatter(dst, out)


# ---------------------------------------------------------------------------
# The run protocol shared by both programs
# ---------------------------------------------------------------------------


class _PushProgram:
    """Add b at register s, push T phases; undo by the reverse sequence.

    Phase i is the subclass's `_push(i, sign)`: sign 1 applies it, -1
    subtracts the same sums again. `pushed` counts the phases currently
    applied (always phases 0..pushed-1) and `b_applied` the start increment;
    each is updated only after its tape write succeeds, so `unwind` can undo
    a run cut short anywhere. `pause(stage)`, when given, is called after
    every step of `run_push` and `run_reverse`.

    A subclass builds its register spans once, from the file it is given;
    `use_file` moves the program to another file over the same registers,
    so a randomized driver builds one program per call and hands it each
    iteration's file.
    """

    def __init__(self, s: int, T: int, file: RegisterFile,
                 steps: StepCounter | None,
                 pause: Callable[[str], None] | None = None):
        self.s = s
        self.T = T
        self.file = file
        self.steps = steps or StepCounter()
        self.pause = pause
        self.pushed = 0
        self.b_applied = 0

    def use_file(self, file: RegisterFile) -> None:
        """Run on `file` from now on; only its modulus may differ."""
        old = self.file
        if (file.tape is not old.tape or file.base != old.base
                or file.width != old.width or file.count != old.count):
            raise ValueError(
                "a program's new file must keep its tape, base, width and count"
            )
        self.file = file

    def _push(self, i: int, sign: int) -> None:
        raise NotImplementedError

    def forward_phase(self) -> None:
        self._push(self.pushed, 1)
        self.pushed += 1

    def reverse_phase(self) -> None:
        self._push(self.pushed - 1, -1)
        self.pushed -= 1

    def run_push(self, b: int) -> None:
        assert self.pushed == 0
        pause = self.pause
        self.file.add_mod(self.s, b)
        self.b_applied = b
        self.steps.add(1)
        if pause is not None:
            pause(f"start-increment:b={b}")
        for i in range(self.T):
            self.forward_phase()
            if pause is not None:
                pause(f"push:b={b}:layer={i}")

    def run_reverse(self, b: int) -> None:
        pause = self.pause
        for _ in range(self.T):
            self.reverse_phase()
            if pause is not None:
                pause(f"reverse:b={b}:layer={self.pushed}")
        self.file.sub_mod(self.s, b)
        self.b_applied = 0
        self.steps.add(1)
        if pause is not None:
            pause(f"start-decrement:b={b}")

    def unwind(self) -> None:
        """Undo the pushed phases and the start increment, without pausing."""
        while self.pushed:
            self.reverse_phase()
        if self.b_applied:
            self.file.sub_mod(self.s, self.b_applied)
            self.b_applied = 0


# ---------------------------------------------------------------------------
# Two-bank parity program (nonzero detection)
# ---------------------------------------------------------------------------


class ParityProgram(_PushProgram):
    """Registers R[bank*n + v] for bank in {0,1}; phase i pushes bank i & 1.

    A phase accumulates, into the other bank, each vertex's own residue (the
    dummy self-edge) plus the residues of its in-neighbors.
    """

    def __init__(self, graph: GraphOracle, s: int, T: int, file: RegisterFile,
                 steps: StepCounter | None = None):
        n = graph.n
        if file.count != 2 * n:
            raise ValueError("parity program needs exactly 2n registers")
        super().__init__(s, T, file, steps)
        self.n = n
        self.banks = (file.span(range(n)), file.span(range(n, 2 * n)))
        # each vertex's own residue (the dummy self-edge) and its in-neighbors'
        self.sources = [[v, *graph.in_neighbors(v)] for v in range(n)]
        self.pushes_per_phase = sum(len(l) for l in self.sources)

    def _push(self, i: int, sign: int) -> None:
        _push_layer(self.file, self.banks[i & 1], self.banks[(i + 1) & 1],
                    self.sources, sign)
        self.steps.add(self.pushes_per_phase)

    def answer_index(self, t: int) -> int:
        # step-T values live in the bank last pushed to
        return (self.T % 2) * self.n + t


def st_nonzero_mod(
    prog: ParityProgram, t: int, *, meter: WorkspaceMeter | None = None
) -> int:
    """Reachability witness mod q via a built two-bank program, q its modulus.

    Requires the program's 2n registers valid for q; restores the tape before
    returning. The underlying integer is nonzero exactly when an s->t path of
    length <= T exists, so a nonzero residue proves a path; the converse
    holds when q exceeds the (n+1)^T value bound, and otherwise with good
    probability over a random q.
    """
    return _extract_residue(prog, prog.answer_index(t), meter)


# ---------------------------------------------------------------------------
# Layered program (exact counting + local revertibility)
# ---------------------------------------------------------------------------


class LayeredPushState(_PushProgram):
    """Registers R[i*n + v] for layers i in {0..T}; phase i pushes i into i+1.

    The pushed-phase count and the start increment are exactly the state
    needed to answer original-value queries at every pause point.
    """

    def __init__(
        self,
        graph: GraphOracle,
        s: int,
        T: int,
        file: RegisterFile,
        *,
        relevant: Sequence[int] | None = None,
        steps: StepCounter | None = None,
        pause: Callable[[str], None] | None = None,
    ):
        n = graph.n
        if file.count != (T + 1) * n:
            raise ValueError("layered program needs (T+1)*n registers")
        super().__init__(s, T, file, steps, pause)
        self.n_ids = n
        ids = range(n) if relevant is None else sorted(relevant)
        self.relevant_set = set(ids)
        self.in_lists = {v: graph.in_neighbors(v) for v in ids}
        if any(u not in self.relevant_set
               for l in self.in_lists.values() for u in l):
            raise ValueError("every in-neighbor of a relevant vertex must be relevant")
        # per layer, the spans of the relevant registers (the push sources,
        # and what a driver shifts and scans) and of those of them with
        # in-neighbors (the destinations); sources by position in ids
        pos = {v: k for k, v in enumerate(ids)}
        dsts = [v for v in ids if self.in_lists[v]]
        self.layers = [file.span([i * n + v for v in ids]) for i in range(T + 1)]
        self._dst = [file.span([i * n + v for v in dsts]) for i in range(T + 1)]
        self._sources = [[pos[u] for u in self.in_lists[v]] for v in dsts]
        self.pushes_per_layer = sum(len(l) for l in self.in_lists.values())
        # each vertex's in-neighbors in layer 0; `original_value` reads them
        # in layer i - 1 by moving the span i - 1 layers up the tape
        self._in_spans = {v: file.span(l) for v, l in self.in_lists.items()}
        self._layer_bits = n * file.width

    def _reg(self, i: int, v: int) -> int:
        return i * self.n_ids + v

    def layer_push(self, i: int, reverse: bool = False) -> None:
        """Push (or reverse-push) every edge from layer i into layer i+1."""
        _push_layer(self.file, self.layers[i], self._dst[i + 1], self._sources,
                    -1 if reverse else 1)
        self.steps.add(self.pushes_per_layer)

    def _push(self, i: int, sign: int) -> None:
        self.layer_push(i, sign < 0)

    def original_value(self, i: int, v: int) -> int:
        """Initial value of register (i, v) at the current pause point.

        If layer i is currently pushed, the register equals its initial value
        plus the (unchanged) layer-(i-1) residues of v's in-neighbors; layer 0
        carries only the start increment. The tape is read, never written.
        """
        file = self.file
        value = file.read(self._reg(i, v))
        if v not in self.relevant_set:
            return value
        q, limit = file.modulus, file._limit
        delta = 0
        if i == 0:
            if v == self.s:
                delta = self.b_applied
        elif i <= self.pushed and self.in_lists[v]:
            span, mask = self._in_spans[v], file._mask
            blob = file.tape.read_bits(
                span.offset + (i - 1) * self._layer_bits, span.bits)
            for u, pos in zip(span.indices, span.shifts):
                val = (blob >> pos) & mask
                if val >= limit:
                    raise InvalidRegisterError(
                        f"register {self._reg(i - 1, u)} holds {val} >= q*d = {limit}"
                    )
                delta += val % q
        b = value % q
        return value - b + (b - delta) % q

    def answer_index(self, t: int) -> int:
        # length-T path counts live in the last layer
        return self._reg(self.T, t)


def revert_query(state: LayeredPushState, reg: tuple[int, int]) -> int:
    """Original value of register reg=(layer, vertex); see LayeredPushState."""
    return state.original_value(reg[0], reg[1])


def st_count_mod(
    state: LayeredPushState, t: int, *, meter: WorkspaceMeter | None = None
) -> int:
    """(number of length-T s->t paths) mod q via a built layered program.

    q is the program's modulus. Requires its relevant registers valid for q;
    restores the tape before returning.
    """
    return _extract_residue(state, state.answer_index(t), meter)


# ---------------------------------------------------------------------------
# Residue extraction
# ---------------------------------------------------------------------------


def _extract_residue(
    prog: _PushProgram,
    idx: int,
    meter: WorkspaceMeter | None,
) -> int:
    """Difference of register idx's residues across b=1 and b=0 runs, mod q.

    Small (or non-power-of-two) q: one streaming mod-q pass per b, two
    push/reverse pairs in total. Wide power-of-two q: the register is wider
    than anything we may hold, so the difference is assembled GROUP_BITS at a
    time with a borrow, re-running the push sequence once per group and per b.

    Any exception, from a tape write, a meter charge or a pause hook,
    unwinds the program before it propagates, so the registers are restored.
    """
    q = prog.file.modulus
    try:
        if q & (q - 1) == 0 and q.bit_length() - 1 > GROUP_BITS:
            return _extract_grouped(prog, idx, meter)
        return _extract_streaming(prog, idx, meter)
    except BaseException:
        prog.unwind()
        raise


def _extract_streaming(prog, idx, meter) -> int:
    file = prog.file
    q = file.modulus
    charged = 0
    if meter is not None:
        charged = meter.charge_scalars(
            acc0=q, acc1=q, group=1 << min(GROUP_BITS, file.width), b=2,
            position=file.width + 1,
        )
    try:
        res = []
        for b in (0, 1):
            prog.run_push(b)
            res.append(file.stream_residue(idx, q))
            prog.run_reverse(b)
        return (res[1] - res[0]) % q
    finally:
        if meter is not None:
            meter.release(charged)


def _extract_grouped(prog, idx, meter) -> int:
    file = prog.file
    kq = file.modulus.bit_length() - 1
    ngroups = (kq + GROUP_BITS - 1) // GROUP_BITS
    charged = 0
    if meter is not None:
        charged = meter.charge_scalars(
            group0=1 << GROUP_BITS, group1=1 << GROUP_BITS, borrow=2, b=2,
            group_index=ngroups + 1,
        )
    try:
        out = 0
        borrow = 0
        for g in range(ngroups):
            lo = g * GROUP_BITS
            gw = min(GROUP_BITS, kq - lo)
            gmask = (1 << gw) - 1
            prog.run_push(0)
            g0 = file.read_group(idx, g) & gmask
            prog.run_reverse(0)
            prog.run_push(1)
            g1 = file.read_group(idx, g) & gmask
            prog.run_reverse(1)
            diff = g1 - g0 - borrow
            borrow = 1 if diff < 0 else 0
            out |= (diff & gmask) << lo
        # a final borrow wraps mod 2**kq, which is exactly the q we want
        return out
    finally:
        if meter is not None:
            meter.release(charged)


# ---------------------------------------------------------------------------
# Drivers
# ---------------------------------------------------------------------------


class _Shift:
    """A random shift beta over a file's registers, applied layer by layer.

    `layers` holds the register span of each layer; one `shift_indices`
    call moves one layer, atomically. `done` counts the layers that carry the
    shift, always a prefix of `layers`, so `undo` removes it from exactly
    those, top layer first.
    """

    def __init__(self, file: RegisterFile, layers: Sequence[RegisterSpan], beta: int):
        self.file = file
        self.layers = layers
        self.beta = beta
        self.done = 0

    def apply(self) -> None:
        for regs in self.layers:
            self.file.shift_indices(regs, self.beta)
            self.done += 1

    def undo(self) -> None:
        inverse = (-self.beta) & self.file._mask
        while self.done:
            self.file.shift_indices(self.layers[self.done - 1], inverse)
            self.done -= 1

    def run(self, body: Callable[[], int | None]) -> int | None:
        """body() with the shift applied; the shift is gone on every exit.

        The normal-path undo sits inside the `try`, so an exception raised
        by it, too, is followed by an undo from the layers still shifted.
        """
        try:
            self.apply()
            result = body()
            self.undo()
        except BaseException:
            self.undo()
            raise
        return result


def _trivial_answer(verdict: str) -> ConnectivityAnswer:
    return ConnectivityAnswer(verdict, RunMetrics(verdict=verdict, tape_restored=True))


def _check_st(graph: GraphOracle, s: int, t: int) -> None:
    if not (0 <= s < graph.n and 0 <= t < graph.n):
        raise ValueError(f"s={s}, t={t} out of range for {graph.n} vertices")
    # the (n+1)^T value bound that sizes the registers assumes a loop-free
    # input; self-loops are added internally where a construction needs them
    for v in range(graph.n):
        if v in graph.in_neighbors(v):
            raise ValueError(
                f"vertex {v} has a self-loop; connectivity drivers require a "
                "loop-free simple digraph"
            )


def det_register_width(n: int) -> int:
    return ceil_log2(nonzero_value_bound(n))


def connect_det_tape_bits(n: int) -> int:
    return 2 * n * det_register_width(n)


def connect_det(
    graph: GraphOracle,
    s: int,
    t: int,
    *,
    tape: CatalyticTape | None = None,
    meter: WorkspaceMeter | None = None,
) -> ConnectivityAnswer:
    """Deterministic reachability: q = 2**l with l sized for exactness.

    Every register is valid no matter the tape content, so there is no shift
    and no abort; the nonzero routine runs once with T = n.
    """
    _check_st(graph, s, t)
    if s == t:
        return _trivial_answer(VERDICT_PATH)
    n = graph.n
    ell = det_register_width(n)
    q = 1 << ell
    if tape is None:
        tape = CatalyticTape.zeros(connect_det_tape_bits(n))
    m = graph.edge_count()
    with DriverRun(
        tape, meter, width=ell, vertex=n, nbr_index=n + 2, layer=n + 2,
        sigma=2, b=2, edge_cursor=m + n + 2, nonzero_flag=2,
    ) as run:
        file = allocate_registers(tape, 0, 2 * n, ell, q)
        prog = ParityProgram(graph, s, n, file, run.steps)
        zeta = st_nonzero_mod(prog, t, meter=run.meter)
    verdict = VERDICT_PATH if zeta != 0 else VERDICT_NO_PATH
    metrics = run.metrics(file.touched_bits, verdict=verdict,
                          normalizations=["dummy-self-edges"])
    return ConnectivityAnswer(verdict, metrics)


def rand_parameters(n: int) -> tuple[int, int]:
    """(modulus ceiling P**2, register width) for the randomized driver."""
    P = ceil_log2(nonzero_value_bound(n))
    return P * P, 5 * ceil_log2(P)


def connect_rand_tape_bits(n: int) -> int:
    return 2 * n * rand_parameters(n)[1]


def iteration_count(n: int, kappa: float) -> int:
    return max(1, math.ceil(kappa * math.log2(max(n, 2))))


def connect_rand(
    graph: GraphOracle,
    s: int,
    t: int,
    seed: int = 0,
    kappa: float = DEFAULT_KAPPA,
    *,
    tape: CatalyticTape | None = None,
    meter: WorkspaceMeter | None = None,
) -> ConnectivityAnswer:
    """Randomized reachability: random small modulus plus a random shift.

    Sound unconditionally (only a genuinely nonzero count can produce a
    nonzero residue); complete with probability growing in the iteration
    count kappa*log2(n). Returns "abort" if a shift leaves some register
    invalid, restoring the tape first.
    """
    _check_st(graph, s, t)
    if s == t:
        return _trivial_answer(VERDICT_PATH)
    n = graph.n
    q_hi, ell = rand_parameters(n)
    if tape is None:
        tape = CatalyticTape.zeros(connect_rand_tape_bits(n))
    rng = random.Random(seed)
    iters = iteration_count(n, kappa)
    m = graph.edge_count()
    verdict = VERDICT_NO_PATH
    aborted = False
    touched = 0
    with DriverRun(
        tape, meter, width=ell, vertex=n, nbr_index=n + 2, layer=n + 2,
        sigma=2, b=2, edge_cursor=m + n + 2, iteration=iters + 1,
        q=q_hi, d=1 << ell, beta=1 << ell,
    ) as run:
        prog = None

        def scan_and_count() -> int | None:
            run.steps.add(2 * n)
            limit = file._limit
            if all(max(file.gather(bank)) < limit for bank in prog.banks):
                return st_nonzero_mod(prog, t, meter=run.meter)
            return None

        for _ in range(iters):
            q = rng.randrange(2, q_hi)
            beta = rng.getrandbits(ell)
            file = allocate_registers(tape, 0, 2 * n, ell, q)
            if prog is None:
                prog = ParityProgram(graph, s, n, file, run.steps)
            else:
                prog.use_file(file)
            zeta = _Shift(file, prog.banks, beta).run(scan_and_count)
            run.steps.add(2 * n)
            touched = max(touched, file.touched_bits)
            if zeta is None:
                aborted = True
                verdict = VERDICT_ABORT
                break
            if zeta != 0:
                verdict = VERDICT_PATH
                break
    metrics = run.metrics(touched, verdict=verdict, aborted=aborted,
                          normalizations=["dummy-self-edges"])
    return ConnectivityAnswer(verdict, metrics)


def revertible_parameters(graph: GraphOracle) -> dict:
    """Sizing for the locally revertible driver on the degree-reduced view."""
    view = DegreeReducedView(graph)
    T = view.diameter_bound()
    p = ceil_log2(max(view.n, 2) ** T)
    ell = 5 * ceil_log2(max(p, 2))
    return {
        "view": view, "view_n": view.n, "T": T, "p": p, "ell": ell,
        "q_hi": p * p,
    }


def connect_revertible_tape_bits(graph: GraphOracle) -> int:
    params = revertible_parameters(graph)
    return (params["T"] + 1) * params["view_n"] * params["ell"]


def connect_revertible(
    graph: GraphOracle,
    s: int,
    t: int,
    seed: int = 0,
    kappa: float = DEFAULT_KAPPA,
    *,
    tape: CatalyticTape | None = None,
    meter: WorkspaceMeter | None = None,
    pause_hook: Callable[[PausePoint, Callable[[int], int]], None] | None = None,
) -> ConnectivityAnswer:
    """Randomized reachability with fast original-bit queries at pause points.

    Runs the exact layered counter on the degree-reduced view (max in-degree
    2, plus a virtual self-loop at t for exact-length padding), touching only
    registers of relevant (non-isolated or s/t) vertices. The pause hook
    receives a query function mapping a tape bit index to its original value;
    an exception it raises propagates after the tape is restored.
    """
    _check_st(graph, s, t)
    if s == t:
        return _trivial_answer(VERDICT_PATH)
    n = graph.n
    params = revertible_parameters(graph)
    view = params["view"]
    looped = SelfLoopView(view, t)
    T, n_ids, ell, q_hi = params["T"], params["view_n"], params["ell"], params["q_hi"]
    relevant = sorted(set(view.iter_nonisolated()) | {s, t})
    if tape is None:
        tape = CatalyticTape.zeros((T + 1) * n_ids * ell)
    rng = random.Random(seed)
    iters = iteration_count(n, kappa)
    m = graph.edge_count()
    rel_count = (T + 1) * len(relevant)
    full = (1 << ell) - 1
    verdict = VERDICT_NO_PATH
    aborted = False
    touched = 0
    pause_id = 0
    state = None
    cache = None  # original register values, only while a hook call runs

    def query(bit_index: int) -> int:
        reg = file.register_at_bit(bit_index)
        if reg is None:
            return tape.read_bit(bit_index)
        layer, v = divmod(reg, n_ids)
        if v not in state.relevant_set:
            return tape.read_bit(bit_index)
        current = None if cache is None else cache.get(reg)
        if current is None:
            current = state.original_value(layer, v)
            if layer < shift.done:
                current = (current - beta) & full
            if cache is not None:
                cache[reg] = current
        return (current >> (bit_index - reg * ell)) & 1

    def fire(stage: str) -> None:
        nonlocal pause_id, cache
        if pause_hook is None:
            return
        cache = {}
        try:
            pause_hook(PausePoint(pause_id, iteration, stage), query)
        finally:
            cache = None
        pause_id += 1

    with DriverRun(
        tape, meter, width=ell, vertex=n_ids, nbr_index=4, layer=T + 2, b=2,
        edge_cursor=2 * (m + n) + 2, iteration=iters + 1,
        q=q_hi, d=1 << ell, beta=1 << ell,
    ) as run:

        def scan_and_count() -> int | None:
            run.steps.add(rel_count)
            fire("shifted")
            limit = file._limit
            if all(max(file.gather(layer)) < limit for layer in state.layers):
                return st_count_mod(state, t, meter=run.meter)
            return None

        try:
            for iteration in range(iters):
                q = rng.randrange(2, q_hi)
                beta = rng.getrandbits(ell)
                file = allocate_registers(tape, 0, (T + 1) * n_ids, ell, q)
                if state is None:
                    state = LayeredPushState(
                        looped, s, T, file, relevant=relevant, steps=run.steps,
                        pause=None if pause_hook is None else fire)
                else:
                    state.use_file(file)
                shift = _Shift(file, state.layers, beta)
                alpha = shift.run(scan_and_count)
                run.steps.add(rel_count)
                touched = max(touched, file.touched_bits)
                if alpha is None:
                    fire("abort-unshifted")
                    aborted = True
                    verdict = VERDICT_ABORT
                    break
                fire("unshifted")
                if alpha != 0:
                    verdict = VERDICT_PATH
                    break
        finally:
            # the hook reaches the state again through `query`; dropping
            # it lets the state go without waiting for the cycle collector
            if state is not None:
                state.pause = None
    metrics = run.metrics(
        touched, verdict=verdict, aborted=aborted,
        normalizations=["degree-reduction", f"virtual-self-loop:{t}"],
    )
    return ConnectivityAnswer(verdict, metrics)
