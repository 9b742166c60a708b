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
from .graphs import GraphOracle, add_virtual_self_loop, reduce_degree
from .metrics import DriverRun, RunMetrics, StepCounter
from .tape import (
    GROUP_BITS,
    CatalyticTape,
    RegisterFile,
    WorkspaceMeter,
    allocate_registers,
    ceil_log2,
)

VERDICT_PATH = "path"
VERDICT_NO_PATH = "no-path"
VERDICT_ABORT = "abort"

DEFAULT_KAPPA = 8.0


def path_count_bound(n: int, T: int) -> int:
    """Bound on the number of length-T paths between any two vertices."""
    return n**T


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
    src_base: int,
    dst_base: int,
    ids: Sequence[int],
    in_lists,
    sign: int,
    self_edge: bool,
) -> None:
    """Edge pushes from the block at src_base into the block at dst_base.

    Each destination v in `ids` that has sources gains sign times the sum of
    its sources' residues; the sources are `in_lists[v]`, plus v itself when
    `self_edge`. Every source in `ids` and every updated destination is
    validated before anything is written. `ids` is either `range(n)`, a whole
    block written back with one `write_block`, or a sorted list of relevant
    ids written register by register, so that registers left out of the
    list stay untouched.
    """
    count = ids[-1] + 1 if ids else 0
    q, limit = file.modulus, file._limit
    src = file.read_block(src_base, count)
    for u in ids:
        if src[u] >= limit:
            raise InvalidRegisterError(
                f"register {src_base + u} holds {src[u]} >= q*d = {limit}"
            )
    src = [val % q for val in src]
    dst = file.read_block(dst_base, count)
    updated = []
    for v in ids:
        nbrs = in_lists[v]
        if not (nbrs or self_edge):
            continue
        val = dst[v]
        if val >= limit:
            raise InvalidRegisterError(
                f"register {dst_base + v} holds {val} >= q*d = {limit}"
            )
        total = src[v] if self_edge else 0
        for u in nbrs:
            total += src[u]
        b = val % q
        dst[v] = val - b + (b + sign * total) % q
        updated.append(v)
    if isinstance(ids, range):
        file.write_block(dst_base, dst)
    else:
        for v in updated:
            file.write(dst_base + v, dst[v])


# ---------------------------------------------------------------------------
# Two-bank parity program (nonzero detection)
# ---------------------------------------------------------------------------


class ParityProgram:
    """Registers R[sigma*n + v] for sigma in {0,1}; pushes alternate banks.

    A forward phase accumulates, into the opposite bank, each vertex's own
    residue (the dummy self-edge) plus the residues of its in-neighbors, then
    flips sigma. A reverse phase flips sigma first and subtracts the same
    sums, so reverse phases unwind forward phases last-first.
    """

    def __init__(self, graph: GraphOracle, s: int, T: int, file: RegisterFile,
                 steps: StepCounter | None = None):
        n = graph.n
        if file.count != 2 * n:
            raise ValueError("parity program needs exactly 2n registers")
        self.n = n
        self.s = s
        self.T = T
        self.file = file
        self.steps = steps or StepCounter()
        self.in_lists = [graph.in_neighbors(v) for v in range(n)]
        self.pushes_per_phase = n + sum(len(l) for l in self.in_lists)
        self.sigma = 0

    def _apply_phase(self, sign: int) -> None:
        n = self.n
        _push_layer(self.file, self.sigma * n, (1 - self.sigma) * n, range(n),
                    self.in_lists, sign, self_edge=True)
        self.steps.add(self.pushes_per_phase)

    def forward_phase(self) -> None:
        self._apply_phase(1)
        self.sigma ^= 1

    def reverse_phase(self) -> None:
        self.sigma ^= 1
        self._apply_phase(-1)

    def run_push(self, b: int) -> None:
        assert self.sigma == 0
        self.file.add_mod(self.s, b)
        self.steps.add(1)
        for _ in range(self.T):
            self.forward_phase()

    def run_reverse(self, b: int) -> None:
        for _ in range(self.T):
            self.reverse_phase()
        self.file.sub_mod(self.s, b)
        self.steps.add(1)
        assert self.sigma == 0

    def answer_index(self, t: int) -> int:
        # step-T values live in the bank last pushed to
        return (self.T % 2) * self.n + t


def st_nonzero_mod(
    graph: GraphOracle,
    s: int,
    t: int,
    T: int,
    q: int,
    file: RegisterFile,
    *,
    steps: StepCounter | None = None,
    meter: WorkspaceMeter | None = None,
    _force_extract: str | None = None,
) -> int:
    """Reachability witness mod q via the two-bank program.

    Requires 2n registers valid for q; restores the tape before returning.
    The underlying integer is nonzero exactly when an s->t path of length
    <= T exists, so a nonzero residue proves a path; the converse holds when
    q exceeds the (n+1)^T value bound, and otherwise with good probability
    over a random q.
    """
    prog = ParityProgram(graph, s, T, file, steps)
    return _extract_residue(
        file, prog.answer_index(t), q, prog.run_push, prog.run_reverse,
        meter=meter, force=_force_extract,
    )


# ---------------------------------------------------------------------------
# Layered program (exact counting + local revertibility)
# ---------------------------------------------------------------------------


class LayeredPushState:
    """Registers R[i*n + v] for layers i in {0..T}; layer i pushes into i+1.

    Tracks which layers are currently pushed (always a prefix 1..dirty_hi)
    and whether the start increment is applied, which is exactly the state
    needed to answer original-value queries between phases.
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
        pause: Callable[["LayeredPushState", str], None] | None = None,
    ):
        n = graph.n
        if file.count != (T + 1) * n:
            raise ValueError("layered program needs (T+1)*n registers")
        self.graph = graph
        self.n_ids = n
        self.s = s
        self.T = T
        self.file = file
        self.steps = steps or StepCounter()
        self.pause = pause
        if relevant is None:
            self.ids = range(n)
            self.relevant_set = None
        else:
            self.ids = sorted(relevant)
            self.relevant_set = set(relevant)
        self.in_lists = {v: graph.in_neighbors(v) for v in self.ids}
        self.pushes_per_layer = sum(len(l) for l in self.in_lists.values())
        self.b_applied = 0
        self.dirty_hi = 0

    def _pause(self, stage: str) -> None:
        if self.pause is not None:
            self.pause(self, stage)

    def _reg(self, i: int, v: int) -> int:
        return i * self.n_ids + v

    def layer_push(self, i: int, reverse: bool = False) -> None:
        """Push (or reverse-push) every edge from layer i into layer i+1."""
        n = self.n_ids
        _push_layer(self.file, i * n, (i + 1) * n, self.ids, self.in_lists,
                    -1 if reverse else 1, self_edge=False)
        self.steps.add(self.pushes_per_layer)

    def run_push(self, b: int) -> None:
        self.file.add_mod(self._reg(0, self.s), b)
        self.b_applied = b
        self.steps.add(1)
        self._pause(f"start-increment:b={b}")
        for i in range(self.T):
            self.layer_push(i)
            self.dirty_hi = i + 1
            self._pause(f"push:b={b}:layer={i}")

    def run_reverse(self, b: int) -> None:
        for i in range(self.T - 1, -1, -1):
            self.layer_push(i, reverse=True)
            self.dirty_hi = i
            self._pause(f"reverse:b={b}:layer={i}")
        self.file.sub_mod(self._reg(0, self.s), b)
        self.b_applied = 0
        self.steps.add(1)
        self._pause(f"start-decrement:b={b}")

    def unwind(self) -> None:
        """Undo the pushed layers and the start increment, without pausing.

        Restores the registers after an exception at any pause point.
        """
        for i in range(self.dirty_hi - 1, -1, -1):
            self.layer_push(i, reverse=True)
            self.dirty_hi = i
        if self.b_applied:
            self.file.sub_mod(self._reg(0, self.s), self.b_applied)
            self.b_applied = 0

    def original_value(self, i: int, v: int) -> int:
        """Initial value of register (i, v) at the current pause point.

        If layer i is currently pushed, the register equals its initial value
        plus the (unchanged) layer-(i-1) residues of v's in-neighbors; layer 0
        carries only the start increment. The tape is read, never written.
        """
        idx = self._reg(i, v)
        value = self.file.read(idx)
        if self.relevant_set is not None and v not in self.relevant_set:
            return value
        q = self.file.modulus
        delta = 0
        if i == 0:
            if v == self.s:
                delta = self.b_applied
        elif i <= self.dirty_hi:
            for u in self.graph.in_neighbors(v):
                delta += self.file.residue(self._reg(i - 1, u))
        b = value % q
        return value - b + (b - delta) % q


def revert_query(state: LayeredPushState, reg: tuple[int, int]) -> int:
    """Original value of register reg=(layer, vertex); see LayeredPushState."""
    return state.original_value(reg[0], reg[1])


def st_count_mod(
    graph: GraphOracle,
    s: int,
    t: int,
    T: int,
    q: int,
    file: RegisterFile,
    *,
    relevant: Sequence[int] | None = None,
    steps: StepCounter | None = None,
    meter: WorkspaceMeter | None = None,
    pause: Callable[[LayeredPushState, str], None] | None = None,
    _force_extract: str | None = None,
) -> int:
    """(number of length-T s->t paths) mod q via the layered program.

    Requires (T+1)*n registers valid for q (the relevant ones when a
    relevant-vertex list is given); restores the tape before returning.
    """
    state = LayeredPushState(
        graph, s, T, file, relevant=relevant, steps=steps, pause=pause
    )
    return _extract_residue(
        file,
        state._reg(T, t),
        q,
        state.run_push,
        state.run_reverse,
        meter=meter,
        force=_force_extract,
    )


# ---------------------------------------------------------------------------
# Residue extraction
# ---------------------------------------------------------------------------


def _extract_residue(
    file: RegisterFile,
    idx: int,
    q: int,
    run_push: Callable[[int], None],
    run_reverse: Callable[[int], None],
    *,
    meter: WorkspaceMeter | None = None,
    force: str | None = None,
) -> int:
    """Difference of the answer register's residues across b=1 and b=0 runs.

    Small (or non-power-of-two) q: one streaming mod-q pass per b, two
    push/reverse pairs in total. Wide power-of-two q: the register is wider
    than anything we may hold, so the difference is assembled GROUP_BITS at a
    time with a borrow, re-running the push sequence once per group and per b.
    """
    pow2 = q & (q - 1) == 0
    kq = q.bit_length() - 1
    if force == "dance" or (force is None and pow2 and kq > GROUP_BITS):
        if not pow2:
            raise ValueError("group-wise extraction requires a power-of-two modulus")
        return _extract_grouped(file, idx, kq, run_push, run_reverse, meter)
    return _extract_streaming(file, idx, q, run_push, run_reverse, meter)


def _extract_streaming(file, idx, q, run_push, run_reverse, meter) -> int:
    charged = 0
    if meter is not None:
        charged = meter.charge_scalars(
            acc0=q, acc1=q, group=1 << min(GROUP_BITS, file.width), b=2,
            position=file.width + 1,
        )
    try:
        res = []
        for b in (0, 1):
            run_push(b)
            res.append(file.stream_residue(idx, q))
            run_reverse(b)
        return (res[1] - res[0]) % q
    finally:
        if meter is not None:
            meter.release(charged)


def _extract_grouped(file, idx, kq, run_push, run_reverse, meter) -> int:
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
            run_push(0)
            g0 = file.read_group(idx, g) & gmask
            run_reverse(0)
            run_push(1)
            g1 = file.read_group(idx, g) & gmask
            run_reverse(1)
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
        zeta = st_nonzero_mod(graph, s, t, n, q, file, steps=run.steps, meter=run.meter)
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
        for _ in range(iters):
            q = rng.randrange(2, q_hi)
            beta = rng.getrandbits(ell)
            file = allocate_registers(tape, 0, 2 * n, ell, q)
            file.shift_all(beta)
            run.steps.add(2 * n)
            zeta = None
            try:
                if all(v < file._limit for v in file.read_block(0, 2 * n)):
                    zeta = st_nonzero_mod(graph, s, t, n, q, file,
                                          steps=run.steps, meter=run.meter)
            finally:
                file.shift_all((-beta) & ((1 << ell) - 1))
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
    view = reduce_degree(graph)
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
    looped = add_virtual_self_loop(view, t)
    T, n_ids, ell, q_hi = params["T"], params["view_n"], params["ell"], params["q_hi"]
    relevant = sorted(set(view.iter_nonisolated()) | {s, t})
    if tape is None:
        tape = CatalyticTape.zeros((T + 1) * n_ids * ell)
    rng = random.Random(seed)
    iters = iteration_count(n, kappa)
    m = graph.edge_count()
    rel_regs = [i * n_ids + v for i in range(T + 1) for v in relevant]
    relevant_set = set(relevant)
    full = (1 << ell) - 1
    verdict = VERDICT_NO_PATH
    aborted = False
    touched = 0
    pause_id = 0

    with DriverRun(
        tape, meter, width=ell, vertex=n_ids, nbr_index=4, layer=T + 2, b=2,
        edge_cursor=2 * (m + n) + 2, iteration=iters + 1,
        q=q_hi, d=1 << ell, beta=1 << ell,
    ) as run:
        for iteration in range(iters):
            q = rng.randrange(2, q_hi)
            beta = rng.getrandbits(ell)
            file = allocate_registers(tape, 0, (T + 1) * n_ids, ell, q)
            shift_active = False
            state_box: list[LayeredPushState | None] = [None]

            def query(bit_index: int) -> int:
                reg = file.register_at_bit(bit_index)
                if reg is None:
                    return tape.read_bit(bit_index)
                layer, v = divmod(reg, n_ids)
                if v not in relevant_set:
                    return tape.read_bit(bit_index)
                state = state_box[0]
                if state is None:
                    current = file.read(reg)
                else:
                    current = state.original_value(layer, v)
                if shift_active:
                    current = (current - beta) & full
                off, _w = file.span_of(reg)
                return (current >> (bit_index - off)) & 1

            def fire(stage: str) -> None:
                nonlocal pause_id
                if pause_hook is not None:
                    pause_hook(PausePoint(pause_id, iteration, stage), query)
                    pause_id += 1

            def pause(state: LayeredPushState, stage: str) -> None:
                state_box[0] = state
                fire(stage)

            file.shift_indices(rel_regs, beta)
            run.steps.add(len(rel_regs))
            shift_active = True
            alpha = None
            try:
                fire("shifted")
                if all(file.read(r) < file._limit for r in rel_regs):
                    alpha = st_count_mod(
                        looped, s, t, T, q, file, relevant=relevant,
                        steps=run.steps, meter=run.meter, pause=pause,
                    )
            finally:
                # a raising hook or budget leaves the push state mid-run
                if state_box[0] is not None:
                    state_box[0].unwind()
                    state_box[0] = None
                file.shift_indices(rel_regs, (-beta) & full)
                run.steps.add(len(rel_regs))
                shift_active = False
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
    metrics = run.metrics(
        touched, verdict=verdict, aborted=aborted,
        normalizations=["degree-reduction", f"virtual-self-loop:{t}"],
    )
    return ConnectivityAnswer(verdict, metrics)
