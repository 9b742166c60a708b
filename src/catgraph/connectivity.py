"""Edge-push register programs and the three s->t connectivity drivers.

One banked program does the work: one register per vertex in each of k
banks, each phase pushing one bank's residues along the edges into the
next bank, undone by the reverse sequence. It has two constructors:

* a layered program, k = T+1 layers over V, whose push/reverse sequences
  leave the register difference between the b=1 and b=0 runs equal to the
  number of length-T s->v paths mod q (and which supports answering "what
  was this register's original value" at any pause point);
* a parity program, k = 2 banks over V that alternate per phase, with a
  dummy self-edge at every vertex, which computes (mod q) a value that is
  nonzero over the integers exactly when an s->t path of length <= T exists.

The drivers wrap these with modulus/shift selection: deterministic (q = 2**l
large enough for exactness), randomized (small random modulus plus a random
shift, may abort), and the locally revertible variant on the degree-reduced
graph. The two randomized drivers share one round loop.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

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


class PausePoint(NamedTuple):
    """Identifier handed to the revertibility hook at each safe point."""

    pause_id: int
    iteration: int
    stage: str


# ---------------------------------------------------------------------------
# The banked push program
# ---------------------------------------------------------------------------


def _power_of_two_mask(q: int) -> int | None:
    """q - 1 if q is a power of two (then x & (q - 1) == x % q), else None."""
    return q - 1 if q & (q - 1) == 0 else None


class _PushProgram:
    """Add b at register s, push T phases over k banks; undo by the reverse.

    Phase i pushes bank `banks[i % k]` into bank `banks[(i + 1) % k]`: the
    register at position j of the next bank gains the sum of the residues
    of the bank's registers at the positions `_sources[j]` (none for a
    register with no in-neighbor). Every bank has the same layout. With
    k = 2 this is the parity program, with k = T + 1 the layered one.
    Register `r * stride + v` belongs to vertex v in bank r. The program
    sorts the registers with sources, once, into three lists by source
    count: one source, two, and three or more; a phase runs one loop per
    list. Which list a register is in follows from the graph.

    The program's reversible state is three counts, each updated only after
    its tape write succeeds: `pushed` phases (always phases 0..pushed-1),
    the start increment `b_applied`, and `shifted`, the banks carrying the
    shift `beta` (always a prefix of `banks`). So `unwind` and `unshift` can
    undo a run cut short anywhere. `pause(stage)`, when given, is called
    after every step of `run_push` and `run_reverse`.

    Banks are held write-through: the first step that needs a bank's span
    bits reads them once, and they are held until the program goes; every
    change (a shift or unshift, a phase, the start increment or decrement)
    goes to the tape first and to the held bits once that write returns. A
    tape write happens whole or not at all, so whatever raises leaves every
    held bank equal to the tape. A bank's residues are built from its held
    bits, validated by `RegisterFile.span_values`, when a step first needs
    them; a shift or unshift of the bank, or `use_modulus`, drops them.
    Every write is one bank's whole span or register s, which is in bank
    0, so the program changes its bank registers and no others.

    A subclass builds its spans once, from the file it is given;
    `use_modulus` gives the program a file of another modulus over the same
    registers, so a randomized driver builds one program per call and sets
    each round's modulus.
    """

    def __init__(self, s: int, T: int, file: RegisterFile,
                 steps: StepCounter | None, banks: Sequence[RegisterSpan],
                 sources: Sequence[Sequence[int]], stride: int,
                 pause: Callable[[str], None] | None = None):
        self.s = s
        self.T = T
        self.file = file
        self._mask = _power_of_two_mask(file.modulus)
        self.steps = steps or StepCounter()
        self.pause = pause
        self.banks = banks
        self._sources = sources
        self.stride = stride
        self.pushes_per_phase = sum(len(l) for l in sources)
        bank = banks[0]
        # the registers with sources by source count, each a position in a
        # bank and its sources: one (j, u), two (j, u, w), three or more
        # (j, srcs); a register without sources is in none
        self._one = [(j, *srcs) for j, srcs in enumerate(sources) if len(srcs) == 1]
        self._two = [(j, *srcs) for j, srcs in enumerate(sources) if len(srcs) == 2]
        self._many = [(j, srcs) for j, srcs in enumerate(sources) if len(srcs) > 2]
        if s not in bank.indices:
            raise ValueError(f"start vertex {s} has no register in bank 0")
        # s's position in bank 0 and its bit position in bank 0's span
        self._s_at = bank.indices.index(s)
        self._s_pos = bank.shifts[self._s_at]
        self.bank_registers = sum(len(b) for b in banks)
        self._bits = [None] * len(banks)
        self._res = [None] * len(banks)
        self._high = [None] * len(banks)
        self.pushed = 0
        self.b_applied = 0
        self.shifted = 0
        self.beta = 0
        self._stage_names = {}

    def _span_bits(self, r: int) -> int:
        """Bank r's span bits, read from the tape the first time only."""
        bits = self._bits[r]
        if bits is None:
            bank = self.banks[r]
            bits = self._bits[r] = self.file.tape.read_bits(bank.offset, bank.bits)
        return bits

    def _hold(self, r: int) -> tuple[list[int], int]:
        """Bank r's residues and span bits; `span_values` validates the
        residues when they are built, and the high part is built with them
        (held residues imply held bits and a held high part)."""
        res, bits = self._res[r], self._bits[r]
        if res is None:
            bits = self._span_bits(r)
            q = self.file.modulus
            bank = self.banks[r]
            res = self._res[r] = [
                v % q for v in self.file.span_values(bank, bits)]
            self._high[r] = bits - bank.pack_lanes(res)
        return res, bits

    @property
    def catalytic_bits(self) -> int:
        """The bank registers' bits, the only register bits a step writes."""
        return self.bank_registers * self.file.width

    def use_modulus(self, q: int) -> None:
        """Run with modulus q from now on, over the same registers; the
        phases reduce with `& (q - 1)` if q is a power of two."""
        f = self.file
        self.file = allocate_registers(f.tape, f.base, f.count, f.width, q)
        self._mask = _power_of_two_mask(q)
        self._res = [None] * len(self.banks)
        self._high = [None] * len(self.banks)

    def layer_push(self, i: int, reverse: bool = False) -> None:
        """Apply phase i, or with `reverse` subtract the same sums again.

        The next bank's new residues are computed on small integers alone:
        each register with sources becomes (old residue +- the sum of its
        sources' residues) mod q. A straight-line loop runs over the
        registers with one source and one over those with two; the
        registers with three or more sum theirs in an inner loop. The
        bank's new bits are its held high part plus one `pack_lanes` of the
        new residues (value = a*q + b and only b moves), written whole: a
        register without sources is written back as it was. A residue is
        reduced with `& (q - 1)` when q is a power of two (every
        `connect_det` phase) and with `% q` otherwise: the same value, but
        the mask is linear in the residue's bits where `%` divides.
        """
        k = len(self.banks)
        r = (i + 1) % k
        held = self._res
        res = held[i % k]
        if res is None:
            res = self._hold(i % k)[0]
        residues = held[r]
        if residues is None:
            residues = self._hold(r)[0]
        residues = residues.copy()
        # one loop per source count, direction and reduction: no sign
        # multiply, negated copy or inner loop over one or two sources per
        # phase, and no call per register to choose `& m` or `% q`
        m = self._mask
        if m is not None:
            if reverse:
                for j, u in self._one:
                    residues[j] = (residues[j] - res[u]) & m
                for j, u, w in self._two:
                    residues[j] = (residues[j] - res[u] - res[w]) & m
                for j, srcs in self._many:
                    total = residues[j]
                    for u in srcs:
                        total -= res[u]
                    residues[j] = total & m
            else:
                for j, u in self._one:
                    residues[j] = (residues[j] + res[u]) & m
                for j, u, w in self._two:
                    residues[j] = (residues[j] + res[u] + res[w]) & m
                for j, srcs in self._many:
                    total = residues[j]
                    for u in srcs:
                        total += res[u]
                    residues[j] = total & m
        else:
            q = self.file.modulus
            if reverse:
                for j, u in self._one:
                    residues[j] = (residues[j] - res[u]) % q
                for j, u, w in self._two:
                    residues[j] = (residues[j] - res[u] - res[w]) % q
                for j, srcs in self._many:
                    total = residues[j]
                    for u in srcs:
                        total -= res[u]
                    residues[j] = total % q
            else:
                for j, u in self._one:
                    residues[j] = (residues[j] + res[u]) % q
                for j, u, w in self._two:
                    residues[j] = (residues[j] + res[u] + res[w]) % q
                for j, srcs in self._many:
                    total = residues[j]
                    for u in srcs:
                        total += res[u]
                    residues[j] = total % q
        bank = self.banks[r]
        bits = self._high[r] + bank.pack_lanes(residues)
        self.file.tape.write_bits(bank.offset, bank.bits, bits)
        held[r], self._bits[r] = residues, bits
        self.steps.n += self.pushes_per_phase

    def _add_start(self, amount: int) -> None:
        """Add amount mod q to s's residue, writing s alone (0 writes nothing).

        s's value comes from bank 0's held bits, valid for q: `_hold`
        validates every bank-0 register before it holds their residues, and
        every program write keeps a register valid.
        """
        file, pos = self.file, self._s_pos
        q = file.modulus
        amount %= q
        if amount:
            residues, bits = self._hold(0)
            value = (bits >> pos) & file._mask
            change = (value + amount) % q - value % q
            file.write(self.s, value + change)
            residues[self._s_at] += change
            self._bits[0] = bits + (change << pos)

    def forward_phase(self) -> None:
        self.layer_push(self.pushed)
        self.pushed += 1

    def reverse_phase(self) -> None:
        self.layer_push(self.pushed - 1, reverse=True)
        self.pushed -= 1

    def answer_index(self, t: int) -> int:
        # the step-T values live in the bank last pushed to
        return (self.T % len(self.banks)) * self.stride + t

    def _stages(self, b: int) -> tuple[str, list[str], list[str], str]:
        """The pause stage names of a b run, built once per program: the
        start increment, each layer's push and reverse, the decrement."""
        stages = self._stage_names.get(b)
        if stages is None:
            layers = range(self.T)
            stages = self._stage_names[b] = (
                f"start-increment:b={b}",
                [f"push:b={b}:layer={i}" for i in layers],
                [f"reverse:b={b}:layer={i}" for i in layers],
                f"start-decrement:b={b}",
            )
        return stages

    def run_push(self, b: int) -> None:
        assert self.pushed == 0
        pause = self.pause
        self._add_start(b)
        self.b_applied = b
        self.steps.n += 1
        if pause is not None:
            increment, pushes = self._stages(b)[:2]
            pause(increment)
        for i in range(self.T):
            self.forward_phase()
            if pause is not None:
                pause(pushes[i])

    def run_reverse(self, b: int) -> None:
        pause = self.pause
        if pause is not None:
            _, _, reverses, decrement = self._stages(b)
        for _ in range(self.T):
            self.reverse_phase()
            if pause is not None:
                pause(reverses[self.pushed])
        self._add_start(-b)
        self.b_applied = 0
        self.steps.n += 1
        if pause is not None:
            pause(decrement)

    def unwind(self) -> None:
        """Undo the pushed phases and the start increment, without pausing."""
        while self.pushed:
            self.reverse_phase()
        self._add_start(-self.b_applied)
        self.b_applied = 0

    def shift(self, beta: int) -> bool:
        """Add beta mod 2**width to every bank's registers, bank by bank.

        Returns whether every bank register is valid for q afterwards.
        """
        assert self.shifted == 0
        self.beta = beta
        valid = True
        for r in range(len(self.banks)):
            valid = self._shift_bank(r, beta) and valid
            self.shifted += 1
        return valid

    def unshift(self) -> None:
        """Remove the shift from the banks that carry it, last bank first."""
        inverse = (-self.beta) & self.file._mask
        while self.shifted:
            self._shift_bank(self.shifted - 1, inverse)
            self.shifted -= 1

    def _shift_bank(self, r: int, beta: int) -> bool:
        """Shift bank r from its held bits and hold the result; are its
        registers valid now? Its residues and high part no longer hold."""
        valid, self._bits[r] = self.file.shift_indices(
            self.banks[r], beta, self._span_bits(r))
        self._res[r] = self._high[r] = None
        return valid


class ParityProgram(_PushProgram):
    """Two banks R[bank*n + v]; phase i pushes bank i % 2 into the other.

    A phase accumulates, into the other bank, each vertex's own residue (the
    dummy self-edge) plus the residues of its in-neighbors.
    """

    def __init__(self, graph: GraphOracle, s: int, T: int, file: RegisterFile,
                 steps: StepCounter | None = None):
        n = graph.n
        if file.count != 2 * n:
            raise ValueError("parity program needs exactly 2n registers")
        banks = (file.span(range(n)), file.span(range(n, 2 * n)))
        sources = [[v, *graph.in_neighbors(v)] for v in range(n)]
        super().__init__(s, T, file, steps, banks, sources, n)


class LayeredPushState(_PushProgram):
    """T+1 banks R[i*n + v], one per layer; phase i pushes layer i into i+1.

    Only the relevant vertices' registers are banks, and s must be
    relevant. The program's reversible state is exactly what answers
    original-value queries at every pause point.
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
        ids = range(n) if relevant is None else sorted(relevant)
        # each relevant vertex's position in a bank
        self._pos = pos = {v: k for k, v in enumerate(ids)}
        self.in_lists = {v: graph.in_neighbors(v) for v in ids}
        if any(u not in pos for l in self.in_lists.values() for u in l):
            raise ValueError("every in-neighbor of a relevant vertex must be relevant")
        # per layer, the span of the relevant registers (the bank); sources
        # are positions in the bank
        super().__init__(
            s, T, file, steps,
            [file.span([i * n + v for v in ids]) for i in range(T + 1)],
            [[pos[u] for u in self.in_lists[v]] for v in ids],
            n, pause,
        )

    def original_value(self, i: int, v: int) -> int:
        """Initial value of register (i, v) at the current pause point.

        A relevant register's value comes from bank i's held bits. If layer
        i is currently pushed, it equals its initial value plus the
        (unchanged) held layer-(i-1) residues of v's in-neighbors; layer 0
        carries only the start increment; a shifted layer carries beta on
        top. A register in no bank is read from the tape: no step writes
        one. Nothing is written. A register outside the T + 1 layers of
        `stride` vertices raises IndexError.
        """
        if not (0 <= i <= self.T and 0 <= v < self.stride):
            raise IndexError(f"register {(i, v)} outside {self.T + 1} layers "
                             f"of {self.stride}")
        file = self.file
        at = self._pos.get(v)
        if at is None:
            return file.read(i * self.stride + v)
        bits = self._bits[i]
        if bits is None:
            bits = self._span_bits(i)
        value = (bits >> self.banks[i].shifts[at]) & file._mask
        q = file.modulus
        delta = 0
        if i == 0:
            if v == self.s:
                delta = self.b_applied
        elif i <= self.pushed and self._sources[at]:
            res = self._res[i - 1]
            if res is None:
                res = self._hold(i - 1)[0]
            for u in self._sources[at]:
                delta += res[u]
        b = value % q
        value = value - b + (b - delta) % q
        if i < self.shifted:
            value = (value - self.beta) & file._mask
        return value


def revert_query(state: LayeredPushState, reg: tuple[int, int]) -> int:
    """Original value of register reg=(layer, vertex), shift removed too.

    See `LayeredPushState.original_value`.
    """
    return state.original_value(*reg)


# ---------------------------------------------------------------------------
# Residue extraction
# ---------------------------------------------------------------------------


def st_nonzero_mod(
    prog: _PushProgram, t: int, *, meter: WorkspaceMeter | None = None
) -> int:
    """Register t of the answer bank after the b=1 run minus after the b=0
    run, mod q, the program's modulus; the tape comes back.

    A parity program's residue is the path witness: nonzero proves an s->t
    path of length <= T, and zero proves none when q exceeds the (n+1)^T
    value bound, otherwise with good probability over a random q. A
    layered program's residue is the number of length-T s->t paths.
    Requires the bank registers valid for q.

    Pass g runs push, read, reverse for b=0 and then for b=1 and adds
    (read1 - read0) << GROUP_BITS*g to one difference, reduced mod q once.
    A wide power-of-two q takes a pass per GROUP_BITS-bit group of the
    register, and the meter charges a grouped difference with a borrow
    (group0, group1, borrow, b, group_index); any other q takes one pass
    reading the residue, charged as a read streamed GROUP_BITS at a time
    (acc0, acc1, group, b, position). The simulation sums the group
    differences, with no borrow, as the streaming read reads whole values.

    Any exception unwinds the program before it propagates; a rejected
    meter charge comes first and leaves nothing to undo.
    """
    file = prog.file
    idx = prog.answer_index(t)
    q, width = file.modulus, file.width
    kq = q.bit_length() - 1
    grouped = q & (q - 1) == 0 and kq > GROUP_BITS
    if grouped:
        passes = (kq + GROUP_BITS - 1) // GROUP_BITS
        scalars = dict(group0=1 << GROUP_BITS, group1=1 << GROUP_BITS,
                       borrow=2, b=2, group_index=passes + 1)
    else:
        passes = 1
        scalars = dict(acc0=q, acc1=q, group=1 << min(GROUP_BITS, width), b=2,
                       position=width + 1)
    charged = 0 if meter is None else meter.charge_scalars(**scalars)
    try:
        diff = 0
        for g in range(passes):
            for b in (0, 1):
                prog.run_push(b)
                read = (file.read_group(idx, g) if grouped
                        else file.stream_residue(idx))
                prog.run_reverse(b)
                diff += (read if b else -read) << GROUP_BITS * g
        # on a register wider than kq bits the last group also holds bits
        # at and above kq: shifted into place they are multiples of q,
        # which the `% q` removes
        return diff % q
    except BaseException:
        prog.unwind()
        raise
    finally:
        if meter is not None:
            meter.release(charged)


# the layered program's answer (the length-T path count) under its own name
st_count_mod = st_nonzero_mod


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
        prog = ParityProgram(graph, s, n, file, run.steps)
        zeta = st_nonzero_mod(prog, t, meter=run.meter)
    verdict = VERDICT_PATH if zeta != 0 else VERDICT_NO_PATH
    metrics = run.metrics(prog.catalytic_bits, verdict=verdict,
                          normalizations=["dummy-self-edges"])
    return ConnectivityAnswer(verdict, metrics)


def _random_rounds(prog: _PushProgram, run: DriverRun, rng: random.Random,
                   iters: int, q_hi: int, t: int) -> str:
    """Up to `iters` rounds of a random modulus and shift; returns the verdict.

    A round draws q in [2, q_hi) and a shift beta, sets the program's
    modulus to q, shifts every bank, and reads the answer with
    `st_nonzero_mod` if the shift left every bank register valid (the
    shift reports it from the values it wrote; the model still charges the
    scan). The shift is removed on every exit path: the normal-path
    `unshift` sits inside the `try`, so an exception raised by it, too, is
    followed by an unshift from the banks still shifted. An invalid
    register aborts, a nonzero answer is a path, and all-zero rounds say
    no path. `prog.pause`, when set, also hears "shifted" and "unshifted"
    (or "abort-unshifted").
    """
    ell = prog.file.width
    # scanning, then unshifting, every bank register is one step each
    regs = prog.bank_registers
    for _ in range(iters):
        q = rng.randrange(2, q_hi)
        beta = rng.getrandbits(ell)
        prog.use_modulus(q)
        try:
            valid = prog.shift(beta)
            run.steps.add(regs)
            if prog.pause is not None:
                prog.pause("shifted")
            value = st_nonzero_mod(prog, t, meter=run.meter) if valid else None
            prog.unshift()
        except BaseException:
            prog.unshift()
            raise
        run.steps.add(regs)
        if value is None:
            if prog.pause is not None:
                prog.pause("abort-unshifted")
            return VERDICT_ABORT
        if prog.pause is not None:
            prog.pause("unshifted")
        if value != 0:
            return VERDICT_PATH
    return VERDICT_NO_PATH


def _random_sizing(P: int) -> tuple[int, int]:
    """(modulus ceiling P**2, register width) for an answer of P bits."""
    return P * P, 5 * ceil_log2(max(P, 2))


def rand_parameters(n: int) -> tuple[int, int]:
    """(modulus ceiling P**2, register width) for the randomized driver."""
    return _random_sizing(ceil_log2(nonzero_value_bound(n)))


def connect_rand_tape_bits(n: int) -> int:
    return 2 * n * rand_parameters(n)[1]


def iteration_count(n: int, kappa: float) -> int:
    """Rounds of a randomized driver: ceil(kappa * log2 n), at least one."""
    if not 0 < kappa < math.inf:
        raise ValueError(f"kappa must be a finite positive number, got {kappa}")
    rounds = kappa * math.log2(max(n, 2))
    if rounds == math.inf:
        raise ValueError(f"kappa {kappa} gives more rounds than a float holds")
    return max(1, math.ceil(rounds))


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
    iters = iteration_count(graph.n, kappa)
    if s == t:
        return _trivial_answer(VERDICT_PATH)
    n = graph.n
    q_hi, ell = rand_parameters(n)
    if tape is None:
        tape = CatalyticTape.zeros(connect_rand_tape_bits(n))
    m = graph.edge_count()
    with DriverRun(
        tape, meter, width=ell, vertex=n, nbr_index=n + 2, layer=n + 2,
        sigma=2, b=2, edge_cursor=m + n + 2, iteration=iters + 1,
        q=q_hi, d=1 << ell, beta=1 << ell,
    ) as run:
        prog = ParityProgram(graph, s, n, RegisterFile(tape, 0, 2 * n, ell, 2),
                             run.steps)
        verdict = _random_rounds(prog, run, random.Random(seed), iters, q_hi, t)
    metrics = run.metrics(prog.catalytic_bits, verdict=verdict,
                          aborted=verdict == VERDICT_ABORT,
                          normalizations=["dummy-self-edges"])
    return ConnectivityAnswer(verdict, metrics)


def revertible_parameters(graph: GraphOracle) -> dict:
    """Sizing for the locally revertible driver on the degree-reduced view:
    T + 1 layers of `view_n` registers of `ell` bits, `bits` in all."""
    view = DegreeReducedView(graph)
    T = view.diameter_bound()
    p = ceil_log2(max(view.n, 2) ** T)
    q_hi, ell = _random_sizing(p)
    registers = (T + 1) * view.n
    return {
        "view": view, "view_n": view.n, "T": T, "p": p, "ell": ell,
        "q_hi": q_hi, "registers": registers, "bits": registers * ell,
    }


def connect_revertible_tape_bits(graph: GraphOracle) -> int:
    if graph.n < 2:
        return 0  # the only query is s = t, which allocates no register
    return revertible_parameters(graph)["bits"]


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
    iters = iteration_count(graph.n, kappa)
    if s == t:
        return _trivial_answer(VERDICT_PATH)
    n = graph.n
    params = revertible_parameters(graph)
    view = params["view"]
    looped = SelfLoopView(view, t)
    T, n_ids, ell, q_hi = params["T"], params["view_n"], params["ell"], params["q_hi"]
    relevant = sorted(set(view.iter_nonisolated()) | {s, t})
    # the registers start at tape bit 0; bits past them are never changed
    register_bits = params["bits"]
    if tape is None:
        tape = CatalyticTape.zeros(register_bits)
    m = graph.edge_count()
    pause_id = 0
    iteration = 0
    cache = None  # original register values, only while a hook call runs

    def query(bit_index: int) -> int:
        if not 0 <= bit_index < register_bits:
            return tape.read_bit(bit_index)  # checks the index against the tape
        reg, bit = divmod(bit_index, ell)
        layer, v = divmod(reg, n_ids)
        if v not in state._pos:  # no bank holds the register
            return (tape._buf[bit_index >> 3] >> (bit_index & 7)) & 1
        current = None if cache is None else cache.get(reg)
        if current is None:
            current = state.original_value(layer, v)
            if cache is not None:
                cache[reg] = current
        return (current >> bit) & 1

    def fire(stage: str) -> None:
        nonlocal pause_id, iteration, cache
        cache = {}
        try:
            # tuple.__new__ builds the same PausePoint without the
            # NamedTuple's Python-level __new__
            pause_hook(tuple.__new__(PausePoint, (pause_id, iteration, stage)),
                       query)
        finally:
            cache = None
        pause_id += 1
        if stage == "unshifted":  # the last pause point of a full round
            iteration += 1

    with DriverRun(
        tape, meter, width=ell, vertex=n_ids, nbr_index=4, layer=T + 2, b=2,
        edge_cursor=2 * (m + n) + 2, iteration=iters + 1,
        q=q_hi, d=1 << ell, beta=1 << ell,
    ) as run:
        state = LayeredPushState(
            looped, s, T, RegisterFile(tape, 0, params["registers"], ell, 2),
            relevant=relevant, steps=run.steps,
            pause=None if pause_hook is None else fire)
        try:
            verdict = _random_rounds(state, run, random.Random(seed), iters,
                                     q_hi, t)
        finally:
            # the hook reaches the state again through `query`; dropping
            # it lets the state go without waiting for the cycle collector
            state.pause = None
    metrics = run.metrics(
        state.catalytic_bits, verdict=verdict, aborted=verdict == VERDICT_ABORT,
        normalizations=["degree-reduction", f"virtual-self-loop:{t}"],
    )
    return ConnectivityAnswer(verdict, metrics)
