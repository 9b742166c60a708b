"""Simulated catalytic tape, modular register files, and workspace metering.

The tape is a fixed-length bit array with arbitrary initial content. Register
files view disjoint spans of it as fixed-width registers supporting arithmetic
mod q through the decomposition value = a*q + b, where only the b part moves.
A register is *valid* for q when its value is below q*d, d being the largest
multiplier with q*d <= 2**width.
"""

from __future__ import annotations

import hashlib
from functools import reduce
from itertools import accumulate
from operator import lshift, or_, rshift
from typing import Sequence

from .errors import (
    BudgetExceededError,
    InvalidRegisterError,
    MeterError,
    SpanError,
)


def bits_for(n_states: int) -> int:
    """Bits needed for a scalar with the given number of states (min 1)."""
    return max(1, (max(int(n_states), 1) - 1).bit_length())


def ceil_log2(x: int) -> int:
    """Smallest k with 2**k >= x, for x >= 1."""
    if x < 1:
        raise ValueError("ceil_log2 requires x >= 1")
    return (x - 1).bit_length()


class CatalyticTape:
    """Fixed-length bit array; bit i lives at buf[i >> 3], LSB-first."""

    __slots__ = ("_buf", "nbits")

    def __init__(self, nbits: int, _buf: bytearray | None = None):
        if nbits < 0:
            raise ValueError("tape length must be nonnegative")
        self.nbits = nbits
        nbytes = (nbits + 7) >> 3
        if _buf is None:
            _buf = bytearray(nbytes)
        elif len(_buf) != nbytes:
            raise ValueError("buffer does not match tape length")
        self._buf = _buf

    @classmethod
    def zeros(cls, nbits: int) -> "CatalyticTape":
        return cls(nbits)

    @classmethod
    def ones(cls, nbits: int) -> "CatalyticTape":
        tape = cls(nbits)
        tape._buf = bytearray(b"\xff" * len(tape._buf))
        tape._mask_tail()
        return tape

    @classmethod
    def random(cls, nbits: int, rng) -> "CatalyticTape":
        """Uniform random fill from a `random.Random` (its `randbytes`)."""
        tape = cls(nbits)
        tape._buf = bytearray(rng.randbytes(len(tape._buf)))
        tape._mask_tail()
        return tape

    def _mask_tail(self) -> None:
        # Bits past nbits in the last byte stay zero so digests are canonical.
        extra = (len(self._buf) << 3) - self.nbits
        if extra and self._buf:
            self._buf[-1] &= 0xFF >> extra

    def _span_error(self, offset: int, width: int) -> SpanError:
        return SpanError(
            f"span [{offset}, {offset + width}) outside tape of {self.nbits} bits"
        )

    def _check_span(self, offset: int, width: int) -> None:
        if offset < 0 or width < 0 or offset + width > self.nbits:
            raise self._span_error(offset, width)

    # read_bits and write_bits repeat the _check_span test inline: they are
    # the innermost calls of every register operation
    def read_bits(self, offset: int, width: int) -> int:
        """Little-endian read of `width` bits starting at `offset`."""
        if offset < 0 or width < 0 or offset + width > self.nbits:
            raise self._span_error(offset, width)
        if width == 0:
            return 0
        first = offset >> 3
        last = (offset + width + 7) >> 3
        chunk = int.from_bytes(self._buf[first:last], "little")
        return (chunk >> (offset & 7)) & ((1 << width) - 1)

    def write_bits(self, offset: int, width: int, value: int) -> None:
        """Little-endian write of `value` into `width` bits from `offset`.

        Only the span's partial first and last bytes are merged with the
        buffer; the old span itself is never decoded. Every check comes
        before the one slice assignment, so a rejected write changes nothing.
        """
        if offset < 0 or width < 0 or offset + width > self.nbits:
            raise self._span_error(offset, width)
        if width == 0:
            return
        if value < 0 or value >> width:
            raise ValueError(f"value {value} does not fit in {width} bits")
        buf = self._buf
        first = offset >> 3
        end = offset + width
        last = (end + 7) >> 3
        shift = offset & 7
        if shift:
            # the first byte's bits below the span
            value = (value << shift) | (buf[first] & ((1 << shift) - 1))
        tail = end & 7
        if tail:
            # the last byte's bits above the span (the same byte as the
            # first when the span lies inside one)
            value |= buf[last - 1] >> tail << (end - (first << 3))
        buf[first:last] = value.to_bytes(last - first, "little")

    def read_bit(self, index: int) -> int:
        self._check_span(index, 1)
        return (self._buf[index >> 3] >> (index & 7)) & 1

    def digest(self) -> str:
        """SHA-256 over length and content; equal bits give equal digests."""
        h = hashlib.sha256()
        h.update(self.nbits.to_bytes(8, "little"))
        h.update(self._buf)
        return h.hexdigest()

    def snapshot(self) -> bytes:
        """Full copy of the bit array; `DriverRun` compares the tape with
        the one it takes on entry."""
        return bytes(self._buf)

    def restore(self, snap: bytes) -> None:
        if len(snap) != len(self._buf):
            raise ValueError("snapshot does not match tape length")
        self._buf[:] = snap


class WorkspaceMeter:
    """Tracks non-catalytic workspace bits: current usage and high-water mark."""

    def __init__(self, budget: int | None = None):
        self.bits_in_use = 0
        self.peak_bits = 0
        self.budget = budget

    def charge(self, bits: int) -> None:
        if bits < 0:
            raise ValueError("cannot charge negative bits")
        in_use = self.bits_in_use + bits
        if self.budget is not None and in_use > self.budget:
            # a rejected charge was never in use, so the caller has nothing
            # to release for it
            raise BudgetExceededError(
                f"workspace budget exceeded: {in_use} > {self.budget} bits")
        self.bits_in_use = in_use
        if in_use > self.peak_bits:
            self.peak_bits = in_use

    def release(self, bits: int) -> None:
        if bits < 0:
            raise ValueError("cannot release negative bits")
        if bits > self.bits_in_use:
            raise MeterError(
                f"releasing {bits} bits but only {self.bits_in_use} in use"
            )
        self.bits_in_use -= bits

    def charge_scalars(self, **ranges: int) -> int:
        """Charge one named scalar per kwarg at bits_for(range) bits each.

        Returns the total charged so the caller can release it in one call.
        """
        total = sum(bits_for(r) for r in ranges.values())
        self.charge(total)
        return total


# Streaming register arithmetic operates on fixed-size groups of bits; this is
# the word size for residue extraction and the modelled ALU scratch.
GROUP_BITS = 16


def alu_scratch_bits(width: int) -> int:
    """Workspace model for one in-flight register operation.

    Two group buffers, a carry, and a position index over an `width`-bit
    register; the full register value never counts as workspace.
    """
    return 2 * GROUP_BITS + 1 + bits_for(max(width, 2))


# `pack_lanes` joins its shifted lanes with `sum` on a span of up to this
# many bits and with an OR fold on a wider one. Both copy the growing total
# once per lane, but an OR's copy is the cheaper on a long total and `sum`
# has the lower fixed cost. Measured with timeit on Python 3.11, 2-CPU Xeon
# VM: the two break even between 2,300 and 2,700 bits for 12 to 200
# lanes; the OR fold takes 18% off 32 lanes of 162 bits and 50% off
# 40,000 bits, and `sum` is 3-20% faster on the spans of the walks and the
# randomized drivers (1,872 bits at most).
PACK_FOLD_BITS = 2560


class RegisterSpan:
    """Registers in one tape span, and the layout of their values in it.

    `offset` and `bits` locate the span; `indices` lists the registers in
    the caller's order, `shifts` each one's bit position in the span and
    `width` their common width or a list of each one's. Registers between
    the listed ones may lie in the span unlisted. `unpack` and `pack` (or
    its unchecked core `pack_lanes`) are the one place that turns span
    bits into register values and back.
    `packed` builds a span of per-register widths. `RegisterFile.span`
    builds and checks a file's spans (`shifts` a list of ints, which
    `pack_lanes` and `unpack` read without boxing a new int per register);
    `span_values` and `shift_indices` take them unchecked, and a span
    serves every file of the same base and width. `lanes` is None
    until the span is first shifted; then it holds the masks of the
    lane-wise add (see `RegisterFile.shift_indices`). `_fold`, fixed
    from `bits` when the span is built, says whether `pack_lanes` joins
    with an OR fold (past `PACK_FOLD_BITS` bits) or with `sum`.
    """

    __slots__ = ("indices", "offset", "bits", "shifts", "width", "lanes", "_fold")

    def __init__(self, indices: Sequence[int], offset: int, bits: int,
                 shifts: Sequence[int], width: int | list[int]):
        self.indices = indices
        self.offset = offset
        self.bits = bits
        self.shifts = shifts
        self.width = width
        self.lanes = None
        self._fold = bits > PACK_FOLD_BITS

    @classmethod
    def packed(cls, offset: int, widths: list[int]) -> "RegisterSpan":
        """Registers 0, 1, ... of the given widths, end to end from `offset`."""
        shifts = list(accumulate(widths, initial=0))
        return cls(range(len(widths)), offset, shifts.pop(), shifts, widths)

    def __len__(self) -> int:
        return len(self.indices)

    def __iter__(self):
        return iter(self.indices)

    def unpack(self, bits: int) -> list[int]:
        """The listed registers' values, taken from the span's bits."""
        w = self.width
        if type(w) is int:
            mask = (1 << w) - 1
            return [(bits >> pos) & mask for pos in self.shifts]
        return [(bits >> pos) & ((1 << x) - 1) for pos, x in zip(self.shifts, w)]

    def pack(self, values: Sequence[int]) -> int:
        """Span bits holding `values` in the listed registers, 0 elsewhere.

        Raises ValueError for a count other than the span's or a value that
        does not fit its register; then packs with `pack_lanes`.
        """
        shifts, w = self.shifts, self.width
        if len(values) != len(shifts):
            raise ValueError(f"{len(values)} values for {len(shifts)} registers")
        widths = [w] * len(shifts) if type(w) is int else w
        # v >> x is nonzero exactly when v is negative or too wide; the
        # check runs in C, and only a failing call looks for the value
        if any(map(rshift, values, widths)):
            v, x = next((v, x) for v, x in zip(values, widths) if v >> x)
            raise ValueError(f"value {v} does not fit in {x} bits")
        return self.pack_lanes(values)

    def pack_lanes(self, values: Sequence[int]) -> int:
        """`pack` without its checks, for values known to fit their lanes:
        one C-level join of shifted values, no bytecode per register. The
        lanes are disjoint, so adding them and OR-ing them agree; the span
        chose the faster join for its width when it was built."""
        lanes = map(lshift, values, self.shifts)
        if self._fold:
            return reduce(or_, lanes, 0)
        return sum(lanes)


class RegisterFile:
    """A view of tape spans as `count` registers of `width` bits, mod `modulus`.

    Registers are packed end to end from `base`, little-endian within their
    span. The multiplier d is the largest value with q*d <= 2**width; a
    register is valid when its value is below q*d.
    """

    __slots__ = (
        "tape",
        "base",
        "count",
        "width",
        "modulus",
        "multiplier",
        "_limit",
        "_mask",
    )

    def __init__(self, tape: CatalyticTape, base: int, count: int, width: int, modulus: int):
        if modulus < 2:
            raise ValueError("modulus must be at least 2")
        if width < 1:
            raise ValueError("width must be at least 1")
        if modulus > (1 << width):
            raise ValueError(
                f"modulus {modulus} too large for width {width}"
            )
        tape._check_span(base, count * width)
        self.tape = tape
        self.base = base
        self.count = count
        self.width = width
        self.modulus = modulus
        self.multiplier = (1 << width) // modulus
        self._limit = self.modulus * self.multiplier
        self._mask = (1 << width) - 1

    def _offset(self, idx: int) -> int:
        if idx < 0 or idx >= self.count:
            raise IndexError(f"register {idx} out of range [0, {self.count})")
        return self.base + idx * self.width

    def read(self, idx: int) -> int:
        return self.tape.read_bits(self._offset(idx), self.width)

    def write(self, idx: int, value: int) -> None:
        self.tape.write_bits(self._offset(idx), self.width, value)

    def is_valid(self, idx: int) -> bool:
        return self.read(idx) < self._limit

    def _require_valid(self, idx: int, value: int) -> None:
        if value >= self._limit:
            raise InvalidRegisterError(
                f"register {idx} holds {value} >= q*d = {self._limit}"
            )

    def residue(self, idx: int) -> int:
        """The b part of value = a*q + b; requires validity."""
        value = self.read(idx)
        self._require_valid(idx, value)
        return value % self.modulus

    def add_mod(self, dst: int, amount: int) -> None:
        """The b part becomes (b + amount) mod q; the a part never moves."""
        if not 0 <= amount < self.modulus:
            raise ValueError(f"amount {amount} not in [0, q)")
        value = self.read(dst)
        self._require_valid(dst, value)
        b = value % self.modulus
        self.write(dst, value - b + (b + amount) % self.modulus)

    def sub_mod(self, dst: int, amount: int) -> None:
        if not 0 <= amount < self.modulus:
            raise ValueError(f"amount {amount} not in [0, q)")
        self.add_mod(dst, (self.modulus - amount) % self.modulus)

    def add_reg(self, dst: int, src: int, sign: int = 1) -> None:
        """Edge push: dst's residue gains (sign)*src's residue; src unchanged."""
        if dst == src:
            raise ValueError("edge push requires dst != src")
        if sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        amount = self.residue(src)
        if sign == 1:
            self.add_mod(dst, amount)
        else:
            self.sub_mod(dst, amount)

    def shift_all(self, beta: int) -> bool:
        """Add beta mod 2**width to every register; inverse is 2**width - beta."""
        span = self.span(range(self.count))
        bits = self.tape.read_bits(span.offset, span.bits)
        return self.shift_indices(span, beta, bits)[0]

    def shift_indices(self, span: RegisterSpan, beta: int,
                      bits: int) -> tuple[bool, int]:
        """Add beta mod 2**width to the span's listed registers.

        `bits` are the span's current tape bits. Returns whether the listed
        registers are all valid now, and the span's new tape bits.

        The span is shifted lane-wise, one register per w-bit lane, with one
        tape write and no read. With H the top bit of every lane, L the
        other bits, and B holding beta in each listed lane (0 elsewhere),
        the new span is ((x & L) + (B & L)) ^ ((x ^ B) & H): no carry
        crosses a lane and unlisted lanes come back unchanged. Validity is
        the same add of 2**width - q*d: a lane carries out of its top bit
        exactly when it holds q*d or more.
        """
        if not 0 <= beta < (1 << self.width):
            raise ValueError("shift must be in [0, 2**width)")
        if not span.shifts:
            return True, 0
        if span.lanes is None:
            ones = span.pack([1] * len(span))
            # a 1 at the top of every lane of the span, listed or not
            high = ((1 << span.bits) - 1) // self._mask << (self.width - 1)
            span.lanes = (ones, high, ((1 << span.bits) - 1) ^ high)
        ones, high, low = span.lanes
        b = beta * ones
        new = ((bits & low) + (b & low)) ^ ((bits ^ b) & high)
        self.tape.write_bits(span.offset, span.bits, new)
        c = ((1 << self.width) - self._limit) * ones
        s = ((new & low) + (c & low)) ^ ((new ^ c) & high)
        return not ((new & c) | ((new | c) & ~s)) & high, new

    def span(self, indices: Sequence[int]) -> RegisterSpan:
        """The listed registers as a `RegisterSpan`, checked once here.

        Raises IndexError for an index outside [0, count) and ValueError for
        a repeated one.
        """
        indices = tuple(indices)
        if not indices:
            return RegisterSpan((), self.base, 0, [], self.width)
        lo, hi = min(indices), max(indices)
        if lo < 0 or hi >= self.count:
            bad = lo if lo < 0 else hi
            raise IndexError(f"register {bad} out of range [0, {self.count})")
        if len(set(indices)) != len(indices):
            raise ValueError("span indices must be distinct")
        w = self.width
        return RegisterSpan(
            indices, self.base + lo * w, (hi - lo + 1) * w,
            [(i - lo) * w for i in indices], w,
        )

    def span_values(self, span: RegisterSpan, blob: int) -> list[int]:
        """The listed registers' values, taken from the span's bits `blob`.

        Raises InvalidRegisterError for the first listed register at or
        above q*d; only a failing call searches for it, so a valid span
        costs one `max`.
        """
        values = span.unpack(blob)
        if values and max(values) >= self._limit:
            for idx, value in zip(span.indices, values):
                self._require_valid(idx, value)
        return values

    def read_block(self, start: int, count: int) -> list[int]:
        """Values of registers start..start+count-1 via one tape read."""
        span = self.span(range(start, start + count))
        return span.unpack(self.tape.read_bits(span.offset, span.bits))

    def write_block(self, start: int, values: Sequence[int]) -> None:
        """Registers start.. set to `values` via one tape write; the
        indices and values are all checked before it."""
        span = self.span(range(start, start + len(values)))
        self.tape.write_bits(span.offset, span.bits, span.pack(values))

    def residues_block(self, start: int, count: int) -> list[int]:
        """Residues of a contiguous block; validates every register in it."""
        q = self.modulus
        span = self.span(range(start, start + count))
        values = self.span_values(span, self.tape.read_bits(span.offset, span.bits))
        return [v % q for v in values]

    def stream_residue(self, idx: int) -> int:
        """The register's value mod q, in one tape read.

        The logspace read streams the register GROUP_BITS at a time, most
        significant first, into an accumulator in [q); extraction's meter
        charge models that, so the simulation reads the register whole.
        """
        return self.read(idx) % self.modulus

    def read_group(self, idx: int, group: int) -> int:
        """The `group`-th GROUP_BITS-wide slice of a register, LSB first."""
        gw = min(GROUP_BITS, self.width - group * GROUP_BITS)
        if group < 0 or gw <= 0:
            raise IndexError(f"group {group} outside register width {self.width}")
        return self.tape.read_bits(self._offset(idx) + group * GROUP_BITS, gw)


def allocate_registers(
    tape: CatalyticTape, base: int, count: int, width: int, modulus: int
) -> RegisterFile:
    """Allocate a register view; never modifies tape bits."""
    return RegisterFile(tape, base, count, width, modulus)


def make_tape(nbits: int, profile: str = "random", seed: int = 0) -> CatalyticTape:
    """Build an initial tape: 'zeros', 'ones', or seeded uniform 'random'."""
    if profile == "zeros":
        return CatalyticTape.zeros(nbits)
    if profile == "ones":
        return CatalyticTape.ones(nbits)
    if profile == "random":
        import random

        return CatalyticTape.random(nbits, random.Random(seed))
    raise ValueError(f"unknown tape profile {profile!r}")
