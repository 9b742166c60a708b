"""Simulated catalytic tape, modular register files, and workspace metering.

The tape is a fixed-length bit array with arbitrary initial content. Register
files view disjoint spans of it as fixed-width registers supporting arithmetic
mod q through the decomposition value = a*q + b, where only the b part moves.
A register is *valid* for q when its value is below q*d, d being the largest
multiplier with q*d <= 2**width.
"""

from __future__ import annotations

import hashlib
from array import array
import warnings
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
        if offset < 0 or width < 0 or offset + width > self.nbits:
            raise self._span_error(offset, width)
        if width == 0:
            return
        if value < 0 or value >> width:
            raise ValueError(f"value {value} does not fit in {width} bits")
        first = offset >> 3
        last = (offset + width + 7) >> 3
        shift = offset & 7
        mask = ((1 << width) - 1) << shift
        chunk = int.from_bytes(self._buf[first:last], "little")
        chunk = (chunk & ~mask) | (value << shift)
        self._buf[first:last] = chunk.to_bytes(last - first, "little")

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
        """Full copy of the bit array, for debugging-grade comparisons."""
        return bytes(self._buf)

    def restore(self, snap: bytes) -> None:
        if len(snap) != len(self._buf):
            raise ValueError("snapshot does not match tape length")
        self._buf[:] = snap


class WorkspaceMeter:
    """Tracks non-catalytic workspace bits: current usage and high-water mark."""

    def __init__(self, budget: int | None = None, on_violation: str = "raise"):
        if on_violation not in ("raise", "warn"):
            raise ValueError("on_violation must be 'raise' or 'warn'")
        self.bits_in_use = 0
        self.peak_bits = 0
        self.budget = budget
        self.on_violation = on_violation
        self.violations = 0

    def charge(self, bits: int) -> None:
        if bits < 0:
            raise ValueError("cannot charge negative bits")
        in_use = self.bits_in_use + bits
        if self.budget is not None and in_use > self.budget:
            self.violations += 1
            msg = f"workspace budget exceeded: {in_use} > {self.budget} bits"
            if self.on_violation == "raise":
                # a rejected charge was never in use, so the caller has
                # nothing to release for it
                raise BudgetExceededError(msg)
            warnings.warn(msg)
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


class RegisterSpan:
    """Register indices of one file, checked once, with their tape layout.

    Built by `RegisterFile.span`: `indices` in the caller's order, all in
    range and distinct; `offset` and `bits` locate the tape span from the
    lowest to the highest of them; `shifts` holds each register's bit
    position inside that span (an array, so a program's many spans cost no
    int object per register); `full` says whether they fill it. A span
    depends only on the file's base and width, so it serves every file of
    the same geometry (files that differ only in their modulus), and
    `gather`, `scatter`, `read_span`, `write_span` and `shift_indices` take
    it without checking again.
    `lanes` is None until the span is first shifted; then it holds the
    masks of the lane-wise add (see `RegisterFile.shift_indices`).
    """

    __slots__ = ("indices", "offset", "bits", "shifts", "full", "lanes")

    def __init__(self, indices: tuple[int, ...], offset: int, bits: int,
                 shifts: array, full: bool):
        self.indices = indices
        self.offset = offset
        self.bits = bits
        self.shifts = shifts
        self.full = full
        self.lanes = None

    def __len__(self) -> int:
        return len(self.indices)

    def __iter__(self):
        return iter(self.indices)


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
        "_dirty",
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
        self._dirty = set()

    def _offset(self, idx: int) -> int:
        if idx < 0 or idx >= self.count:
            raise IndexError(f"register {idx} out of range [0, {self.count})")
        return self.base + idx * self.width

    def read(self, idx: int) -> int:
        return self.tape.read_bits(self._offset(idx), self.width)

    def write(self, idx: int, value: int) -> None:
        self.tape.write_bits(self._offset(idx), self.width, value)
        self._dirty.add(idx)

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
        return self.shift_indices(range(self.count), beta)

    def shift_indices(self, indices: Sequence[int] | RegisterSpan, beta: int) -> bool:
        """Add beta mod 2**width to the listed registers; are they all valid now?

        The span is shifted lane-wise, one register per w-bit lane, with one
        tape read and one write. With H the top bit of every lane, L the
        other bits, and B holding beta in each listed lane (0 elsewhere),
        the new span is ((x & L) + (B & L)) ^ ((x ^ B) & H): no carry
        crosses a lane and unlisted lanes come back unchanged. Validity
        is the same add of 2**width - q*d: a lane carries out of its top
        bit exactly when it holds q*d or more.
        """
        if not 0 <= beta < (1 << self.width):
            raise ValueError("shift must be in [0, 2**width)")
        span = indices if isinstance(indices, RegisterSpan) else self.span(indices)
        if not span.shifts:
            return True
        if span.lanes is None:
            w = self.width
            ones = 0
            for pos in span.shifts:
                ones |= 1 << pos
            # a 1 at the top of every lane of the span, listed or not
            high = ((1 << span.bits) - 1) // self._mask << (w - 1)
            span.lanes = (ones, high, ((1 << span.bits) - 1) ^ high)
        ones, high, low = span.lanes
        old = self.tape.read_bits(span.offset, span.bits)
        b = beta * ones
        new = ((old & low) + (b & low)) ^ ((old ^ b) & high)
        self.write_span(span, new)
        c = ((1 << self.width) - self._limit) * ones
        s = ((new & low) + (c & low)) ^ ((new ^ c) & high)
        return not ((new & c) | ((new | c) & ~s)) & high

    def span(self, indices: Sequence[int]) -> RegisterSpan:
        """The listed registers as a `RegisterSpan`, checked once here.

        Raises IndexError for an index outside [0, count) and ValueError for
        a repeated one.
        """
        indices = tuple(indices)
        if not indices:
            return RegisterSpan((), self.base, 0, array("q"), True)
        lo, hi = min(indices), max(indices)
        if lo < 0 or hi >= self.count:
            bad = lo if lo < 0 else hi
            raise IndexError(f"register {bad} out of range [0, {self.count})")
        if len(set(indices)) != len(indices):
            raise ValueError("span indices must be distinct")
        w = self.width
        return RegisterSpan(
            indices, self.base + lo * w, (hi - lo + 1) * w,
            array("q", [(i - lo) * w for i in indices]), hi - lo + 1 == len(indices),
        )

    def gather(self, indices: Sequence[int] | RegisterSpan) -> list[int]:
        """Values of the listed registers via one tape read over their span.

        The span runs from the lowest to the highest index, so callers keep
        the indices close together (one layer of a layered file).
        """
        span = indices if isinstance(indices, RegisterSpan) else self.span(indices)
        if not span.shifts:
            return []
        blob = self.tape.read_bits(span.offset, span.bits)
        mask = self._mask
        return [(blob >> pos) & mask for pos in span.shifts]

    def scatter(self, indices: Sequence[int] | RegisterSpan,
                values: Sequence[int]) -> None:
        """Write the listed registers via one read and one write of their span.

        Only the listed registers change (the span is patched with an XOR
        delta; when they fill it, it is written without the read) and only
        they become dirty. Indices and values are all checked before the
        write, so a rejected call leaves the tape unchanged.
        """
        span = indices if isinstance(indices, RegisterSpan) else self.span(indices)
        if len(values) != len(span.shifts):
            raise ValueError(f"{len(values)} values for {len(span.shifts)} registers")
        if not values:
            return
        mask = self._mask
        if min(values) < 0 or max(values) > mask:
            bad = next(v for v in values if v < 0 or v > mask)
            raise ValueError(f"value {bad} does not fit in {self.width} bits")
        if span.full:
            blob = 0
            for pos, v in zip(span.shifts, values):
                blob |= v << pos
        else:
            blob = self.tape.read_bits(span.offset, span.bits)
            delta = 0
            for pos, v in zip(span.shifts, values):
                delta |= (((blob >> pos) & mask) ^ v) << pos
            blob ^= delta
        self.write_span(span, blob)

    def read_span(self, span: RegisterSpan) -> tuple[int, list[int]]:
        """A span's tape bits and its registers' values, via one tape read.

        Raises InvalidRegisterError for the first listed register at or
        above q*d; only a failing call searches for it, so a valid span
        costs one `max`.
        """
        blob = self.tape.read_bits(span.offset, span.bits)
        mask = self._mask
        values = [(blob >> pos) & mask for pos in span.shifts]
        if values and max(values) >= self._limit:
            for idx, value in zip(span.indices, values):
                self._require_valid(idx, value)
        return blob, values

    def write_span(self, span: RegisterSpan, blob: int) -> None:
        """Write a span's tape bits in one tape write; its registers become dirty.

        The caller keeps the bits between the listed registers as they were.
        """
        self.tape.write_bits(span.offset, span.bits, blob)
        self._dirty.update(span.indices)

    def read_block(self, start: int, count: int) -> list[int]:
        """Values of registers start..start+count-1 via one tape read."""
        return self.gather(range(start, start + count))

    def write_block(self, start: int, values: Sequence[int]) -> None:
        self.scatter(range(start, start + len(values)), values)

    def residues_block(self, start: int, count: int) -> list[int]:
        """Residues of a contiguous block; validates every register in it."""
        q = self.modulus
        _, values = self.read_span(self.span(range(start, start + count)))
        return [v % q for v in values]

    def stream_residue(self, idx: int, q: int | None = None) -> int:
        """The register's value mod q (the modulus by default), in one tape read.

        The logspace read streams the register GROUP_BITS at a time, most
        significant first, into an accumulator in [q); extraction's meter
        charge models that, so the simulation reads the register whole.
        """
        return self.read(idx) % (self.modulus if q is None else q)

    def read_group(self, idx: int, group: int) -> int:
        """The `group`-th GROUP_BITS-wide slice of a register, LSB first."""
        off = self._offset(idx) + group * GROUP_BITS
        gw = min(GROUP_BITS, self.width - group * GROUP_BITS)
        if gw <= 0:
            raise IndexError(f"group {group} outside register width {self.width}")
        return self.tape.read_bits(off, gw)

    @property
    def touched_bits(self) -> int:
        return len(self._dirty) * self.width


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
