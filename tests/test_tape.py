import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catgraph.errors import (
    BudgetExceededError,
    InvalidRegisterError,
    MeterError,
    SpanError,
)
from catgraph.connectivity import LayeredPushState, ParityProgram
from catgraph.graphs import AdjacencyGraph
from catgraph.tape import (
    PACK_FOLD_BITS,
    CatalyticTape,
    RegisterSpan,
    WorkspaceMeter,
    allocate_registers,
    bits_for,
    ceil_log2,
    make_tape,
)


def test_allocate_power_of_two_modulus_fills_width():
    tape = CatalyticTape.zeros(64)
    file = allocate_registers(tape, 0, 4, 16, 1 << 16)
    assert file.multiplier == 1


def test_allocate_multiplier_by_division():
    tape = CatalyticTape.zeros(16)
    file = allocate_registers(tape, 0, 4, 4, 5)
    assert file.multiplier == 3  # 5*3 = 15 <= 16 < 20


def test_allocate_modulus_too_large():
    tape = CatalyticTape.zeros(16)
    with pytest.raises(ValueError):
        allocate_registers(tape, 0, 4, 4, 17)


def test_allocate_span_out_of_bounds():
    tape = CatalyticTape.zeros(16)
    with pytest.raises(SpanError):
        allocate_registers(tape, 8, 4, 4, 5)


def test_allocate_does_not_touch_tape():
    tape = make_tape(64, "random", seed=1)
    before = tape.digest()
    allocate_registers(tape, 0, 4, 16, 7)
    assert tape.digest() == before


def test_shift_wraps_mod_register_size():
    tape = CatalyticTape.zeros(4)
    file = allocate_registers(tape, 0, 1, 4, 5)
    file.write(0, 13)
    file.shift_all(5)
    assert file.read(0) == 2


def test_shift_zero_is_identity():
    tape = make_tape(32, "random", seed=2)
    file = allocate_registers(tape, 0, 8, 4, 5)
    before = tape.digest()
    file.shift_all(0)
    assert tape.digest() == before


@given(st.integers(0, 15), st.data())
@settings(deadline=None)
def test_shift_then_inverse_restores(beta, data):
    values = data.draw(st.lists(st.integers(0, 15), min_size=6, max_size=6))
    tape = CatalyticTape.zeros(24)
    file = allocate_registers(tape, 0, 6, 4, 5)
    for i, v in enumerate(values):
        file.write(i, v)
    before = tape.digest()
    file.shift_all(beta)
    file.shift_all((16 - beta) % 16)
    assert tape.digest() == before


def test_is_valid_against_qd_threshold():
    tape = CatalyticTape.zeros(8)
    file = allocate_registers(tape, 0, 1, 4, 5)
    file.write(0, 14)
    assert file.is_valid(0)  # 14 < q*d = 15
    file.write(0, 15)
    assert not file.is_valid(0)


def test_power_of_two_modulus_always_valid():
    tape = make_tape(64, "random", seed=3)
    file = allocate_registers(tape, 0, 8, 8, 256)
    assert all(file.is_valid(i) for i in range(8))


def test_is_valid_index_out_of_range():
    tape = CatalyticTape.zeros(8)
    file = allocate_registers(tape, 0, 1, 4, 5)
    with pytest.raises(IndexError):
        file.is_valid(1)


def test_add_mod_moves_only_residue():
    tape = CatalyticTape.zeros(4)
    file = allocate_registers(tape, 0, 1, 4, 5)
    file.write(0, 13)  # 2*5 + 3
    file.add_mod(0, 4)
    assert file.read(0) == 12  # 2*5 + 2


def test_add_mod_zero_identity():
    tape = make_tape(4, "random", seed=4)
    file = allocate_registers(tape, 0, 1, 4, 5)
    file.write(0, file.read(0) % 15)
    before = file.read(0)
    file.add_mod(0, 0)
    assert file.read(0) == before


def test_add_mod_invalid_register_raises():
    tape = CatalyticTape.zeros(4)
    file = allocate_registers(tape, 0, 1, 4, 5)
    file.write(0, 15)
    with pytest.raises(InvalidRegisterError):
        file.add_mod(0, 1)


def test_add_then_sub_mod_is_identity():
    tape = make_tape(40, "random", seed=5)
    file = allocate_registers(tape, 0, 10, 4, 5)
    for i in range(10):
        file.write(i, file.read(i) % 15)
    before = tape.digest()
    for i in range(10):
        file.add_mod(i, 3)
    for i in range(10):
        file.sub_mod(i, 3)
    assert tape.digest() == before


def test_add_reg_residue_arithmetic():
    tape = CatalyticTape.zeros(8)
    file = allocate_registers(tape, 0, 2, 4, 5)
    file.write(0, 12)  # b = 2
    file.write(1, 8)   # b = 3
    file.add_reg(0, 1, sign=1)
    assert file.read(0) == 10  # b = 0
    assert file.read(1) == 8


def test_add_reg_zero_residue_source():
    tape = CatalyticTape.zeros(8)
    file = allocate_registers(tape, 0, 2, 4, 5)
    file.write(0, 12)
    file.write(1, 10)  # b = 0
    file.add_reg(0, 1)
    assert file.read(0) == 12


def test_add_reg_rejects_same_register():
    tape = CatalyticTape.zeros(8)
    file = allocate_registers(tape, 0, 2, 4, 5)
    with pytest.raises(ValueError):
        file.add_reg(0, 0)


@given(st.data())
@settings(deadline=None, max_examples=200)
def test_push_then_reverse_push_restores(data):
    count = 6
    tape_bytes = data.draw(st.binary(min_size=6, max_size=6))
    tape = CatalyticTape(48, bytearray(tape_bytes))
    q = data.draw(st.integers(2, 200))
    file = allocate_registers(tape, 0, count, 8, q)
    for i in range(count):
        file.write(i, file.read(i) % file._limit)
    before = tape.digest()
    ops = data.draw(
        st.lists(
            st.tuples(st.integers(0, count - 1), st.integers(0, count - 1)),
            max_size=20,
        ).filter(lambda l: all(a != b for a, b in l))
    )
    for dst, src in ops:
        file.add_reg(dst, src, 1)
    for dst, src in reversed(ops):
        file.add_reg(dst, src, -1)
    assert tape.digest() == before


@given(st.data())
@settings(deadline=None, max_examples=100)
def test_mixed_op_sequence_with_inverse_restores(data):
    count = 5
    tape = CatalyticTape(count * 6)
    q = data.draw(st.integers(2, 60))
    file = allocate_registers(tape, 0, count, 6, q)
    for i in range(count):
        file.write(i, data.draw(st.integers(0, file._limit - 1)))
    before = tape.digest()
    ops = data.draw(
        st.lists(
            st.one_of(
                st.tuples(
                    st.just("mod"), st.integers(0, count - 1), st.integers(0, q - 1)
                ),
                st.tuples(
                    st.just("reg"), st.integers(0, count - 1), st.integers(0, count - 1)
                ).filter(lambda t: t[1] != t[2]),
            ),
            max_size=25,
        )
    )
    for op in ops:
        if op[0] == "mod":
            file.add_mod(op[1], op[2])
        else:
            file.add_reg(op[1], op[2], 1)
    for op in reversed(ops):
        if op[0] == "mod":
            file.sub_mod(op[1], op[2])
        else:
            file.add_reg(op[1], op[2], -1)
    assert tape.digest() == before


def test_ops_do_not_touch_outside_register_span():
    tape = make_tape(100, "random", seed=6)
    file = allocate_registers(tape, 8, 4, 5, 7)  # registers at bits [8, 28)
    for i in range(4):
        file.write(i, file.read(i) % file._limit)
    outside = [tape.read_bit(b) for b in list(range(8)) + list(range(28, 100))]
    untouched = {0: tape.read_bits(8, 5), 1: tape.read_bits(13, 5), 3: tape.read_bits(23, 5)}
    file.add_mod(2, 3)
    file.add_reg(2, 0, 1)
    assert [tape.read_bit(b) for b in list(range(8)) + list(range(28, 100))] == outside
    assert tape.read_bits(8, 5) == untouched[0]
    assert tape.read_bits(13, 5) == untouched[1]
    assert tape.read_bits(23, 5) == untouched[3]


@pytest.mark.parametrize("width", [3, 4, 5, 6])
def test_shift_validity_rate_exhaustive(width):
    # invalid fraction over all (beta, value) pairs is at most 1/(d+1)
    size = 1 << width
    for q in range(2, size + 1):
        d = size // q
        invalid = 0
        for value in range(size):
            for beta in range(size):
                if (value + beta) % size >= q * d:
                    invalid += 1
        assert invalid * (d + 1) <= size * size, (width, q)


def test_block_ops_match_scalar_ops():
    tape = make_tape(70, "random", seed=7)
    file = allocate_registers(tape, 3, 9, 7, 11)
    scalars = [file.read(i) for i in range(9)]
    assert file.read_block(0, 9) == scalars
    file.write_block(2, [1, 2, 3])
    assert [file.read(i) for i in (2, 3, 4)] == [1, 2, 3]
    for i in range(9):
        file.write(i, file.read(i) % file._limit)
    assert file.residues_block(0, 9) == [file.residue(i) for i in range(9)]
    file.write(6, file._limit)
    file.write(4, file._limit + 1)
    with pytest.raises(InvalidRegisterError,
                       match=f"register 4 holds {file._limit + 1} >= q"):
        file.residues_block(2, 6)


def _tape_bits(tape):
    return [tape.read_bit(b) for b in range(tape.nbits)]


def test_span_unpack_and_pack_match_scalar_ops():
    rng = random.Random(12)
    for width in range(1, 71):
        base = rng.randrange(1, 8) + 8 * rng.randrange(3)  # never byte-aligned
        count = rng.randint(1, 12)
        tape = make_tape(base + count * width + rng.randrange(9), "random", width)
        file = allocate_registers(tape, base, count, width, 2)
        # any order; at odd widths the listed registers fill their span
        idx = rng.sample(range(count), count if width % 2 else rng.randint(1, count))
        span = file.span(idx)
        assert span.unpack(tape.read_bits(span.offset, span.bits)) == [
            file.read(i) for i in idx]
        values = [rng.getrandbits(width) for _ in idx]
        bits = span.pack(values)
        assert span.unpack(bits) == values
        if width % 2:
            # a full span's bits, written whole, set each register
            shadow = CatalyticTape(tape.nbits, bytearray(tape.snapshot()))
            sfile = allocate_registers(shadow, base, count, width, 2)
            tape.write_bits(span.offset, span.bits, bits)
            for i, v in zip(idx, values):
                sfile.write(i, v)
            assert tape.snapshot() == shadow.snapshot(), width


def test_write_block_changes_only_its_registers():
    rng = random.Random(13)
    for trial in range(40):
        width = rng.randint(1, 70)
        base = rng.randrange(40)
        count = rng.randint(2, 10)
        tape = make_tape(base + count * width + 40, "random", trial)
        file = allocate_registers(tape, base, count, width, 2)
        start = rng.randrange(count)
        values = [rng.getrandbits(width) for _ in range(rng.randint(1, count - start))]
        old = _tape_bits(tape)
        file.write_block(start, values)
        new = _tape_bits(tape)
        block = range(base + start * width, base + (start + len(values)) * width)
        assert all(old[b] == new[b] for b in range(tape.nbits) if b not in block)
        assert file.read_block(start, len(values)) == values


def test_shift_indices_changes_only_listed_registers():
    tape = make_tape(60, "random", seed=14)
    file = allocate_registers(tape, 3, 11, 5, 7)
    values = [file.read(i) for i in range(11)]
    span = file.span([7, 2, 9])
    file.shift_indices(span, 6, tape.read_bits(span.offset, span.bits))
    assert [file.read(i) for i in range(11)] == [
        (v + 6) % 32 if i in (2, 7, 9) else v for i, v in enumerate(values)
    ]


def test_block_ops_reject_bad_input_without_writing():
    tape = make_tape(100, "random", seed=15)
    file = allocate_registers(tape, 5, 9, 10, 1000)
    before = tape.snapshot()
    for start in (8, -1):  # a block past the last register or before the first
        with pytest.raises(IndexError):
            file.read_block(start, 2)
        with pytest.raises(IndexError):
            file.write_block(start, [1, 2])
    with pytest.raises(ValueError):
        file.write_block(1, [5, 1 << 10, 7])  # over-wide value last but one
    with pytest.raises(ValueError):
        file.write_block(1, [-1, 7])
    span = file.span([1, 2])
    with pytest.raises(ValueError):
        file.shift_indices(span, 1 << 10, tape.read_bits(span.offset, span.bits))
    assert tape.snapshot() == before
    assert file.read_block(3, 0) == []
    file.write_block(3, [])
    assert tape.snapshot() == before


def test_span_rejects_bad_indices_when_built():
    tape = make_tape(100, "random", seed=16)
    file = allocate_registers(tape, 5, 9, 10, 1000)
    for bad in ([0, 9], [-1, 3], range(10)):
        with pytest.raises(IndexError):
            file.span(bad)
    for bad in ([3, 3], [1, 4, 1]):
        with pytest.raises(ValueError):
            file.span(bad)
    span = file.span([7, 2, 4])
    assert len(span) == 3 and list(span) == [7, 2, 4]
    assert (span.offset, span.bits, list(span.shifts)) == (25, 60, [50, 0, 20])
    span = file.span(range(3, 6))
    assert (span.offset, span.bits, list(span.shifts)) == (35, 30, [0, 10, 20])


@given(st.data())
@settings(deadline=None, max_examples=300)
def test_lane_wise_shift_matches_per_register_add(data):
    width = data.draw(st.integers(1, 70), label="width")
    mask = (1 << width) - 1
    count = data.draw(st.integers(1, 10), label="count")
    base = data.draw(st.integers(0, 15), label="base")  # byte-straddling
    order = data.draw(st.permutations(range(count)), label="order")
    idx = order[:data.draw(st.integers(1, count), label="listed")]  # full or gapped
    beta = data.draw(st.sampled_from([0, 1, mask]) | st.integers(0, mask), label="beta")
    q = data.draw(st.integers(2, 1 << width), label="q")
    values = data.draw(st.lists(st.integers(0, mask), min_size=count,
                                max_size=count), label="values")
    tape = make_tape(base + count * width + data.draw(st.integers(0, 9)), "random",
                     data.draw(st.integers(0, 3)))
    file = allocate_registers(tape, base, count, width, q)
    # one listed register may land just below, on or above q*d once shifted
    edge = data.draw(st.sampled_from([None, -1, 0, 1]), label="edge")
    if edge is not None:
        values[idx[-1]] = (file._limit + edge - beta) & mask
    for i, v in enumerate(values):
        file.write(i, v)
    before = tape.snapshot()
    shadow = CatalyticTape(tape.nbits, bytearray(before))
    sfile = allocate_registers(shadow, base, count, width, q)
    for i in idx:
        sfile.write(i, (values[i] + beta) & mask)
    span = file.span(idx)
    valid, bits = file.shift_indices(span, beta, tape.read_bits(span.offset, span.bits))
    # every bit outside the listed registers is unchanged
    assert tape.snapshot() == shadow.snapshot()
    assert bits == tape.read_bits(span.offset, span.bits)
    assert valid == (max((values[i] + beta) & mask for i in idx) < file._limit)
    file.shift_indices(span, ((1 << width) - beta) & mask, bits)
    assert tape.snapshot() == before


def test_empty_span():
    tape = make_tape(100, "random", seed=18)
    file = allocate_registers(tape, 5, 9, 10, 1000)
    before = tape.snapshot()
    span = file.span([])
    assert len(span) == 0 and list(span) == []
    assert (span.bits, span.unpack(0), span.pack([])) == (0, [], 0)
    assert file.shift_indices(span, 3, 0) == (True, 0)
    with pytest.raises(ValueError):
        span.pack([1])
    assert tape.snapshot() == before


def test_use_modulus_keeps_the_programs_registers():
    # another modulus over the same registers is the point of use_modulus
    g = AdjacencyGraph.from_edges(3, [(0, 1), (1, 2)])
    tape = make_tape(200, "random", seed=19)
    parity = ParityProgram(g, 0, 3, allocate_registers(tape, 4, 6, 8, 5))
    layered = LayeredPushState(g, 0, 1, allocate_registers(tape, 4, 6, 8, 5))
    for prog in (parity, layered):
        prog.use_modulus(7)
        f = prog.file
        assert f.tape is tape
        assert (f.base, f.count, f.width, f.modulus) == (4, 6, 8, 7)


def test_stream_residue_matches_direct_mod():
    tape = make_tape(300, "random", seed=8)
    file = allocate_registers(tape, 0, 6, 50, 977)
    pow2 = allocate_registers(tape, 0, 6, 50, 64)
    for i in range(6):
        file.write(i, file.read(i) % file._limit)
        assert file.stream_residue(i) == file.read(i) % 977
        assert pow2.stream_residue(i) == file.read(i) % 64


def test_meter_charge_release_and_peak():
    meter = WorkspaceMeter()
    meter.charge(64)
    meter.release(64)
    assert meter.bits_in_use == 0
    assert meter.peak_bits == 64
    meter.charge(64)
    meter.charge(64)
    assert meter.peak_bits >= 128
    meter.release(128)


def test_meter_budget_violation():
    meter = WorkspaceMeter(budget=100)
    with pytest.raises(BudgetExceededError):
        meter.charge(128)


def test_meter_over_release():
    meter = WorkspaceMeter()
    meter.charge(8)
    with pytest.raises(MeterError):
        meter.release(9)


def test_meter_peak_monotone():
    meter = WorkspaceMeter()
    peaks = []
    for k in (8, 32, 4, 64, 2):
        meter.charge(k)
        peaks.append(meter.peak_bits)
        meter.release(k)
    assert peaks == sorted(peaks)


def test_digest_equality_and_snapshot():
    a = make_tape(127, "random", seed=9)
    b = CatalyticTape(127, bytearray(a.snapshot()))
    assert a.digest() == b.digest()
    b.write_bits(3, 1, 1 - b.read_bit(3))
    assert a.digest() != b.digest()
    b.restore(a.snapshot())
    assert a.digest() == b.digest()


def _reference_write_bits(buf: bytes, offset: int, width: int, value: int) -> bytes:
    """The buffer after writing `value` into bits offset.. one bit at a time."""
    out = bytearray(buf)
    for k in range(width):
        i = offset + k
        out[i >> 3] = out[i >> 3] & ~(1 << (i & 7)) | ((value >> k) & 1) << (i & 7)
    return bytes(out)


@st.composite
def _tape_spans(draw):
    """(tape length, offset, width) of a span inside the tape: anywhere,
    empty, inside one byte, byte-aligned at both ends, or ending at the
    tape's last bit (beside the tail bits past it)."""
    nbits = draw(st.integers(1, 100))
    kind = draw(st.sampled_from(("any", "empty", "in-byte", "aligned", "to-end")))
    if kind == "in-byte":
        lo = 8 * draw(st.integers(0, (nbits - 1) >> 3))
        hi = min(lo + 8, nbits)
        offset = draw(st.integers(lo, hi))
        end = draw(st.integers(offset, hi))
    elif kind == "aligned":
        offset = 8 * draw(st.integers(0, nbits >> 3))
        end = 8 * draw(st.integers(offset >> 3, nbits >> 3))
    else:
        offset = draw(st.integers(0, nbits))
        if kind == "empty":
            end = offset
        elif kind == "to-end":
            end = nbits
        else:
            end = draw(st.integers(offset, nbits))
    return nbits, offset, end - offset


@given(_tape_spans(), st.randoms(use_true_random=False), st.data())
@settings(deadline=None, max_examples=300)
def test_write_bits_matches_a_bit_by_bit_reference(span, rng, data):
    nbits, offset, width = span
    tape = CatalyticTape.random(nbits, rng)
    value = data.draw(st.integers(0, (1 << width) - 1))
    want = _reference_write_bits(tape.snapshot(), offset, width, value)
    tape.write_bits(offset, width, value)
    assert tape.snapshot() == want
    assert tape.read_bits(offset, width) == value


@given(_tape_spans(), st.randoms(use_true_random=False), st.data())
@settings(deadline=None, max_examples=200)
def test_write_bits_rejects_a_bad_value_or_span_unchanged(span, rng, data):
    nbits, offset, width = span
    tape = CatalyticTape.random(nbits, rng)
    before = tape.snapshot()
    bad = data.draw(st.sampled_from(
        ("too-wide", "negative", "past-the-end", "before-the-start", "negative-width")
        if width else ("past-the-end", "before-the-start", "negative-width")))
    value = data.draw(st.integers(0, (1 << width) - 1))
    if bad == "too-wide":
        value += data.draw(st.integers(1, 1 << 70)) << width
    elif bad == "negative":
        value = -data.draw(st.integers(1, 1 << 70))
    elif bad == "past-the-end":
        width = nbits - offset + data.draw(st.integers(1, 20))
    elif bad == "before-the-start":
        offset = -data.draw(st.integers(1, 20))
    else:
        width = -data.draw(st.integers(1, 20))
    error = ValueError if bad in ("too-wide", "negative") else SpanError
    with pytest.raises(error):
        tape.write_bits(offset, width, value)
    assert tape.snapshot() == before


@st.composite
def _packed_layouts(draw):
    """(tape, span) for a `RegisterSpan` over a random tape at any offset:
    narrow, 1 to 8 registers of 1 to 70 bits, or wide, 7 to 40 registers
    of up to 400 bits that together pass `PACK_FOLD_BITS`, so that
    `pack_lanes` joins with `sum` or with the OR fold. Either a file's span
    of one width or a span of per-register widths cut from
    `RegisterSpan.packed`; the listed registers are a random subset in
    random order, all of them for a full span."""
    if draw(st.booleans(), label="wide"):
        count = draw(st.integers(7, 40), label="count")
        lo, hi = PACK_FOLD_BITS // count + 1, 400
    else:
        count, lo, hi = draw(st.integers(1, 8), label="count"), 1, 70
    if draw(st.booleans(), label="uniform"):
        widths = [draw(st.integers(lo, hi), label="width")] * count
    else:
        widths = draw(st.lists(st.integers(lo, hi), min_size=count, max_size=count),
                      label="widths")
    offset = draw(st.integers(0, 15), label="offset")
    order = draw(st.permutations(range(count)), label="order")
    listed = tuple(order[:draw(st.integers(1, count), label="listed")])
    tape = make_tape(offset + sum(widths) + draw(st.integers(0, 9)), "random",
                     draw(st.integers(0, 3)))
    if len(set(widths)) == 1 and draw(st.booleans(), label="as file"):
        file = allocate_registers(tape, offset, count, widths[0], 2)
        return tape, file.span(listed)
    whole = RegisterSpan.packed(offset, widths)
    span = RegisterSpan(listed, offset, whole.bits, [whole.shifts[i] for i in listed],
                        [widths[i] for i in listed])
    return tape, span


def _span_widths(span):
    return [span.width] * len(span) if type(span.width) is int else span.width


@given(_packed_layouts(), st.data())
@settings(deadline=None, max_examples=300)
def test_pack_and_unpack_match_a_bit_by_bit_reference(layout, data):
    tape, span = layout
    widths = _span_widths(span)
    bits = _tape_bits(tape)
    old = tape.read_bits(span.offset, span.bits)
    assert span.unpack(old) == [
        sum(bits[span.offset + pos + k] << k for k in range(w))
        for pos, w in zip(span.shifts, widths)]
    values = [data.draw(st.integers(0, (1 << w) - 1)) for w in widths]
    # the listed registers hold their values; every other bit of the span is 0
    packed = [0] * span.bits
    for pos, w, v in zip(span.shifts, widths, values):
        for k in range(w):
            packed[pos + k] = (v >> k) & 1
    new = span.pack(values)
    assert new == sum(b << k for k, b in enumerate(packed))
    assert span.unpack(new) == values
    if sum(widths) == span.bits:
        # the registers fill the span: one write sets them all and no
        # other bit of the tape
        tape.write_bits(span.offset, span.bits, new)
        bits[span.offset:span.offset + span.bits] = packed
        assert _tape_bits(tape) == bits


@given(_packed_layouts(), st.data())
@settings(deadline=None, max_examples=200)
def test_pack_rejects_a_bad_value_or_count_unchanged(layout, data):
    _, span = layout
    widths = _span_widths(span)
    values = [data.draw(st.integers(0, (1 << w) - 1)) for w in widths]
    j = data.draw(st.integers(0, len(values) - 1))
    bad = data.draw(st.sampled_from(("negative", "too-wide", "too-few", "too-many")))
    if bad == "negative":
        values[j] = -data.draw(st.integers(1, 1 << 70))
    elif bad == "too-wide":
        values[j] += data.draw(st.integers(1, 1 << 70)) << widths[j]
    elif bad == "too-few":
        del values[j]
    else:
        values.append(0)
    with pytest.raises(ValueError):
        span.pack(values)


def test_pack_of_a_span_listing_no_register_is_zero():
    # both joins start from 0, the bits of a span that lists no register
    for bits in (0, PACK_FOLD_BITS, PACK_FOLD_BITS + 1, 40_000):
        span = RegisterSpan((), 3, bits, [], 8)
        assert span.pack([]) == span.pack_lanes([]) == 0
        assert span.unpack((1 << bits) - 1) == []


def test_read_group_rejects_a_group_outside_the_register():
    tape = make_tape(64, "random", seed=19)
    file = allocate_registers(tape, 0, 2, 32, 1 << 32)
    for idx in (0, 1):
        value = file.read(idx)
        assert [file.read_group(idx, g) for g in (0, 1)] == [value & 0xFFFF, value >> 16]
        for group in (-2, -1, 2, 3):
            with pytest.raises(IndexError):
                file.read_group(idx, group)
    narrow = allocate_registers(tape, 0, 3, 20, 2)  # a 4-bit last group
    assert narrow.read_group(2, 1) == narrow.read(2) >> 16
    with pytest.raises(IndexError):
        narrow.read_group(2, 2)


def test_profiles():
    assert make_tape(16, "zeros").read_bits(0, 16) == 0
    assert make_tape(16, "ones").read_bits(0, 16) == 0xFFFF
    r1 = make_tape(64, "random", seed=11)
    r2 = make_tape(64, "random", seed=11)
    assert r1.digest() == r2.digest()
    with pytest.raises(ValueError):
        make_tape(8, "sparkles")


def test_bits_for_and_ceil_log2():
    assert bits_for(1) == 1
    assert bits_for(2) == 1
    assert bits_for(3) == 2
    assert bits_for(1 << 20) == 20
    assert ceil_log2(1) == 0
    assert ceil_log2(626) == 10
    assert ceil_log2(1024) == 10
    assert ceil_log2(1025) == 11
