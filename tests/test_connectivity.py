import gc
import random

import pytest

from catgraph.connectivity import (
    LayeredPushState,
    ParityProgram,
    PausePoint,
    _PushProgram,
    connect_det,
    connect_det_tape_bits,
    connect_rand,
    connect_rand_tape_bits,
    connect_revertible,
    connect_revertible_tape_bits,
    iteration_count,
    nonzero_value_bound,
    rand_parameters,
    revert_query,
    revertible_parameters,
    st_count_mod,
    st_nonzero_mod,
)
from catgraph.errors import BudgetExceededError, InvalidRegisterError
from catgraph.graphs import AdjacencyGraph, GraphOracle
from catgraph.oracles import bfs_reach, count_paths, count_paths_layers, zeta_table
from catgraph.tape import (
    CatalyticTape,
    RegisterFile,
    WorkspaceMeter,
    allocate_registers,
    make_tape,
)
from catgraph.walks import dag_tape_bits, estimate_dag, estimate_general, estimate_stationary

from helpers import (
    TAPE_PROFILES,
    InjectedFault,
    buffer_and_write_bits_counts,
    fail_at,
    random_graph,
    reference_original_value,
    with_reference_kernel,
)


def valid_file(tape, base, count, width, q):
    """Allocate and clamp every register into the valid range."""
    file = allocate_registers(tape, base, count, width, q)
    for i in range(count):
        file.write(i, file.read(i) % file._limit)
    return file


def layered_file(g, T, q, profile="random", seed=0, extra_width=4):
    width = max(q.bit_length() + extra_width, 6)
    tape = make_tape((T + 1) * g.n * width, profile, seed)
    return tape, valid_file(tape, 0, (T + 1) * g.n, width, q)


def parity_file(g, q, profile="random", seed=0, extra_width=4):
    width = max(q.bit_length() + extra_width, 6)
    tape = make_tape(2 * g.n * width, profile, seed)
    return tape, valid_file(tape, 0, 2 * g.n, width, q)


# --- layered counting ---------------------------------------------------------


def test_count_path_graph():
    g = AdjacencyGraph.from_edges(3, [(0, 1), (1, 2)])
    tape, file = layered_file(g, 2, 7)
    assert st_count_mod(LayeredPushState(g, 0, 2, file), 2) == 1


def test_count_diamond():
    g = AdjacencyGraph.from_edges(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
    tape, file = layered_file(g, 2, 7)
    assert st_count_mod(LayeredPushState(g, 0, 2, file), 3) == 2


def test_count_disconnected_zero():
    g = AdjacencyGraph.from_edges(4, [(0, 1), (2, 3)])
    for T in (0, 1, 3):
        tape, file = layered_file(g, T, 11, seed=T)
        assert st_count_mod(LayeredPushState(g, 0, T, file), 3) == 0


def test_count_restores_tape():
    rng = random.Random(0)
    for trial in range(25):
        g = random_graph(rng, rng.randint(1, 6), p=0.5)
        T = rng.randint(0, 4)
        q = rng.randint(3, 4096)
        profile = TAPE_PROFILES[trial % 3]
        tape, file = layered_file(g, T, q, profile, seed=trial)
        before = tape.digest()
        st_count_mod(LayeredPushState(g, rng.randrange(g.n), T, file), rng.randrange(g.n))
        assert tape.digest() == before


def test_push_counts_match_dp_per_register():
    # register difference across b=1 / b=0 equals the path count, per (i, v)
    rng = random.Random(1)
    for trial in range(40):
        g = random_graph(rng, rng.randint(1, 6), p=0.5)
        n = g.n
        s = rng.randrange(n)
        T = rng.randint(0, 4)
        q = rng.randint(2, 4096)
        tape, file = layered_file(g, T, q, TAPE_PROFILES[trial % 3], seed=trial)
        counts = count_paths_layers(g, s, T)

        state = LayeredPushState(g, s, T, file)
        alphas = {}
        for b in (0, 1):
            state.run_push(b)
            alphas[b] = [file.residue(i) for i in range(file.count)]
            state.run_reverse(b)
        for i in range(T + 1):
            for v in range(n):
                idx = i * n + v
                diff = (alphas[1][idx] - alphas[0][idx]) % q
                assert diff == counts[i][v] % q, (trial, i, v)


def test_layer_push_reverse_is_inverse():
    rng = random.Random(2)
    for trial in range(20):
        g = random_graph(rng, rng.randint(2, 6), p=0.6)
        T = rng.randint(1, 4)
        q = rng.randint(2, 100)
        tape, file = layered_file(g, T, q, seed=trial)
        state = LayeredPushState(g, rng.randrange(g.n), T, file)
        before = tape.digest()
        state.run_push(1)
        state.run_reverse(1)
        assert tape.digest() == before


def test_batched_layer_push_equals_sequential_edge_pushes():
    rng = random.Random(3)
    for trial in range(15):
        g = random_graph(rng, rng.randint(2, 6), p=0.6)
        n = g.n
        q = rng.randint(2, 60)
        tape, file = layered_file(g, 1, q, seed=trial)
        shadow = CatalyticTape(tape.nbits, bytearray(tape.snapshot()))
        sfile = allocate_registers(shadow, 0, file.count, file.width, q)
        state = LayeredPushState(g, 0, 1, file)
        state.layer_push(0)
        for v in range(n):
            for u in g.in_neighbors(v):
                sfile.add_reg(n + v, u, 1)
        assert tape.digest() == shadow.digest()


def test_relevant_layer_push_equals_sequential_edge_pushes():
    # random sparse relevant sets: every in-neighbor of a relevant vertex is
    # relevant, other vertices keep arbitrary edges among themselves
    rng = random.Random(4)
    for trial in range(60):
        n = rng.randint(2, 9)
        relevant = sorted(rng.sample(range(n), rng.randint(1, n)))
        rel = set(relevant)
        edges = [(u, v) for u in range(n) for v in range(n) if u != v
                 and (u in rel or v not in rel) and rng.random() < 0.4]
        g = AdjacencyGraph.from_edges(n, edges)
        T = rng.randint(1, 3)
        q = rng.randint(2, 300)
        tape, clamped = layered_file(g, T, q, seed=trial)
        file = allocate_registers(tape, 0, clamped.count, clamped.width, q)
        shadow = CatalyticTape(tape.nbits, bytearray(tape.snapshot()))
        sfile = allocate_registers(shadow, 0, file.count, file.width, q)
        state = LayeredPushState(g, relevant[0], T, file, relevant=relevant)
        i = rng.randrange(T)
        sign = rng.choice((1, -1))
        state.layer_push(i, reverse=sign < 0)
        for v in relevant:
            for u in g.in_neighbors(v):
                sfile.add_reg((i + 1) * n + v, i * n + u, sign)
        assert tape.snapshot() == shadow.snapshot(), trial


def test_relevant_set_must_hold_its_in_neighbors():
    g = AdjacencyGraph.from_edges(3, [(0, 1), (1, 2)])
    tape, file = layered_file(g, 1, 7)
    with pytest.raises(ValueError, match="in-neighbor"):
        LayeredPushState(g, 1, 1, file, relevant=[1, 2])


# --- held banks against the two-read reference kernel ------------------------


def _held_bank_case(rng, layered, q, profile, seed, width=None):
    """A random push program: (build, tape, width, t, extract, T).

    Registers are 12 bits wider than q unless `width` is given.

    `build(tape)` makes the program over a copy of `tape` and returns it
    with two moduli: q, under which every register is valid, and a q2
    whose q2*d lies below q*d, under which one register of bank 0 (set to
    q*d - 1) is invalid.
    """
    n = rng.randint(2, 7)
    relevant = list(range(n))
    if layered and rng.random() < 0.5:
        relevant = sorted(rng.sample(range(n), rng.randint(1, n)))
    rel = set(relevant)
    # every in-neighbor of a relevant vertex is relevant
    edges = [(u, v) for u in range(n) for v in range(n) if u != v
             and (u in rel or v not in rel) and rng.random() < 0.45]
    g = AdjacencyGraph.from_edges(n, edges)
    T = rng.randint(1, 4)
    s, t = rng.choice(relevant), rng.choice(relevant)
    count = (T + 1) * n if layered else 2 * n
    if width is None:
        width = q.bit_length() + 12
    tape = make_tape(count * width, profile, seed)
    file = valid_file(tape, 0, count, width, q)
    q2 = rng.randrange(3, 1 << width, 2)
    while q2 * ((1 << width) // q2) >= file._limit:
        q2 = rng.randrange(3, 1 << width, 2)
    file.write(rng.choice(relevant), file._limit - 1)

    def build(copy):
        tape = CatalyticTape(copy.nbits, bytearray(copy.snapshot()))
        file = allocate_registers(tape, 0, count, width, q)
        if layered:
            prog = LayeredPushState(g, s, T, file, relevant=relevant)
        else:
            prog = ParityProgram(g, s, T, file)
        return prog, (q, q2)

    return build, tape, width, t, st_count_mod if layered else st_nonzero_mod, T


def _drive_held_banks(prog, moduli, width, t, extract, T, seed, check):
    """Run a program through extractions, a shift and unshift, tape-write
    faults inside runs and a change of modulus; returns the log of
    (event, tape bytes) at every pause point and after every step.

    A b = 0 run writes only its 2T phases, and a b = 1 run writes its start
    increment, 2T phases and its start decrement. A fault leaves the banks
    held, so each step after one acts on held copies that must equal the
    tape.
    """
    tape = prog.file.tape
    rng = random.Random(seed)
    log = []

    def note(event):
        check(prog)
        log.append((event, tape.snapshot()))

    def attempt(event, fault=None):
        try:
            with fail_at(CatalyticTape, "write_bits", fault):
                note(f"{event}:{extract(prog, t)}")
        except (InjectedFault, InvalidRegisterError) as err:
            note(f"{event}:{err}")

    def b0_phase():  # a write of a phase of the first b = 0 run
        return rng.randint(0, 2 * T - 1)

    prog.pause = note
    prog.use_modulus(moduli[0])
    attempt("extract")
    attempt("cut-b0", b0_phase())
    valid = prog.shift(rng.getrandbits(width))
    note(f"shifted:{valid}")
    if valid:
        attempt("shifted-cut-b0", b0_phase())
    prog.unshift()
    note("unshifted")
    attempt("cut-b1", rng.randint(2 * T + 1, 3 * T))  # a b = 1 push phase
    attempt("cut-b1-increment", 2 * T)
    attempt("cut-b1-decrement", 4 * T + 1)
    attempt("cut-b0", b0_phase())
    prog.run_push(1)
    prog.run_reverse(1)
    attempt("cut-b0", b0_phase())
    prog.use_modulus(moduli[1])
    try:
        prog.forward_phase()
    except InvalidRegisterError as err:
        note(str(err))
    prog.unwind()
    note("unwound")
    attempt("extract-q2")
    prog.use_modulus(moduli[0])
    attempt("extract-again")
    return log, prog.steps.n


@pytest.mark.parametrize("layered", [False, True], ids=["parity", "layered"])
def test_held_banks_match_the_two_read_kernel(layered):
    # small, odd and wide power-of-two moduli (the last extracts in 16-bit
    # groups), and q = 2**width (connect_det's layout: d = 1, a residue is
    # the whole register), each on all three tape profiles
    rng = random.Random(17 + layered)
    held_checks = []

    def check_held(prog):
        # held bits stay after a shift, an unshift or a change of modulus,
        # which drop only the residues and the high part
        file = prog.file
        for bank, bits, residues, high in zip(prog.banks, prog._bits,
                                              prog._res, prog._high):
            if bits is not None:
                assert bits == file.tape.read_bits(bank.offset, bank.bits)
                held_checks.append(residues is not None)
            assert (high is None) == (residues is None)
            if residues is not None:
                assert bits is not None
                q = file.modulus
                assert residues == [v % q for v in bank.unpack(bits)]
                assert high == bits - bank.pack(residues)

    for trial in range(48):
        width = None
        family = trial % 4
        if family == 3:
            width = rng.randint(2, 40)
            q = 1 << width
        else:
            q = (rng.randint(2, 9), rng.randrange(11, 5001, 2),
                 1 << rng.randint(17, 40))[family]
        profile = TAPE_PROFILES[trial // 4 % 3]
        build, tape, width, t, extract, T = _held_bank_case(
            rng, layered, q, profile, trial, width)
        prog, moduli = build(tape)
        got = _drive_held_banks(prog, moduli, width, t, extract, T, trial,
                                check_held)
        ref, moduli = build(tape)
        want = _drive_held_banks(with_reference_kernel(ref), moduli, width, t,
                                 extract, T, trial, lambda prog: None)
        assert got == want, (trial, q, profile)
        events = [event for event, _ in got[0]]
        assert any("write_bits call" in e for e in events), trial
        assert any("holds" in e for e in events), trial
        assert got[0][-1][1] == tape.snapshot(), trial
    assert set(held_checks) == {False, True}


@pytest.mark.parametrize("layered", [False, True], ids=["parity", "layered"])
def test_source_count_lists_match_the_reference_kernel(layered):
    # graphs with registers of 0 (layered only), 1, 2 and 3 or more sources
    # (a parity register's sources are itself and its in-neighbors), pushed
    # and reversed under the held-bank test's q families on all three tape
    # profiles: after every phase the tape equals that of a twin whose
    # phases run the reference kernel
    rng = random.Random(29 + layered)
    nonempty = [False] * 3
    for trial in range(24):
        family = trial % 4
        if family == 3:
            width = rng.randint(2, 40)
            q = 1 << width
        else:
            q = (rng.randint(2, 9), rng.randrange(11, 5001, 2),
                 1 << rng.randint(17, 40))[family]
            width = q.bit_length() + 12
        profile = TAPE_PROFILES[trial // 4 % 3]
        n = rng.randint(5, 9)
        # in-degrees: every source count occurs, the rest at random
        indeg = [0, 1, 2, rng.randint(3, n - 1)][:4 if layered else 3]
        indeg += [rng.randint(0, n - 1) for _ in range(n - len(indeg))]
        rng.shuffle(indeg)
        edges = [(u, v) for v, d in enumerate(indeg)
                 for u in rng.sample([u for u in range(n) if u != v], d)]
        g = AdjacencyGraph.from_edges(n, edges)
        T = rng.randint(1, 4)
        s = rng.randrange(n)
        count = (T + 1) * n if layered else 2 * n
        tape = make_tape(count * width, profile, trial)
        valid_file(tape, 0, count, width, q)

        def build():
            copy = CatalyticTape(tape.nbits, bytearray(tape.snapshot()))
            file = allocate_registers(copy, 0, count, width, q)
            if layered:
                return LayeredPushState(g, s, T, file)
            return ParityProgram(g, s, T, file)

        def drive(prog):
            log = []
            prog.pause = lambda stage: log.append(
                (stage, prog.file.tape.snapshot()))
            for b in (1, 0):
                prog.run_push(b)
                prog.run_reverse(b)
            return log, prog.steps.n

        prog = build()
        got = drive(prog)
        assert got == drive(with_reference_kernel(build())), (trial, q, profile)
        assert got[0][-1][1] == tape.snapshot(), trial
        # the lists hold every register with sources once, with its sources
        listed = sorted([(j, list(srcs)) for j, *srcs in prog._one + prog._two]
                        + [(j, list(srcs)) for j, srcs in prog._many])
        assert listed == [(j, list(srcs))
                          for j, srcs in enumerate(prog._sources) if srcs]
        # registers without sources: the layered program's alone
        assert any(not srcs for srcs in prog._sources) == layered
        for k, lst in enumerate((prog._one, prog._two, prog._many)):
            nonempty[k] = nonempty[k] or bool(lst)
    assert all(nonempty)


# --- two-bank nonzero ---------------------------------------------------------


def test_nonzero_single_vertex_base_case():
    g = AdjacencyGraph.from_edges(1, [])
    tape, file = parity_file(g, 5)
    assert st_nonzero_mod(ParityProgram(g, 0, 0, file), 0) == 1


def test_nonzero_path_graph():
    g = AdjacencyGraph.from_edges(3, [(0, 1), (1, 2)])
    want = zeta_table(g, 0, 2)[2][2]
    assert want > 0
    for q in (7, 5, 64, 4096):
        tape, file = parity_file(g, q, seed=q)
        assert st_nonzero_mod(ParityProgram(g, 0, 2, file), 2) == want % q


def test_nonzero_no_path_is_zero():
    g = AdjacencyGraph.from_edges(5, [(0, 1), (1, 2), (3, 4)])
    for T in (0, 2, 5, 9):
        tape, file = parity_file(g, 13, seed=T)
        assert st_nonzero_mod(ParityProgram(g, 0, T, file), 3) == 0


def test_nonzero_matches_exact_recurrence():
    rng = random.Random(4)
    for trial in range(40):
        g = random_graph(rng, rng.randint(1, 6), p=0.45)
        s, t = rng.randrange(g.n), rng.randrange(g.n)
        T = rng.randint(0, 6)
        q = rng.randint(2, 4096)
        tape, file = parity_file(g, q, TAPE_PROFILES[trial % 3], seed=trial)
        before = tape.digest()
        got = st_nonzero_mod(ParityProgram(g, s, T, file), t)
        assert tape.digest() == before
        assert got == zeta_table(g, s, T)[T][t] % q


def test_parity_program_reset():
    rng = random.Random(5)
    for trial in range(20):
        g = random_graph(rng, rng.randint(1, 6), p=0.5)
        T = rng.randint(0, 5)
        q = rng.randint(2, 200)
        tape, file = parity_file(g, q, seed=trial)
        prog = ParityProgram(g, 0, T, file)
        before = tape.digest()
        prog.run_push(1)
        prog.run_reverse(1)
        assert tape.digest() == before


@pytest.mark.parametrize("layered", [False, True], ids=["parity", "layered"])
@pytest.mark.parametrize("q", [1 << 12, 1 << 16, 1 << 17, 1 << 32, 1 << 33,
                               1 << 48, 1_000_003],
                         ids=["2^12", "2^16", "2^17", "2^32", "2^33", "2^48",
                              "odd"])
def test_extraction_strategies_agree(q, layered):
    # q up to 2**16 and the odd q read the answer in one streaming pass, a
    # wider power of two in one pass per 16-bit group; the extra widths
    # put bits above log2 q into the last group some of these q read. On
    # the complete 6-vertex graph with T = 17 both answers pass 2**36, and
    # the top group of each mod each wide q is nonzero, so every group
    # counts. Each read gives the exact answer mod q and restores the tape.
    rng = random.Random(q % 1000 + layered)
    k6 = AdjacencyGraph.from_edges(6, [(u, v) for u in range(6)
                                       for v in range(6) if u != v])
    cases = [(k6, 0, 5, 17)]
    for _ in range(3):
        g = random_graph(rng, rng.randint(3, 6), p=rng.choice((0.3, 0.7)))
        cases.append((g, rng.randrange(g.n), rng.randrange(g.n),
                      rng.randint(1, 18)))
    for g, s, t, T in cases:
        if layered:
            want = count_paths(g, s, T)[t]
        else:
            want = zeta_table(g, s, T)[T][t]
        for seed, profile in enumerate(TAPE_PROFILES):
            for extra_width in (0, 3, 17):
                if layered:
                    tape, file = layered_file(g, T, q, profile, seed, extra_width)
                    prog = LayeredPushState(g, s, T, file)
                else:
                    tape, file = parity_file(g, q, profile, seed, extra_width)
                    prog = ParityProgram(g, s, T, file)
                before = tape.snapshot()
                assert st_nonzero_mod(prog, t) == want % q
                assert tape.snapshot() == before


@pytest.mark.parametrize("layered, reg", [
    (False, 1),  # a parity source
    (False, 4),  # a parity destination
    (True, 4),  # a layered destination of the first phase
    (True, 7),  # a layered destination of the second phase
])
def test_push_kernel_rejects_invalid_register_and_restores(layered, reg):
    g = AdjacencyGraph.from_edges(3, [(0, 1), (1, 2)])
    T, q = 2, 5
    count = (T + 1) * g.n if layered else 2 * g.n
    tape = CatalyticTape.zeros(count * 8)
    file = allocate_registers(tape, 0, count, 8, q)
    file.write(reg, 255)  # q*d = 5 * 51 = 255
    before = tape.digest()
    if layered:
        prog = LayeredPushState(g, 0, T, file)
        run = st_count_mod
    else:
        prog = ParityProgram(g, 0, T, file)
        run = st_nonzero_mod
    message = f"register {reg} holds 255 >= q\\*d = 255"
    with pytest.raises(InvalidRegisterError, match=message):
        run(prog, 2)
    assert prog.pushed == 0
    assert tape.digest() == before


def test_an_invalid_start_register_fails_the_start_increment_unchanged():
    # the start increment takes s from bank 0's held bits, which `_hold`
    # validates first: s alone at q*d raises naming s, and nothing is written
    g = AdjacencyGraph.from_edges(3, [(0, 1), (1, 2)])
    s = 2
    tape, file = parity_file(g, 5, seed=4)
    limit = file._limit  # q*d = 5 * 25 = 125, below 2**7
    file.write(s, limit)
    before = tape.snapshot()
    prog = ParityProgram(g, s, 2, file)
    with pytest.raises(InvalidRegisterError,
                       match=f"register {s} holds {limit} >= q\\*d = {limit}"):
        prog.run_push(1)
    assert prog.b_applied == 0 and prog.pushed == 0
    assert tape.snapshot() == before


# --- revert queries -----------------------------------------------------------


def test_revert_query_before_any_push_returns_current():
    g = AdjacencyGraph.from_edges(3, [(0, 1), (1, 2)])
    tape, file = layered_file(g, 2, 7)
    state = LayeredPushState(g, 0, 2, file)
    for i in range(3):
        for v in range(3):
            assert revert_query(state, (i, v)) == file.read(i * 3 + v)
    # (0, 3) would be register 3 of the file, but vertex 3 does not exist
    for bad in ((3, 0), (-1, 0), (0, 3), (0, -1)):
        with pytest.raises(IndexError):
            revert_query(state, bad)


def test_revert_query_after_full_push_matches_snapshot():
    rng = random.Random(6)
    for trial in range(15):
        g = random_graph(rng, rng.randint(2, 6), p=0.5)
        n, T = g.n, rng.randint(1, 4)
        q = rng.randint(2, 500)
        tape, file = layered_file(g, T, q, seed=trial)
        tau = [file.read(i) for i in range(file.count)]
        state = LayeredPushState(g, rng.randrange(n), T, file)
        state.run_push(1)
        for i in range(T + 1):
            for v in range(n):
                assert revert_query(state, (i, v)) == tau[i * n + v], (trial, i, v)
        # queries leave the tape untouched and execution can resume
        state.run_reverse(1)
        assert [file.read(i) for i in range(file.count)] == tau


def test_revert_query_at_random_pause_points():
    rng = random.Random(7)
    for trial in range(10):
        g = random_graph(rng, rng.randint(2, 6), p=0.5)
        n, T = g.n, rng.randint(1, 4)
        q = rng.randint(2, 500)
        tape, file = layered_file(g, T, q, seed=trial)
        tau = [file.read(i) for i in range(file.count)]
        probes = []

        def pause(stage):
            for _ in range(3):
                i = rng.randint(0, T)
                v = rng.randrange(n)
                probes.append(revert_query(state, (i, v)) == tau[i * n + v])

        state = LayeredPushState(g, 0, T, file, pause=pause)
        st_count_mod(state, n - 1)
        assert probes and all(probes)


@pytest.mark.parametrize("edge, relevant, s", [((1, 2), [1, 2], 0),
                                               ((0, 2), [0, 2], 1)],
                         ids=["below-the-bank", "inside-the-span"])
def test_a_start_in_no_bank_is_rejected(edge, relevant, s):
    # the start increment writes s, so s must be a bank register
    g = AdjacencyGraph.from_edges(3, [edge])
    tape, file = layered_file(g, 2, 7)
    before = tape.snapshot()
    with pytest.raises(ValueError, match="no register in bank 0"):
        LayeredPushState(g, s, 2, file, relevant=relevant)
    assert tape.snapshot() == before


def test_a_start_outside_the_graph_is_rejected():
    # register n would be vertex 0 of the second bank
    g = AdjacencyGraph.from_edges(3, [(0, 1)])
    tape, file = parity_file(g, 5)
    before = tape.snapshot()
    with pytest.raises(ValueError, match="no register in bank 0"):
        ParityProgram(g, 3, 3, file)
    with pytest.raises(ValueError, match="no register in bank 0"):
        LayeredPushState(g, 3, 1, file)
    assert tape.snapshot() == before


# --- drivers ------------------------------------------------------------------


def test_det_single_edge_both_directions():
    g = AdjacencyGraph.from_edges(2, [(0, 1)])
    assert connect_det(g, 0, 1).verdict == "path"
    assert connect_det(g, 1, 0).verdict == "no-path"


def test_det_self_pair_is_path():
    g = AdjacencyGraph.from_edges(1, [])
    assert connect_det(g, 0, 0).verdict == "path"


def test_one_vertex_graph_sizes_and_answers_every_driver():
    g = AdjacencyGraph.from_edges(1, [])
    assert connect_revertible_tape_bits(g) == 0
    for driver, bits in ((connect_det, connect_det_tape_bits(1)),
                         (connect_rand, connect_rand_tape_bits(1)),
                         (connect_revertible, connect_revertible_tape_bits(g))):
        tape = make_tape(bits, "random", 3)
        before = tape.digest()
        ans = driver(g, 0, 0, tape=tape)
        assert ans.verdict == "path" and ans.metrics.tape_restored
        assert tape.digest() == before


def test_det_matches_bfs_small_random():
    rng = random.Random(8)
    for trial in range(40):
        g = random_graph(rng, rng.randint(1, 7), p=0.4)
        tape = make_tape(max(connect_det_tape_bits(g.n), 1), TAPE_PROFILES[trial % 3], trial)
        reach = bfs_reach(g)
        s, t = rng.randrange(g.n), rng.randrange(g.n)
        ans = connect_det(g, s, t, tape=tape)
        assert (ans.verdict == "path") == reach[s][t]
        assert ans.metrics.tape_restored
        assert not ans.metrics.aborted


def test_rand_soundness_no_false_positives():
    g = AdjacencyGraph.from_edges(3, [(1, 0), (2, 1)])
    tape = make_tape(connect_rand_tape_bits(3), "random", 0)
    for seed in range(50):
        ans = connect_rand(g, 0, 2, seed=seed, tape=tape)
        assert ans.verdict in ("no-path", "abort")
        assert ans.metrics.tape_restored


def test_rand_finds_paths():
    rng = random.Random(9)
    found = total = 0
    for trial in range(40):
        g = random_graph(rng, rng.randint(2, 8), p=0.5)
        reach = bfs_reach(g)
        pairs = [(s, t) for s in range(g.n) for t in range(g.n) if s != t and reach[s][t]]
        if not pairs:
            continue
        s, t = pairs[rng.randrange(len(pairs))]
        ans = connect_rand(g, s, t, seed=trial)
        total += 1
        found += ans.verdict == "path"
        assert ans.metrics.tape_restored
    assert total > 20
    assert found / total >= 0.5


def test_rand_replay_deterministic():
    g = AdjacencyGraph.from_edges(4, [(0, 1), (1, 2), (3, 0)])
    tape = make_tape(connect_rand_tape_bits(4), "random", 5)
    a = connect_rand(g, 0, 2, seed=31, tape=tape)
    b = connect_rand(g, 0, 2, seed=31, tape=tape)
    assert a.verdict == b.verdict
    assert a.metrics.elapsed_steps == b.metrics.elapsed_steps


def test_iteration_count_scaling():
    assert iteration_count(2, 8.0) == 8
    assert iteration_count(10, 8.0) == 27
    assert iteration_count(2, 1.0) == 1
    for kappa in (-3.0, 0.0, float("inf"), float("nan"), 1e308):
        with pytest.raises(ValueError, match="kappa"):
            iteration_count(4, kappa)


def test_revertible_matches_bfs_and_restores():
    rng = random.Random(10)
    for trial in range(15):
        g = random_graph(rng, rng.randint(2, 7), p=0.4)
        tape = make_tape(connect_revertible_tape_bits(g), TAPE_PROFILES[trial % 3], trial)
        before = tape.digest()
        s, t = rng.randrange(g.n), rng.randrange(g.n)
        ans = connect_revertible(g, s, t, seed=trial, tape=tape)
        assert (ans.verdict == "path") == bfs_reach(g)[s][t]
        assert ans.metrics.tape_restored
        assert tape.digest() == before


def test_revertible_queries_return_original_bits():
    rng = random.Random(11)
    g = random_graph(rng, 6, p=0.45)
    bits = connect_revertible_tape_bits(g)
    tape = make_tape(bits, "random", 3)
    snap = tape.snapshot()
    checks = []

    def hook(point, query):
        if rng.random() < 0.05:
            for _ in range(2):
                idx = rng.randrange(bits)
                want = (snap[idx >> 3] >> (idx & 7)) & 1
                checks.append(query(idx) == want)

    ans = connect_revertible(g, 0, 5, seed=4, tape=tape, pause_hook=hook)
    assert checks and all(checks)
    assert ans.metrics.tape_restored


def test_revertible_untouched_region_reads_current_value():
    # an isolated vertex in the base graph yields irrelevant registers
    g = AdjacencyGraph.from_edges(4, [(0, 1)])
    bits = connect_revertible_tape_bits(g)
    tape = make_tape(bits, "random", 8)
    snap = tape.snapshot()
    seen = []

    def hook(point, query):
        if point.stage.startswith("push") and not seen:
            for idx in range(bits):
                if query(idx) != ((snap[idx >> 3] >> (idx & 7)) & 1):
                    seen.append(idx)

    ans = connect_revertible(g, 0, 1, seed=0, tape=tape, pause_hook=hook)
    assert ans.verdict == "path"
    assert not seen


@pytest.mark.parametrize("profile", TAPE_PROFILES)
def test_revertible_every_pause_answer_on_a_whole_run(profile):
    # no-path instances whose shifts all leave the registers valid, so every
    # iteration runs; every bit of every relevant register, and a stride of
    # the other bits, is asked at every pause point
    cases = [
        (AdjacencyGraph.from_edges(3, [(0, 1)]), 0, 2),
        (AdjacencyGraph.from_edges(4, [(0, 1), (1, 0), (2, 3)]), 0, 3),
        (AdjacencyGraph.from_edges(4, [(1, 0), (2, 1), (3, 2)]), 0, 3),
    ]
    for seed, (g, s, t) in enumerate(cases):
        params = revertible_parameters(g)
        T, n_ids, ell = params["T"], params["view_n"], params["ell"]
        relevant = sorted(set(params["view"].iter_nonisolated()) | {s, t})
        bits = connect_revertible_tape_bits(g)
        rel_regs = {i * n_ids + v for i in range(T + 1) for v in relevant}
        probe = [idx for idx in range(bits)
                 if idx // ell in rel_regs or idx % 7 == seed]
        tape = make_tape(bits, profile, seed)
        snap = tape.snapshot()
        before = tape.digest()
        points, bad = [], []

        def hook(point, query):
            points.append(point)
            for idx in probe:
                if query(idx) != (snap[idx >> 3] >> (idx & 7)) & 1:
                    bad.append((point.pause_id, point.stage, idx))

        ans = connect_revertible(g, s, t, seed=seed, kappa=1.0, tape=tape,
                                 pause_hook=hook)
        assert bad == [], bad[:4]
        assert ans.verdict == "no-path"
        assert ans.metrics.tape_restored and tape.digest() == before
        # q < 2**16 here, so each iteration is one streaming b=0, b=1 pass
        stages = ["shifted"]
        for b in (0, 1):
            stages += ([f"start-increment:b={b}"]
                       + [f"push:b={b}:layer={i}" for i in range(T)]
                       + [f"reverse:b={b}:layer={i}" for i in range(T - 1, -1, -1)]
                       + [f"start-decrement:b={b}"])
        stages.append("unshifted")
        iters = iteration_count(g.n, 1.0)
        assert [(p.pause_id, p.iteration, p.stage) for p in points] == [
            (k, k // len(stages), stage) for k, stage in enumerate(stages * iters)]
        assert all(type(point) is PausePoint for point in points)


def test_bounds_helpers():
    assert nonzero_value_bound(2) == 10
    assert connect_det_tape_bits(2) == 2 * 2 * 4  # l = ceil(log2 10) = 4


def test_driver_rejects_bad_vertices():
    g = AdjacencyGraph.from_edges(2, [(0, 1)])
    with pytest.raises(ValueError):
        connect_det(g, 0, 5)


class _OutnbrFails(AdjacencyGraph):
    def outnbr(self, v, i):
        raise RuntimeError("graph oracle unavailable")

    def out_neighbors(self, v):
        raise RuntimeError("graph oracle unavailable")


def test_workspace_meter_is_used_and_released():
    g = AdjacencyGraph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    ring_edges = [(0, 0), (0, 1), (1, 2), (2, 0)]
    ring = AdjacencyGraph.from_edges(3, ring_edges)
    drivers = [
        lambda meter: connect_det(g, 0, 3, meter=meter),
        lambda meter: connect_rand(g, 0, 3, seed=1, meter=meter),
        lambda meter: connect_revertible(g, 0, 3, seed=1, meter=meter),
        lambda meter: estimate_dag(g, 0, 3, 0.5, meter=meter),
        lambda meter: estimate_general(g, 0, 3, 3, 0.5, meter=meter),
        lambda meter: estimate_stationary(ring, 0, 2, 0.5, meter=meter),
    ]
    for run in drivers:
        meter = WorkspaceMeter()
        peak = run(meter).metrics.workspace_peak_bits
        assert peak > 0
        assert meter.bits_in_use == 0
        meter = WorkspaceMeter(budget=peak - 1)
        with pytest.raises(BudgetExceededError):
            run(meter)
        assert meter.bits_in_use == 0
    meter = WorkspaceMeter()
    with pytest.raises(RuntimeError):
        estimate_stationary(_OutnbrFails.from_edges(3, ring_edges), 0, 2, 0.5, meter=meter)
    assert meter.bits_in_use == 0


def test_budget_overrun_restores_tape():
    g = AdjacencyGraph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 1)])
    dag = AdjacencyGraph.from_edges(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
    drivers = [
        (connect_det_tape_bits(g.n),
         lambda tape, meter: connect_det(g, 0, 3, tape=tape, meter=meter)),
        (connect_rand_tape_bits(g.n),
         lambda tape, meter: connect_rand(g, 0, 3, seed=2, tape=tape, meter=meter)),
        (connect_revertible_tape_bits(g),
         lambda tape, meter: connect_revertible(g, 0, 3, seed=2, tape=tape, meter=meter)),
        (dag_tape_bits(dag, 0.5),
         lambda tape, meter: estimate_dag(dag, 0, 3, 0.5, tape, meter=meter)),
    ]
    for bits, run in drivers:
        tape = make_tape(bits, "random", 5)
        before = tape.digest()
        peak = run(tape, WorkspaceMeter()).metrics.workspace_peak_bits
        for budget in range(peak):
            with pytest.raises(BudgetExceededError):
                run(tape, WorkspaceMeter(budget=budget))
            assert tape.digest() == before, budget


def test_revertible_raising_pause_hook_restores_tape():
    class HookFault(Exception):
        pass

    g = AdjacencyGraph.from_edges(3, [(0, 1), (1, 2)])
    tape = make_tape(connect_revertible_tape_bits(g), "random", 6)
    before = tape.digest()
    points = []
    ans = connect_revertible(g, 0, 2, seed=1, tape=tape,
                             pause_hook=lambda point, query: points.append(point))
    assert ans.metrics.tape_restored and len(points) > 3
    for k, point in enumerate(points):
        def hook(p, query, k=k):
            if p.pause_id == k:
                raise HookFault(k)

        with pytest.raises(HookFault):
            connect_revertible(g, 0, 2, seed=1, tape=tape, pause_hook=hook)
        assert tape.digest() == before, point.stage


def test_revertible_leaves_no_reference_cycles():
    # the program's pause hook reaches the program again through `query`;
    # a finished or failed call must not leave that loop to the collector
    g = AdjacencyGraph.from_edges(6, [(0, 1), (1, 2), (3, 4), (4, 5), (5, 3)])

    def hook(point, query):
        query(0)
        if point.pause_id == 7:
            raise KeyError(point.pause_id)

    gc.collect()
    gc.disable()
    try:
        for seed in range(3):
            connect_revertible(g, 0, 4, seed=seed, kappa=1.0)
            try:
                connect_revertible(g, 0, 4, seed=seed, kappa=1.0, pause_hook=hook)
            except KeyError:
                pass
        assert gc.collect() == 0
    finally:
        gc.enable()


def _two_rings(k, bridge=False):
    """Two disjoint directed k-cycles; no path from 0 to k unless `bridge`
    adds the edge k-1 -> k."""
    edges = [(off + i, off + (i + 1) % k) for off in (0, k) for i in range(k)]
    return AdjacencyGraph.from_edges(2 * k, edges + [(k - 1, k)] * bridge), 0, k


def test_exact_step_counts_on_two_rings():
    # n = 16, m = 16: det extracts in 5 groups of 4 runs, each run costing
    # 1 + n(n+m); rand runs all 32 iterations, each a 2n scan, a 2n unshift
    # and 4 streaming runs; workspace peaks pin each extraction mode's
    # scalars (det at n = 4 extracts streaming, at n = 16 grouped)
    g, s, t = _two_rings(8)
    n, m = g.n, g.edge_count()
    run_steps = 1 + n * (n + m)
    ans = connect_det(g, s, t)
    assert ans.metrics.elapsed_steps == 20 * run_steps == 10_260
    assert ans.metrics.workspace_peak_bits == 100
    ans = connect_rand(g, s, t, seed=1)
    assert ans.verdict == "no-path"
    iters = iteration_count(n, 8.0)
    assert ans.metrics.elapsed_steps == iters * (4 * n + 4 * run_steps) == 67_712
    assert ans.metrics.workspace_peak_bits == 199
    ans = connect_revertible(g, s, t, seed=1)
    assert ans.verdict == "no-path"
    assert ans.metrics.elapsed_steps == 257_152
    assert ans.metrics.workspace_peak_bits == 250
    assert connect_det(*_two_rings(2)).metrics.workspace_peak_bits == 87


@pytest.mark.parametrize("k, runs, steps", [(12, 28, 32_284), (16, 44, 90_156)],
                         ids=["n24", "n32"])
def test_det_on_the_bench_rings_counts_exact_steps(k, runs, steps):
    # the bench's det rings, n = 24 and 32: banks of 24 x 112 and
    # 32 x 162 bits (the second past PACK_FOLD_BITS, so its phases join
    # with the OR fold), reduced with the power-of-two mask; grouped
    # extraction in 7 and 11 groups of four runs of 1 + n(n+m) steps
    g, s, t = _two_rings(k)
    n, m = g.n, g.edge_count()
    assert steps == runs * (1 + n * (n + m))
    for bridge, verdict in ((False, "no-path"), (True, "path")):
        g, s, t = _two_rings(k, bridge)
        tape = make_tape(connect_det_tape_bits(n), "random", k)
        entry = tape.snapshot()
        ans = connect_det(g, s, t, tape=tape)
        assert ans.verdict == verdict
        assert ans.metrics.tape_restored and tape.snapshot() == entry
        if not bridge:
            assert ans.metrics.elapsed_steps == steps


def _tape_io(driver, g, s, t):
    """(reads, writes, add_mod calls) of one seed-1 call on the tape."""
    with fail_at(CatalyticTape, "read_bits", None) as reads, \
            fail_at(CatalyticTape, "write_bits", None) as writes, \
            fail_at(RegisterFile, "add_mod", None) as adds:
        ans = driver(g, s, t, seed=1)
    assert ans.verdict == "no-path"
    return reads.calls, writes.calls, adds.calls


def test_tape_io_counts_on_two_rings():
    # the first shift reads each of the k banks once, and the program holds
    # their bits for the rest of the call; each round shifts and unshifts
    # the banks (one write each) and extracts with a b = 0 run and a b = 1
    # run; each run reads the answer once, writes one span per phase each
    # way, and only b = 1 writes the start increment and decrement
    # (through the held bank, not `add_mod`)
    g, s, t = _two_rings(8)
    n = g.n
    iters = iteration_count(n, 8.0)
    reads, writes, adds = _tape_io(connect_rand, g, s, t)  # k = 2, T = n
    assert reads == 2 + 2 * iters == 66
    assert writes == iters * (2 * 2 + 4 * n + 2) == 2240
    assert adds == 0
    params = revertible_parameters(g)
    T, n_ids, ell = params["T"], params["view_n"], params["ell"]  # k = T + 1
    reads, writes, adds = _tape_io(connect_revertible, g, s, t)
    assert reads == T + 1 + 2 * iters == 145
    assert writes == iters * (2 * (T + 1) + 4 * T + 2)
    assert adds == 0
    # a query of a relevant register answers from the held banks alone
    regs = [layer * n_ids + v for layer in (0, 1, T // 2, T) for v in (s, t)]
    tape = make_tape(connect_revertible_tape_bits(g), "random", 1)
    snap = tape.snapshot()
    answers, query_reads = [], []
    with fail_at(CatalyticTape, "read_bits", None) as counter:
        def hook(point, query):
            before = counter.calls
            answers.append([query(idx) for reg in regs
                            for idx in range(reg * ell, (reg + 1) * ell)])
            query_reads.append(counter.calls - before)

        ans = connect_revertible(g, s, t, seed=1, kappa=1.0, tape=tape,
                                 pause_hook=hook)
    assert ans.verdict == "no-path"
    assert len(query_reads) == iteration_count(n, 1.0) * (4 * T + 6)
    assert set(query_reads) == {0}
    want = [(snap[idx >> 3] >> (idx & 7)) & 1 for reg in regs
            for idx in range(reg * ell, (reg + 1) * ell)]
    assert all(a == want for a in answers)


@pytest.mark.parametrize("layered", [False, True], ids=["parity", "layered"])
def test_push_run_reads_each_bank_once(layered):
    # streaming extraction makes 2 runs; q = 2**40 extracts in 3 groups of 2
    g = AdjacencyGraph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2)])
    T = 6
    for q, runs in ((13, 2), (1 << 40, 6)):
        if layered:
            tape, file = layered_file(g, T, q)
            prog, extract = LayeredPushState(g, 0, T, file), st_count_mod
        else:
            tape, file = parity_file(g, q)
            prog, extract = ParityProgram(g, 0, T, file), st_nonzero_mod
        before = tape.digest()
        with fail_at(CatalyticTape, "read_bits", None) as reads, \
                fail_at(CatalyticTape, "write_bits", None) as writes:
            extract(prog, 4)
        assert tape.digest() == before
        # each bank is read once per extraction and the answer once per
        # run; a run writes one span per phase each way, and a b = 1 run
        # (half of them) its start increment and decrement too
        assert reads.calls == len(prog.banks) + runs, q
        assert writes.calls == runs * (1 + 2 * T), q


def _invalid_after_first_shift(tape, count, width, seed, q_hi, reg):
    """Make register `reg` invalid once the first round's shift is applied.

    Draws q and beta as the randomized drivers do, then writes q*d - beta
    into the register, so the shifted value is q*d.
    """
    rng = random.Random(seed)
    q = rng.randrange(2, q_hi)
    beta = rng.getrandbits(width)
    file = allocate_registers(tape, 0, count, width, q)
    assert q * file.multiplier < 1 << width
    file.write(reg, (q * file.multiplier - beta) % (1 << width))


def _rand_abort(last):
    """The rand driver on an invalid first (or last scanned) register."""
    g = AdjacencyGraph.from_edges(3, [(0, 1)])
    q_hi, ell = rand_parameters(3)
    tape = make_tape(connect_rand_tape_bits(3), "random", 0)
    _invalid_after_first_shift(tape, 2 * g.n, ell, 1, q_hi,
                               2 * g.n - 1 if last else 0)
    before = tape.digest()
    ans = connect_rand(g, 0, 2, seed=1, tape=tape)
    assert ans.verdict == "abort" and ans.metrics.aborted
    # the 2n-register scan and the 2n-register unshift, nothing else
    assert ans.metrics.elapsed_steps == 4 * g.n
    assert ans.metrics.tape_restored and tape.digest() == before


def test_rand_aborts_on_an_invalid_shifted_register():
    _rand_abort(last=False)


def test_rand_aborts_when_the_last_scanned_register_is_invalid():
    # register 2n - 1 ends bank 1, the last span the shift checks
    _rand_abort(last=True)


def _revertible_abort(last):
    """The revertible driver on an invalid first (or last scanned) register."""
    g = AdjacencyGraph.from_edges(3, [(0, 1)])
    params = revertible_parameters(g)
    T, n_ids, ell = params["T"], params["view_n"], params["ell"]
    # the highest relevant register of layer T, as the driver picks them
    top = max(set(params["view"].iter_nonisolated()) | {0, 2})
    tape = make_tape(connect_revertible_tape_bits(g), "random", 0)
    _invalid_after_first_shift(tape, (T + 1) * n_ids, ell, 1, params["q_hi"],
                               T * n_ids + top if last else 0)
    snap = tape.snapshot()
    points, bad = [], []

    def hook(point, query):
        points.append((point.pause_id, point.iteration, point.stage))
        bad.extend(idx for idx in range(tape.nbits)
                   if query(idx) != (snap[idx >> 3] >> (idx & 7)) & 1)

    ans = connect_revertible(g, 0, 2, seed=1, tape=tape, pause_hook=hook)
    assert ans.verdict == "abort" and ans.metrics.aborted
    assert ans.metrics.elapsed_steps == 60
    assert points == [(0, 0, "shifted"), (1, 0, "abort-unshifted")]
    assert bad == []
    assert ans.metrics.tape_restored and tape.snapshot() == snap


def test_revertible_aborts_on_an_invalid_shifted_register():
    _revertible_abort(last=False)


def test_revertible_aborts_when_the_last_scanned_register_is_invalid():
    _revertible_abort(last=True)


def test_catalytic_bits_are_the_registers_written(monkeypatch):
    # the registers each call writes: every `write_bits` range maps back
    # to the registers of the call's push programs that it covers, and one
    # of those counts as written if it is a bank register or the write
    # changes its bits. A span write also covers the unlisted registers
    # between its listed ones and leaves them as they were, so a covered
    # register outside the banks counts only if its bits change
    programs, writes = [], []
    init, write_bits = _PushProgram.__init__, CatalyticTape.write_bits

    def capturing_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        programs.append(self)

    def recording_write_bits(self, offset, width, value):
        writes.append((offset, width, self.read_bits(offset, width) ^ value))
        write_bits(self, offset, width, value)

    monkeypatch.setattr(_PushProgram, "__init__", capturing_init)
    monkeypatch.setattr(CatalyticTape, "write_bits", recording_write_bits)

    def check(driver, g, s, t, tape, **kwargs):
        programs.clear()
        writes.clear()
        ans = driver(g, s, t, tape=tape, **kwargs)
        ((base, width),) = {(p.file.base, p.file.width) for p in programs}
        banks = {idx for p in programs for bank in p.banks for idx in bank.indices}
        mask = (1 << width) - 1
        written = set()
        for offset, bits, diff in writes:
            first, rem = divmod(offset - base, width)
            assert rem == 0 and bits % width == 0
            for k in range(bits // width):
                if first + k in banks or diff >> (k * width) & mask:
                    written.add(first + k)
        assert ans.metrics.catalytic_bits == len(written) * width > 0
        assert ans.metrics.tape_restored
        return ans.verdict

    rng = random.Random(29)
    verdicts = set()
    for trial in range(30):
        g = random_graph(rng, rng.randint(2, 7), p=rng.choice((0.2, 0.35)))
        s, t = rng.sample(range(g.n), 2)
        profile = TAPE_PROFILES[trial % 3]
        verdicts.add(check(connect_det, g, s, t,
                           make_tape(connect_det_tape_bits(g.n), profile, trial)))
        verdicts.add(check(connect_rand, g, s, t,
                           make_tape(connect_rand_tape_bits(g.n), profile, trial),
                           seed=trial))
        verdicts.add(check(connect_revertible, g, s, t,
                           make_tape(connect_revertible_tape_bits(g), profile, trial),
                           seed=trial, kappa=1.0))
    # an abort at the first shift
    g = AdjacencyGraph.from_edges(3, [(0, 1)])
    q_hi, ell = rand_parameters(3)
    tape = make_tape(connect_rand_tape_bits(3), "random", 0)
    _invalid_after_first_shift(tape, 2 * g.n, ell, 1, q_hi, 0)
    verdicts.add(check(connect_rand, g, 0, 2, tape, seed=1))
    assert verdicts == {"path", "no-path", "abort"}


def test_every_program_write_is_a_whole_bank_or_register_s(monkeypatch):
    # over whole extractions and shifted rounds, a phase writes the next
    # bank whole (registers without sources too), a shift or unshift one
    # bank, and the start increment and decrement register s alone
    programs, writes = [], []
    init, write_bits = _PushProgram.__init__, CatalyticTape.write_bits

    def capturing_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        programs.append(self)

    def recording_write_bits(self, offset, width, value):
        writes.append((offset, width))
        write_bits(self, offset, width, value)

    monkeypatch.setattr(_PushProgram, "__init__", capturing_init)
    monkeypatch.setattr(CatalyticTape, "write_bits", recording_write_bits)

    def check(run):
        """The bank spans and the write ranges of `run`'s one program."""
        programs.clear()
        writes.clear()
        run()
        (prog,) = programs
        file = prog.file
        banks = {(bank.offset, bank.bits) for bank in prog.banks}
        assert writes
        assert set(writes) <= banks | {(file.base + prog.s * file.width, file.width)}
        return banks, set(writes)

    # the path 0->1->2: vertex 0 has no in-neighbor, and each phase still
    # writes all three registers of the next layer
    g = AdjacencyGraph.from_edges(3, [(0, 1), (1, 2)])
    tape, file = layered_file(g, 2, 7)
    w = file.width
    _, written = check(lambda: st_count_mod(LayeredPushState(g, 0, 2, file), 2))
    assert written == {(0, w), (3 * w, 3 * w), (6 * w, 3 * w)}
    rng = random.Random(31)
    for trial in range(12):
        g = random_graph(rng, rng.randint(2, 6), p=rng.choice((0.2, 0.4)))
        s, t = rng.sample(range(g.n), 2)
        T = rng.randint(1, 4)
        q = rng.choice((7, 1 << 20))  # streaming and grouped extraction
        profile = TAPE_PROFILES[trial % 3]
        tape, file = layered_file(g, T, q, profile, trial)
        check(lambda: st_count_mod(LayeredPushState(g, s, T, file), t))
        tape, file = parity_file(g, q, profile, trial)
        check(lambda: st_nonzero_mod(ParityProgram(g, s, T, file), t))
        # the randomized drivers shift every bank, then extract while shifted
        for driver, bits in ((connect_rand, connect_rand_tape_bits(g.n)),
                             (connect_revertible, connect_revertible_tape_bits(g))):
            tape = make_tape(bits, profile, trial)
            banks, written = check(lambda: driver(g, s, t, seed=trial, kappa=1.0,
                                                  tape=tape))
            assert banks <= written


def test_held_queries_match_the_tape_reading_reference(monkeypatch):
    # random revertible calls on all three tape profiles, some aborting at
    # the first shift and some cut by a tape-write fault: at every pause
    # point, every relevant register of every layer answers as the
    # tape-reading reference and as the tape before the call
    states = []
    init = LayeredPushState.__init__

    def capturing_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        states.append(self)

    monkeypatch.setattr(LayeredPushState, "__init__", capturing_init)
    rng = random.Random(23)
    outcomes, stages = set(), set()
    for trial in range(100):
        g = random_graph(rng, rng.randint(2, 7), p=rng.choice((0.2, 0.35)))
        s, t = rng.sample(range(g.n), 2)
        params = revertible_parameters(g)
        T, n_ids, ell = params["T"], params["view_n"], params["ell"]
        relevant = sorted(set(params["view"].iter_nonisolated()) | {s, t})
        tape = make_tape(connect_revertible_tape_bits(g),
                         TAPE_PROFILES[trial % 3], trial)
        kind = trial // 3 % 4  # 0 and 1 plain, 2 abort, 3 write fault
        seed = trial
        if kind == 2:
            # a power-of-two first modulus leaves every register valid
            q_hi = params["q_hi"]
            while (q := random.Random(seed).randrange(2, q_hi)) & (q - 1) == 0:
                seed += 1000
            _invalid_after_first_shift(
                tape, (T + 1) * n_ids, ell, seed, q_hi,
                rng.randint(0, T) * n_ids + rng.choice(relevant))
        snap = tape.snapshot()
        want = {(i, v): tape.read_bits((i * n_ids + v) * ell, ell)
                for i in range(T + 1) for v in relevant}
        bad = []

        def hook(point, query):
            state = states[-1]
            stages.add(point.stage.split(":")[0])
            for (i, v), value in want.items():
                got = state.original_value(i, v)
                if not got == reference_original_value(state, i, v) == value:
                    bad.append((point, i, v))

        # a cut inside the first round: its shift, runs or unshift
        fault = rng.randrange(2 * (T + 1) + 4 * T + 2) if kind == 3 else None
        try:
            with fail_at(CatalyticTape, "write_bits", fault):
                ans = connect_revertible(g, s, t, seed=seed, kappa=1.0,
                                         tape=tape, pause_hook=hook)
            outcomes.add(ans.verdict)
        except InjectedFault:
            outcomes.add("fault")
        assert bad == [], (trial, bad[:3])
        assert tape.snapshot() == snap, trial
    assert outcomes == {"path", "no-path", "abort", "fault"}
    assert stages == {"shifted", "start-increment", "push", "reverse",
                      "start-decrement", "unshifted", "abort-unshifted"}


def test_revertible_without_hook_gives_the_program_no_pause_callback(monkeypatch):
    callbacks = []
    init = LayeredPushState.__init__

    def counting_init(self, *args, pause=None, **kwargs):
        def counted(stage):
            callbacks.append(stage)
            pause(stage)

        init(self, *args, pause=None if pause is None else counted, **kwargs)

    monkeypatch.setattr(LayeredPushState, "__init__", counting_init)
    g, s, t = _two_rings(4)
    ans = connect_revertible(g, s, t, seed=1)
    assert ans.verdict == "no-path" and ans.metrics.tape_restored
    assert callbacks == []


def test_rand_builds_its_program_once_per_call():
    g, s, t = _two_rings(8)
    with fail_at(GraphOracle, "in_neighbors", None) as counter:
        ans = connect_rand(g, s, t, seed=1)
    assert ans.verdict == "no-path"
    # one query per vertex for the program, and one for the self-loop check
    assert counter.calls == 2 * g.n


def test_revertible_query_reads_each_register_once_per_pause():
    g, s, t = AdjacencyGraph.from_edges(4, [(0, 1), (1, 0), (2, 3)]), 0, 3
    params = revertible_parameters(g)
    ell = params["ell"]
    tape = make_tape(connect_revertible_tape_bits(g), "random", 1)
    snap = tape.snapshot()
    reg = params["view_n"] + s  # register s of layer 1
    bits = range(reg * ell, (reg + 1) * ell)
    answers = []

    def hook(point, query):
        # asked at two pause points, each of which reads the register once
        if point.iteration == 0 and point.stage in ("push:b=0:layer=1",
                                                    "reverse:b=0:layer=1"):
            answers.append([query(idx) for idx in bits])

    with fail_at(LayeredPushState, "original_value", None) as counter:
        connect_revertible(g, s, t, seed=1, kappa=1.0, tape=tape, pause_hook=hook)
    assert answers == [[(snap[idx >> 3] >> (idx & 7)) & 1 for idx in bits]] * 2
    assert counter.calls == 2


def _fault_sweep_drivers():
    g = AdjacencyGraph.from_edges(3, [(0, 1)])
    return {
        "det": (connect_det_tape_bits(g.n),
                lambda tape, meter: connect_det(g, 0, 2, tape=tape, meter=meter)),
        "rand": (connect_rand_tape_bits(g.n),
                 lambda tape, meter: connect_rand(g, 0, 2, seed=1, kappa=1.0,
                                                  tape=tape, meter=meter)),
        "revertible": (connect_revertible_tape_bits(g),
                       lambda tape, meter: connect_revertible(
                           g, 0, 2, seed=1, kappa=1.0, tape=tape, meter=meter)),
    }


def _fault_sweep_cases():
    drivers = _fault_sweep_drivers()
    targets = {
        "write_bits": (CatalyticTape, "write_bits"),
        "charge": (WorkspaceMeter, "charge"),
    }
    return [pytest.param(drivers[d], targets[t], id=f"{d}-{t}")
            for d in drivers for t in targets]


@pytest.mark.parametrize("driver, target", _fault_sweep_cases())
def test_fault_at_every_write_and_charge_restores_tape(driver, target):
    # every register write (write_block, write) is one tape write,
    # so raising at the k-th tape write, for every k, covers all of them
    bits, run = driver
    tape = make_tape(bits, "random", 1)
    before = tape.digest()
    with fail_at(*target, None) as counter:
        ans = run(tape, WorkspaceMeter())
    assert ans.verdict == "no-path" and ans.metrics.tape_restored
    assert counter.calls > 1
    for k in range(counter.calls):
        meter = WorkspaceMeter()
        with fail_at(*target, k), pytest.raises(InjectedFault):
            run(tape, meter)
        assert tape.digest() == before, k
        assert meter.bits_in_use == 0, k


@pytest.mark.parametrize("driver", _fault_sweep_drivers().values(),
                         ids=list(_fault_sweep_drivers()))
def test_every_tape_write_goes_through_write_bits(driver):
    # the sweep above cuts tape writes at `write_bits`; a write that reached
    # the buffer another way would escape it
    buffer_sets, writes = buffer_and_write_bits_counts(*driver)
    assert buffer_sets == writes > 0


def test_drivers_reject_explicit_self_loops():
    g = AdjacencyGraph.from_edges(2, [(0, 0), (0, 1)])
    with pytest.raises(ValueError):
        connect_det(g, 0, 1)
    with pytest.raises(ValueError):
        connect_rand(g, 0, 1, seed=0)
    with pytest.raises(ValueError):
        connect_revertible(g, 0, 1, seed=0)
