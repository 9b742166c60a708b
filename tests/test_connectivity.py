import gc
import random

import pytest

from catgraph.connectivity import (
    LayeredPushState,
    ParityProgram,
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
from catgraph.oracles import bfs_reach, count_paths_layers, zeta_table
from catgraph.tape import CatalyticTape, WorkspaceMeter, allocate_registers, make_tape
from catgraph.walks import dag_tape_bits, estimate_dag, estimate_general, estimate_stationary

from helpers import (
    TAPE_PROFILES,
    InjectedFault,
    buffer_and_write_bits_counts,
    fail_at,
    random_graph,
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
        # a fresh view, so only the push marks registers dirty
        file = allocate_registers(tape, 0, clamped.count, clamped.width, q)
        shadow = CatalyticTape(tape.nbits, bytearray(tape.snapshot()))
        sfile = allocate_registers(shadow, 0, file.count, file.width, q)
        state = LayeredPushState(g, 0, T, file, relevant=relevant)
        i = rng.randrange(T)
        sign = rng.choice((1, -1))
        state.layer_push(i, reverse=sign < 0)
        for v in relevant:
            for u in g.in_neighbors(v):
                sfile.add_reg((i + 1) * n + v, i * n + u, sign)
        assert tape.snapshot() == shadow.snapshot(), trial
        assert file.touched_bits == sfile.touched_bits, trial


def test_relevant_set_must_hold_its_in_neighbors():
    g = AdjacencyGraph.from_edges(3, [(0, 1), (1, 2)])
    tape, file = layered_file(g, 1, 7)
    with pytest.raises(ValueError):
        LayeredPushState(g, 0, 1, file, relevant=[1, 2])


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


def test_extraction_strategies_agree():
    # q = 2**26 extracts in grouped passes, q = 2**12 in one streaming pass;
    # both must give the exact zeta value mod q
    g = AdjacencyGraph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 2)])
    zeta = zeta_table(g, 0, 4)[4][3]
    for q in (1 << 26, 1 << 12):
        tape, file = parity_file(g, q, seed=9, extra_width=3)
        before = tape.digest()
        prog = ParityProgram(g, 0, 4, file)
        assert st_nonzero_mod(prog, 3) == zeta % q
        assert tape.digest() == before


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


def _two_rings(k):
    """Two disjoint directed k-cycles; no path from 0 to k."""
    edges = [(off + i, off + (i + 1) % k) for off in (0, k) for i in range(k)]
    return AdjacencyGraph.from_edges(2 * k, edges), 0, k


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
    # every register write (write_block, scatter, write) is one tape write,
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
