import math
import random
from collections import Counter

import pytest

from catgraph.errors import SinkVertexError, WalkCycleError
from catgraph.graphs import AdjacencyGraph, LayeredLiftView, with_sink_loops
from catgraph.metrics import StepCounter
from catgraph.oracles import (
    dag_reach_probabilities,
    mixing_error,
    stationary_exact,
    walk_distribution,
    walk_matrix,
)
from catgraph.tape import CatalyticTape, WorkspaceMeter, make_tape
from catgraph.walks import (
    FWD,
    REV,
    RotorRegisters,
    VisitCounters,
    WalkRegisters,
    _rotor_walks,
    collect_counters,
    dag_tape_bits,
    estimate_dag,
    estimate_general,
    estimate_stationary,
    general_tape_bits,
    register_width,
    rotor_widths,
    simulation_count,
    stationary_tape_bits,
    walk_length,
    walk_once,
)

from helpers import (
    TAPE_PROFILES,
    InjectedFault,
    LoggingGraph,
    buffer_and_write_bits_counts,
    ergodic_graph,
    fail_at,
    figure_dag,
    out_regular_graph,
    random_dag,
    reference_stationary,
    reference_walk,
)

FIGURE_INIT = [0, 1, 0, 1, 0, 1, 0, 0]  # up = even register, down = odd


def test_walk_once_single_edge():
    g = AdjacencyGraph.from_edges(2, [(0, 1)])
    tape = CatalyticTape.zeros(2)
    regs = WalkRegisters(tape, 0, 2, 1)
    assert walk_once(g, 0, FWD, regs) == 1
    assert regs.load()[0] == 1  # incremented


def test_walk_once_figure_counts():
    g = figure_dag()
    tape = CatalyticTape.zeros(16)
    regs = WalkRegisters(tape, 0, 8, 2)
    regs.write_block(0, FIGURE_INIT)
    counters = VisitCounters.for_graph(g)
    for _ in range(3):
        walk_once(g, 0, FWD, regs, counters)
    assert counters.visits == [3, 2, 1, 1, 2, 0, 1, 2]
    flat = [counters.transitions[u][r] for u in range(6) for r in range(2)]
    assert flat == [2, 1, 1, 1, 1, 0, 0, 1, 1, 1, 0, 0]


def test_walk_forward_then_reverse_restores():
    rng = random.Random(0)
    for trial in range(25):
        g = random_dag(rng, rng.randint(2, 10))
        width = 4
        tape = make_tape(g.n * width, TAPE_PROFILES[trial % 3], trial)
        regs = WalkRegisters(tape, 0, g.n, width)
        before = tape.digest()
        sink_f = walk_once(g, 0, FWD, regs)
        sink_r = walk_once(g, 0, REV, regs)
        assert sink_f == sink_r
        assert tape.digest() == before


def test_walk_registers_flush_writes_only_marked_registers():
    rng = random.Random(12)
    for width in (1, 3, 7):
        count = 11
        tape = make_tape(5 + count * width + 9, "random", width)
        regs = WalkRegisters(tape, 5, count, width)
        before = tape.read_bits(0, tape.nbits)
        marked = set(rng.sample(range(count), 4))
        values = [rng.randrange(1 << width) for _ in range(count)]
        regs.mark_touched(marked)
        regs.flush(values)
        want = before
        for i in marked:
            off = 5 + i * width
            want = want & ~(((1 << width) - 1) << off) | values[i] << off
        assert tape.read_bits(0, tape.nbits) == want
        assert regs.touched_bits == len(marked) * width


def test_walk_cycle_guard():
    g = AdjacencyGraph.from_edges(2, [(0, 1), (1, 0)])
    regs = WalkRegisters(CatalyticTape.zeros(4), 0, 2, 2)
    with pytest.raises(WalkCycleError):
        walk_once(g, 0, FWD, regs)


@pytest.mark.parametrize("profile", TAPE_PROFILES)
def test_walk_cycle_error_leaves_tape_unchanged(profile):
    # 0 alternates between the sink 3 and the cycle 1 <-> 2
    g = AdjacencyGraph.from_edges(4, [(0, 1), (1, 2), (2, 1), (0, 3)])
    tape = make_tape(dag_tape_bits(g, 0.5), profile, 3)
    before = tape.digest()
    meter = WorkspaceMeter()
    with pytest.raises(WalkCycleError):
        estimate_dag(g, 0, 3, 0.5, tape, meter=meter)
    assert tape.digest() == before
    assert meter.bits_in_use == 0
    regs = WalkRegisters(tape, 0, g.n, 2)
    for _ in range(2):
        before = tape.digest()
        try:
            walk_once(g, 0, FWD, regs)
        except WalkCycleError:
            break
    else:
        pytest.fail("no walk entered the cycle")
    assert tape.digest() == before
    assert regs.touched_bits <= 2  # only the completed walk's register


def _batches(run, g, log, s, K, width, init):
    """FWD then REV batches of K walks; everything the walks change or read."""
    values = list(init)
    counters = VisitCounters.for_graph(g)
    touched: set = set()
    steps = StepCounter()
    log.log.clear()
    ends = run(g, s, FWD, K, values, width, counters, touched, steps)
    after_fwd = list(values)
    run(g, s, REV, K, values, width, None, touched, steps)
    return (ends, after_fwd, values, counters.visits, counters.transitions,
            touched, steps.n, list(log.log))


def _reference_batch(g, s, mode, K, values, width, counters, touched, steps):
    return dict(Counter(reference_walk(g, s, mode, values, width, counters,
                                       touched, steps) for _ in range(K)))


def _graph_with_sinks(rng, n):
    sinks = set(rng.sample(range(n), rng.randint(1, max(1, n // 3))))
    edges = [(u, v) for u in range(n) for v in range(n)
             if u not in sinks and u != v and rng.random() < 0.4]
    return AdjacencyGraph.from_edges(n, edges)


def test_walk_kernel_matches_reference_walks():
    # end vertices, registers, counters, touched set, steps and the exact
    # sequence of out-edge queries, against one reference walk at a time
    rng = random.Random(11)
    cases = []
    for _ in range(40):
        log = LoggingGraph(random_dag(rng, rng.randint(2, 12)))
        cases.append((log, log, rng.randrange(log.n)))
    for T in (0, 1, 5):
        for loops in (True, False):
            for _ in range(12):
                g = _graph_with_sinks(rng, rng.randint(2, 8))
                log = LoggingGraph(with_sink_loops(g) if loops else g)
                lift = LayeredLiftView(log, T)
                s = lift.encode(rng.randrange(T + 1), rng.randrange(g.n))
                cases.append((lift, log, s))
    lifted_steps = 0
    for g, log, s in cases:
        width = rng.randint(1, 5)
        K = rng.randint(1, 40)
        init = [rng.randrange(1 << width) for _ in range(g.n)]
        got = _batches(_rotor_walks, g, log, s, K, width, init)
        want = _batches(_reference_batch, g, log, s, K, width, init)
        assert got == want, (g.n, s, K, width)
        assert got[2] == init
        if g is not log:
            lifted_steps += got[6]
    assert lifted_steps > 0


_SWEEP_GRAPH = AdjacencyGraph.from_edges(
    4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (2, 0)])
_SWEEP_DAG = AdjacencyGraph.from_edges(4, [(0, 1), (1, 2), (2, 3), (0, 2)])


def _walk_fault_drivers():
    return {
        "dag": (dag_tape_bits(_SWEEP_DAG, 0.5),
                lambda tape, meter: estimate_dag(_SWEEP_DAG, 0, 3, 0.5, tape,
                                                 meter=meter)),
        "general": (general_tape_bits(_SWEEP_GRAPH, 2, 0.5),
                    lambda tape, meter: estimate_general(_SWEEP_GRAPH, 0, 3, 2, 0.5,
                                                         tape, meter=meter)),
        "stationary": (stationary_tape_bits(_SWEEP_GRAPH),
                       lambda tape, meter: estimate_stationary(
                           _SWEEP_GRAPH, 0, 2, 0.5, tape, restore=True, meter=meter)),
    }


def _walk_fault_cases():
    drivers = _walk_fault_drivers()
    targets = {
        "write_bits": (CatalyticTape, "write_bits"),
        "charge": (WorkspaceMeter, "charge"),
    }
    return [pytest.param(drivers[d], targets[t], id=f"{d}-{t}")
            for d in drivers for t in targets]


@pytest.mark.parametrize("driver, target", _walk_fault_cases())
def test_walk_fault_at_every_write_and_charge_restores_tape(driver, target):
    bits, run = driver
    tape = make_tape(bits, "random", 1)
    before = tape.digest()
    with fail_at(*target, None) as counter:
        res = run(tape, WorkspaceMeter())
    assert res.metrics.tape_restored
    assert counter.calls > 0
    for k in range(counter.calls):
        meter = WorkspaceMeter()
        with fail_at(*target, k), pytest.raises(InjectedFault):
            run(tape, meter)
        assert tape.digest() == before, k
        assert meter.bits_in_use == 0, k


@pytest.mark.parametrize("driver", _walk_fault_drivers().values(),
                         ids=list(_walk_fault_drivers()))
def test_every_walk_tape_write_goes_through_write_bits(driver):
    # the walk sweep cuts tape writes at `write_bits`; a write that reached
    # the buffer another way would escape it
    buffer_sets, writes = buffer_and_write_bits_counts(*driver)
    assert buffer_sets == writes > 0


@pytest.mark.parametrize("restore", [True, False])
def test_stationary_reads_its_rotor_span_once(restore):
    tape = make_tape(stationary_tape_bits(_SWEEP_GRAPH), "random", 1)
    with fail_at(CatalyticTape, "read_bits", None) as reads, \
            fail_at(CatalyticTape, "write_bits", None) as writes:
        estimate_stationary(_SWEEP_GRAPH, 0, 2, 0.5, tape, restore=restore)
    # one read at entry, one whole-span write-back, then the restore
    assert reads.calls == 1
    assert writes.calls == (2 if restore else 1)


def test_simulation_count_and_width():
    assert simulation_count(12, 0.1) == 240
    assert simulation_count(0, 0.5) == 1  # eps >= 2m clamps K to 1
    assert register_width(1) == 1
    assert register_width(5) == 3
    for eps in (0.0, -0.1, math.inf, math.nan):
        with pytest.raises(ValueError, match="eps"):
            simulation_count(12, eps)
    # 2m/eps past the float range is an input error, not an OverflowError
    with pytest.raises(ValueError, match="eps"):
        simulation_count(3, 1e-320)


def test_estimate_dag_start_at_sink():
    g = AdjacencyGraph.from_edges(2, [(0, 1)])
    res = estimate_dag(g, 1, 1, 0.5)
    assert res.rho == 1.0


def test_estimate_dag_requires_sink_target():
    g = AdjacencyGraph.from_edges(2, [(0, 1)])
    with pytest.raises(SinkVertexError):
        estimate_dag(g, 0, 0, 0.5)


def test_estimate_dag_figure_probability():
    g = figure_dag()
    for sink, p in ((6, 0.5), (7, 0.5)):
        res = estimate_dag(g, 0, sink, 0.1, make_tape(dag_tape_bits(g, 0.1), "random", sink))
        assert abs(res.rho - p) <= 0.1
        assert res.metrics.tape_restored


def test_estimate_dag_accuracy_and_error_bound():
    rng = random.Random(1)
    for trial in range(12):
        g = random_dag(rng, rng.randint(3, 25))
        sinks = [v for v in range(g.n) if g.outdeg(v) == 0]
        s = rng.randrange(g.n)
        t = sinks[rng.randrange(len(sinks))]
        eps = rng.choice((0.1, 0.05))
        tape = make_tape(dag_tape_bits(g, eps), TAPE_PROFILES[trial % 3], trial)
        before = tape.digest()
        res = estimate_dag(g, s, t, eps, tape, collect=True)
        p = float(dag_reach_probabilities(g, s)[t])
        assert abs(res.rho - p) <= eps
        assert abs(res.n_reach - res.walks * p) <= 2 * g.m
        assert tape.digest() == before


def test_estimate_dag_fairness_bound():
    rng = random.Random(2)
    for trial in range(8):
        g = random_dag(rng, rng.randint(3, 20))
        sinks = [v for v in range(g.n) if g.outdeg(v) == 0]
        res = estimate_dag(g, 0, sinks[0], 0.2, collect=True)
        for v in range(g.n):
            tr = res.counters.transitions[v]
            if tr:
                assert max(tr) - min(tr) <= 2


def test_estimate_dag_flow_conservation():
    # every non-start visit arrives along a counted transition
    rng = random.Random(3)
    for trial in range(8):
        g = random_dag(rng, rng.randint(3, 15))
        sinks = [v for v in range(g.n) if g.outdeg(v) == 0]
        s = trial % g.n
        res = estimate_dag(g, s, sinks[0], 0.2, collect=True)
        c = res.counters
        arrivals = [0] * g.n
        for u in range(g.n):
            for r in range(g.outdeg(u)):
                arrivals[g.outnbr(u, r)] += c.transitions[u][r]
        for v in range(g.n):
            if v == s:
                assert c.visits[v] == res.walks + arrivals[v]
            else:
                assert c.visits[v] == arrivals[v]


@pytest.mark.parametrize("k", [0, 1, 2, 5, 50])
def test_repeated_walks_reverse_in_bulk(k):
    rng = random.Random(40 + k)
    g = random_dag(rng, 12)
    width = register_width(max(k, 1))
    tape = make_tape(g.n * width, "random", k)
    regs = WalkRegisters(tape, 0, g.n, width)
    before = tape.digest()
    values = regs.load()
    for _ in range(k):
        _rotor_walks(g, 0, FWD, 1, values, width, None, None, None)
    for _ in range(k):
        _rotor_walks(g, 0, REV, 1, values, width, None, None, None)
    regs.write_block(0, values)
    assert tape.digest() == before


def test_collect_counters_accessor():
    g = AdjacencyGraph.from_edges(2, [(0, 1)])
    res = estimate_dag(g, 0, 1, 0.5, collect=True)
    assert collect_counters(res).n_reach == res.n_reach
    bare = estimate_dag(g, 0, 1, 0.5)
    with pytest.raises(ValueError):
        collect_counters(bare)


def test_counters_zero_when_no_walks_recorded():
    g = AdjacencyGraph.from_edges(2, [(0, 1)])
    c = VisitCounters.for_graph(g)
    assert c.visits == [0, 0] and c.n_reach == 0


# --- general graphs -----------------------------------------------------------


def test_general_self_loop_stays_put():
    g = AdjacencyGraph.from_edges(1, [(0, 0)])
    for T in (0, 1, 5):
        res = estimate_general(g, 0, 0, T, 0.25)
        assert res.rho == 1.0


def test_general_two_cycle_deterministic_step():
    g = AdjacencyGraph.from_edges(2, [(0, 1), (1, 0)])
    res = estimate_general(g, 0, 1, 1, 0.1)
    assert res.rho >= 0.9


def test_general_matches_matrix_powers():
    rng = random.Random(4)
    for trial in range(10):
        g = out_regular_graph(rng, rng.randint(3, 10), 2)
        T = rng.randint(0, 6)
        s, t = rng.randrange(g.n), rng.randrange(g.n)
        eps = 0.05
        tape = make_tape(general_tape_bits(g, T, eps), TAPE_PROFILES[trial % 3], trial)
        res = estimate_general(g, s, t, T, eps, tape)
        exact = float(walk_distribution(g, s, T)[t])
        assert abs(res.rho - exact) <= eps
        assert res.metrics.tape_restored


def test_general_normalizes_sinks():
    g = AdjacencyGraph.from_edges(3, [(0, 1), (1, 2)])  # 2 is a sink
    res = estimate_general(g, 0, 2, 4, 0.2)
    assert res.rho == 1.0
    assert any(n.startswith("sink-self-loops") for n in res.metrics.normalizations)


def test_general_reduces_exactly_to_dag_run():
    rng = random.Random(5)
    g = out_regular_graph(rng, 6, 2)
    T, eps = 4, 0.1
    bits = general_tape_bits(g, T, eps)
    tape_a = make_tape(bits, "random", 77)
    tape_b = make_tape(bits, "random", 77)
    res = estimate_general(g, 0, 3, T, eps, tape_a, collect=True)
    lift = LayeredLiftView(g, T)
    manual = estimate_dag(
        lift, lift.encode(0, 0), lift.encode(T, 3), eps, tape_b, collect=True
    )
    assert res.rho == manual.rho
    assert res.dag.counters.visits == manual.counters.visits
    assert res.dag.counters.transitions == manual.counters.transitions


# --- stationary walk ----------------------------------------------------------


def test_walk_length_formula():
    assert walk_length(4, 4, 0.05) == 480
    assert walk_length(1, 0, 0.5) == 4
    for delta in (0.0, -0.1, math.inf, math.nan):
        with pytest.raises(ValueError, match="delta"):
            walk_length(4, 4, delta)
    # T*(m+2)/delta past the float range is an input error, not an OverflowError
    with pytest.raises(ValueError, match="delta"):
        walk_length(3, 4, 1e-320)
    with pytest.raises(ValueError, match="mixing time"):
        walk_length(10**310, 4, 0.1)


def test_negative_mixing_time_is_rejected():
    with pytest.raises(ValueError, match="mixing time"):
        walk_length(-5, 4, 0.1)
    g = AdjacencyGraph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    with pytest.raises(ValueError, match="mixing time"):
        estimate_stationary(g, 0, -5, 0.1)
    assert estimate_stationary(g, 0, 0, 0.1).t_prime == 1


def test_stationary_four_cycle():
    g = AdjacencyGraph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    res = estimate_stationary(g, 0, 4, 0.05)
    assert 0.2 <= res.rho <= 0.3
    assert res.t_prime == walk_length(4, 4, 0.05)
    assert res.metrics.tape_restored
    assert res.metrics.extra["in_band_irreversible"] is True


def test_stationary_self_loop_singleton():
    g = AdjacencyGraph.from_edges(1, [(0, 0)])
    assert estimate_stationary(g, 0, 1, 0.2).rho == 1.0


def test_stationary_rejects_sinks():
    g = AdjacencyGraph.from_edges(2, [(0, 1)])
    with pytest.raises(SinkVertexError):
        estimate_stationary(g, 0, 2, 0.1)


@pytest.mark.parametrize("start", [-1, 3])
def test_stationary_rejects_start_out_of_range(start):
    # -1 must not wrap to vertex n-1, whose rotor would then count twice
    g = AdjacencyGraph.from_edges(3, [(0, 1), (1, 2), (2, 0)])
    tape = make_tape(stationary_tape_bits(g), "random", 0)
    before = tape.digest()
    with pytest.raises(ValueError, match="start"):
        estimate_stationary(g, 0, 2, 0.5, tape, start=start)
    assert tape.digest() == before


def test_stationary_accuracy_vs_power_iteration():
    rng = random.Random(6)
    for trial in range(8):
        g = ergodic_graph(rng, rng.randint(3, 10), extra=2)
        pi = stationary_exact(g)
        T = 24
        eps_meas = mixing_error(g, T, pi)
        v_star = rng.randrange(g.n)
        delta = rng.choice((0.1, 0.05))
        tape = make_tape(stationary_tape_bits(g), TAPE_PROFILES[trial % 3], trial)
        res = estimate_stationary(g, v_star, T, delta, tape)
        assert abs(res.rho - pi[v_star]) <= eps_meas + delta
        assert res.metrics.tape_restored


def test_stationary_visit_vector_near_fixed_point():
    import numpy as np

    rng = random.Random(7)
    g = ergodic_graph(rng, 8, extra=2)
    T, delta = 16, 0.1
    res = estimate_stationary(g, 0, T, delta, collect=True)
    c = np.array(res.visit_counts, dtype=float) / res.t_prime
    W = walk_matrix(g)
    WT = np.linalg.matrix_power(W, T)
    assert np.abs(c - WT @ c).sum() <= delta


def test_stationary_without_restore_reports_honestly():
    g = AdjacencyGraph.from_edges(3, [(0, 1), (1, 2), (2, 0), (0, 0)])
    tape = make_tape(stationary_tape_bits(g), "ones", 1)
    rot = RotorRegisters(tape, g)
    before = rot.snapshot_spans()
    res = estimate_stationary(g, 0, 3, 0.2, tape, restore=False)
    after = rot.snapshot_spans()
    assert res.metrics.tape_restored == (after == before)


def test_stationary_without_restore_leaves_unvisited_rotors_alone():
    # vertex 2 is unreachable from 0; its rotor span must stay bit-identical
    g = AdjacencyGraph.from_edges(3, [(0, 1), (1, 0), (0, 0), (2, 0), (2, 2)])
    tape = make_tape(stationary_tape_bits(g), "ones", 2)
    rot = RotorRegisters(tape, g)
    before = rot.snapshot_spans()
    res = estimate_stationary(g, 0, 2, 0.2, tape, start=0, restore=False)
    after = rot.snapshot_spans()
    assert after[2] == before[2]
    assert res.metrics.catalytic_bits <= rot.widths[0] + rot.widths[1]


def _ergodic_mixed_width_graph(rng):
    # a cycle and a self-loop keep it ergodic; 0-15 extra edges per vertex
    # give out-degrees up to 16, so rotor widths run from 1 to 4 bits
    n = rng.randint(2, 17)
    edges = {(v, (v + 1) % n) for v in range(n)} | {(0, 0)}
    for u in range(n):
        edges.update((u, v) for v in rng.sample(range(n), rng.randint(0, min(15, n))))
    return AdjacencyGraph.from_edges(n, sorted(edges))


def test_stationary_matches_reference_walk():
    rng = random.Random(23)
    widths = set()
    for profile in TAPE_PROFILES:
        for restore in (True, False):
            for collect in (True, False):
                for trial in range(4):
                    g = _ergodic_mixed_width_graph(rng)
                    widths.update(rotor_widths(g))
                    v_star, start = rng.randrange(g.n), rng.randrange(g.n)
                    T, delta = rng.randint(0, 6), rng.choice((0.5, 0.2, 0.1))
                    seed = rng.randrange(1 << 16)
                    tape = make_tape(stationary_tape_bits(g), profile, seed)
                    ref = make_tape(stationary_tape_bits(g), profile, seed)
                    res = estimate_stationary(g, v_star, T, delta, tape, start=start,
                                              restore=restore, collect=collect)
                    want = reference_stationary(g, v_star, T, delta, ref, start=start,
                                                restore=restore, collect=collect)
                    got = dict(rho=res.rho, t_prime=res.t_prime,
                               visit_counts=res.visit_counts,
                               final_rotors=res.final_rotors,
                               elapsed_steps=res.metrics.elapsed_steps,
                               catalytic_bits=res.metrics.catalytic_bits,
                               tape_restored=res.metrics.tape_restored)
                    case = (profile, restore, collect, trial)
                    assert got == want, case
                    assert tape.snapshot() == ref.snapshot(), case
    assert widths == {1, 2, 3, 4}

def _mixed_width_graph(rng, shift, n=17):
    # every out-degree 1..16 occurs, so rotor widths run from 1 to 4 bits
    edges = []
    for u in range(n):
        d = 1 + (5 * u + shift) % 16
        edges.extend((u, v) for v in rng.sample(range(n), d))
    return AdjacencyGraph.from_edges(n, edges)


def _rotor_spans(tape, rot, base):
    out, off = [], base
    for w in rot.widths:
        out.append(tape.read_bits(off, w))
        off += w
    return out


def test_rotor_registers_move_one_span_at_unaligned_base():
    rng = random.Random(13)
    for trial in range(6):
        g = _mixed_width_graph(rng, trial)
        base = 3 + 2 * trial
        tape = make_tape(base + stationary_tape_bits(g) + 13, "random", trial)
        rot = RotorRegisters(tape, g, base)
        assert set(rot.widths) == {1, 2, 3, 4}
        raw = _rotor_spans(tape, rot, base)
        assert rot.snapshot_spans() == raw
        assert rot.load() == [x % g.outdeg(v) for v, x in enumerate(raw)]
        whole = tape.read_bits(0, tape.nbits)
        outside = whole & ~(((1 << (rot.end - base)) - 1) << base)
        values = [rng.randrange(1 << w) for w in rot.widths]
        rot.flush(values)
        assert _rotor_spans(tape, rot, base) == values
        after = tape.read_bits(0, tape.nbits)
        assert after & ~(((1 << (rot.end - base)) - 1) << base) == outside
        with pytest.raises(ValueError):
            rot.flush([1 << w for w in rot.widths])
        assert tape.read_bits(0, tape.nbits) == after
        rot.restore_spans(raw)
        assert tape.read_bits(0, tape.nbits) == whole


def test_rotor_state_collision_demonstrates_information_loss():
    # two 2-cycles funnelling into a sink: distinct rotor initializations
    # finish in identical register states, so no reverse pass can recover them
    g = AdjacencyGraph.from_edges(5, [(0, 1), (1, 0), (0, 2), (2, 3), (3, 2), (2, 4)])

    def run(r_fork, r_mid):
        tape = CatalyticTape.zeros(stationary_tape_bits(g))
        rot = RotorRegisters(tape, g)
        vals = rot.load()
        vals[0], vals[2] = r_fork, r_mid
        v = 0
        for _ in range(4):
            r = vals[v]
            vals[v] = (vals[v] + 1) % g.outdeg(v)
            v = g.outnbr(v, r)
        rot.flush(vals)
        return v, rot.load()

    end_a, final_a = run(0, 1)
    end_b, final_b = run(1, 0)
    assert end_a == end_b == 4
    assert final_a == final_b
