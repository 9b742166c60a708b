import random
from collections import Counter

import pytest

from catgraph.errors import SinkVertexError, WalkCycleError
from catgraph.graphs import AdjacencyGraph, lift_layered, with_sink_loops
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
    simulation_count,
    stationary_tape_bits,
    walk_length,
    walk_once,
)

from helpers import (
    TAPE_PROFILES,
    LoggingGraph,
    ergodic_graph,
    figure_dag,
    out_regular_graph,
    random_dag,
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
    regs.flush(FIGURE_INIT)
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
                lift = lift_layered(log, T)
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


def test_simulation_count_and_width():
    assert simulation_count(12, 0.1) == 240
    assert simulation_count(0, 0.5) == 1  # eps >= 2m clamps K to 1
    assert register_width(1) == 1
    assert register_width(5) == 3


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
    from catgraph.walks import _walk

    for _ in range(k):
        _walk(g, 0, FWD, values, width, None, None, None)
    for _ in range(k):
        _walk(g, 0, REV, values, width, None, None, None)
    regs.flush(values)
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
    lift = lift_layered(g, T)
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


def test_counters_json_maps():
    g = AdjacencyGraph.from_edges(2, [(0, 1)])
    res = estimate_dag(g, 0, 1, 0.5, collect=True)
    dumped = collect_counters(res).to_json_dict()
    assert dumped["visits"]["0"] == res.walks
    assert dumped["transitions"]["0:0"] == res.walks
    assert dumped["n_reach"] == res.walks
