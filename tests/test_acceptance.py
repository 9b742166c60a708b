"""Acceptance suite: one test per criterion, at the stated sizes and
tolerances. Each test prints a single pass line (visible with pytest -s);
shared sweeps are module-scoped fixtures so criteria that inspect the same
runs do not repeat them.
"""

import math
import random

import pytest

from catgraph.budget import WORKSPACE_LOG_FACTOR, workspace_budget_bits
from catgraph.connectivity import (
    connect_det,
    connect_det_tape_bits,
    connect_rand,
    connect_rand_tape_bits,
    connect_revertible,
    connect_revertible_tape_bits,
    st_count_mod,
)
from catgraph.graphs import (
    AdjacencyGraph,
    enumerate_nonisolated,
    lift_layered,
    reduce_degree,
    with_sink_loops,
)
from catgraph.oracles import (
    bfs_reach,
    count_paths,
    dag_reach_probabilities,
    mixing_error,
    rotor_route_dag,
    stationary_exact,
    walk_distribution,
)
from catgraph.tape import CatalyticTape, allocate_registers, make_tape
from catgraph.walks import (
    FWD,
    REV,
    RotorRegisters,
    WalkRegisters,
    _walk,
    dag_tape_bits,
    estimate_dag,
    estimate_general,
    estimate_stationary,
    general_tape_bits,
    register_width,
    simulation_count,
    stationary_tape_bits,
)

from helpers import (
    TAPE_PROFILES,
    counting_pool,
    enumerate_digraphs,
    ergodic_graph,
    out_regular_graph,
    random_dag,
    random_graph,
)


def report(num: int, text: str) -> None:
    print(f"[criterion {num:02d}] PASS - {text}")


# --- criteria 1 + 2: deterministic exactness and restoration -------------------


@pytest.fixture(scope="module")
def det_sweep():
    rng = random.Random(101)
    mismatches = []
    restoration_failures = []
    runs = 0

    def drive(g, tape):
        nonlocal runs
        reach = bfs_reach(g)
        for s in range(g.n):
            for t in range(g.n):
                ans = connect_det(g, s, t, tape=tape)
                runs += 1
                if (ans.verdict == "path") != reach[s][t]:
                    mismatches.append((g.n, list(g.edges()), s, t))
                if not ans.metrics.tape_restored:
                    restoration_failures.append((g.n, list(g.edges()), s, t))

    for profile in TAPE_PROFILES:
        tapes = {
            n: make_tape(max(connect_det_tape_bits(n), 1), profile, seed=11 + n)
            for n in range(1, 9)
        }
        for n in range(1, 5):
            for g in enumerate_digraphs(n):
                drive(g, tapes[n])
        for k in range(500):
            n = rng.randint(2, 8)
            g = random_graph(rng, n, p=rng.choice((0.15, 0.3, 0.5)))
            drive(g, tapes[n])
    return {"mismatches": mismatches, "restores": restoration_failures, "runs": runs}


def test_criterion_01_deterministic_exactness(det_sweep):
    assert det_sweep["mismatches"] == []
    report(1, f"connect_det matched BFS on {det_sweep['runs']} runs "
              "(exhaustive n<=4 plus 500 random n<=8, all pairs, 3 tape profiles)")


def test_criterion_02_catalytic_restoration(det_sweep):
    assert det_sweep["restores"] == []
    report(2, f"tape digest restored on all {det_sweep['runs']} runs "
              "across zeros/ones/random tapes")


# --- criterion 3: modular path counting ----------------------------------------


def test_criterion_03_modular_path_counting():
    rng = random.Random(301)
    checked = 0
    for g in counting_pool(per_n=25, max_n=6):
        for T in range(5):
            oracle_cache = {}
            for _ in range(20):
                q = rng.randint(3, 1 << 12)
                s, t = rng.randrange(g.n), rng.randrange(g.n)
                width = max(q.bit_length() + 4, 6)
                tape = make_tape(
                    (T + 1) * g.n * width, rng.choice(TAPE_PROFILES), rng.getrandbits(32)
                )
                file = allocate_registers(tape, 0, (T + 1) * g.n, width, q)
                for i in range(file.count):
                    file.write(i, file.read(i) % file._limit)
                before = tape.digest()
                got = st_count_mod(g, s, t, T, q, file)
                assert tape.digest() == before
                if s not in oracle_cache:
                    oracle_cache[s] = count_paths(g, s, T)
                assert got == oracle_cache[s][t] % q
                checked += 1
    report(3, f"st_count_mod equals big-integer DP mod q on {checked} "
              "(graph, T, q, tape) combinations")


# --- criterion 4: randomized soundness / completeness / abort rate -------------


def test_criterion_04_randomized_connectivity():
    rng = random.Random(401)
    trials = 10_000
    false_positives = 0
    path_trials = 0
    true_positives = 0
    aborts = 0
    tapes = {
        n: make_tape(connect_rand_tape_bits(n), "random", seed=900 + n)
        for n in range(4, 11)
    }
    for k in range(trials):
        n = rng.randint(4, 10)
        g = random_graph(rng, n, p=rng.choice((0.15, 0.3, 0.5)))
        s = rng.randrange(n)
        t = (s + rng.randrange(1, n)) % n
        reachable = bfs_reach(g)[s][t]
        ans = connect_rand(g, s, t, seed=k, tape=tapes[n])
        assert ans.metrics.tape_restored, "restoration failed"
        if ans.verdict == "abort":
            aborts += 1
            continue
        if ans.verdict == "path" and not reachable:
            false_positives += 1
        if reachable:
            path_trials += 1
            true_positives += ans.verdict == "path"
    assert false_positives == 0
    assert path_trials > 0
    tp_rate = true_positives / path_trials
    assert tp_rate >= 0.5
    assert aborts / trials <= 0.01
    report(4, f"{trials} trials: 0 false positives, true-positive rate "
              f"{tp_rate:.3f} (>= 0.5), abort rate {aborts / trials:.4f} (<= 0.01)")


# --- criterion 5: local revertibility -------------------------------------------


def test_criterion_05_local_revertibility():
    rng = random.Random(501)
    total_queries = 0
    graphs = 0
    while graphs < 200:
        n = rng.randint(2, 8)
        g = random_graph(rng, n, p=rng.choice((0.2, 0.4, 0.6)))
        s = rng.randrange(n)
        t = (s + rng.randrange(1, n)) % n
        bits = connect_revertible_tape_bits(g)
        tape = make_tape(bits, TAPE_PROFILES[graphs % 3], seed=graphs)
        snap = tape.snapshot()
        before = tape.digest()
        bad = []
        queried = 0

        def hook(point, query):
            nonlocal queried
            if rng.random() < 0.05 and queried < 10:
                for _ in range(2):
                    idx = rng.randrange(bits)
                    got = query(idx)
                    want = (snap[idx >> 3] >> (idx & 7)) & 1
                    queried += 1
                    if got != want:
                        bad.append((point.stage, idx))

        ans = connect_revertible(g, s, t, seed=graphs, tape=tape, pause_hook=hook)
        assert bad == [], bad[:4]
        assert (ans.verdict == "path") == bfs_reach(g)[s][t]
        assert ans.metrics.tape_restored and tape.digest() == before
        total_queries += queried
        graphs += 1
    assert total_queries >= 1000
    report(5, f"200 graphs, {total_queries} interleaved original-bit queries, "
              "all matched the pre-run snapshot; verdicts and restoration unaffected")


# --- criterion 6: degree reduction ----------------------------------------------


def test_criterion_06_degree_reduction():
    rng = random.Random(601)
    for k in range(200):
        n = rng.randint(2, 8)
        g = random_graph(rng, n, p=rng.choice((0.2, 0.5, 0.8)))
        view = reduce_degree(g)
        assert max(view.indeg(vid) for vid in range(view.n)) <= 2
        base_reach = bfs_reach(g)
        view_reach = bfs_reach(view)
        for s in range(n):
            for t in range(n):
                assert view_reach[s][t] == base_reach[s][t]
        assert len(list(enumerate_nonisolated(view))) <= 2 * g.m + n
    report(6, "200 random graphs: in-degree <= 2, reachability preserved on [n], "
              "non-isolated count <= 2m + n")


# --- criteria 7 + 8: DAG walk accuracy, fairness, reversibility -----------------


@pytest.fixture(scope="module")
def dag_runs():
    rng = random.Random(701)
    runs = []
    for k in range(100):
        n = rng.randint(3, 40)
        g = random_dag(rng, n)
        sinks = [v for v in range(n) if g.outdeg(v) == 0]
        s = rng.randrange(n)
        t = sinks[rng.randrange(len(sinks))]
        p_t = float(dag_reach_probabilities(g, s)[t])
        for eps in (0.1, 0.02):
            K = simulation_count(g.m, eps)
            width = register_width(K)
            for profile in TAPE_PROFILES:
                tape = make_tape(dag_tape_bits(g, eps), profile, seed=k)
                init = WalkRegisters(tape, 0, g.n, width).load()
                routed = rotor_route_dag(g, s, K, init, width)
                res = estimate_dag(g, s, t, eps, tape, collect=True)
                runs.append((g, s, t, eps, p_t, routed, res))
    return runs


def test_criterion_07_dag_walk_accuracy(dag_runs):
    for g, s, t, eps, p_t, (chips, edge_chips, _), res in dag_runs:
        assert abs(res.rho - p_t) <= eps, (g.n, s, t, eps)
        assert abs(res.n_reach - res.walks * p_t) <= 2 * g.m
        assert res.n_reach == chips[t]
        assert res.counters.visits == chips
        assert res.counters.transitions == edge_chips
        assert res.metrics.tape_restored
    report(7, f"{len(dag_runs)} runs (100 DAGs x eps in {{0.1, 0.02}} x 3 tape "
              "profiles): |rho - p| <= eps and |N_t - K p| <= 2m; N_t, visits "
              "and transitions equal the rotor-routing oracle")


def test_criterion_08_fairness_and_reversibility(dag_runs):
    for g, _s, _t, _eps, _p, _routed, res in dag_runs:
        for v in range(g.n):
            tr = res.counters.transitions[v]
            if tr:
                assert max(tr) - min(tr) <= 2, (g.n, v, tr)
    rng = random.Random(801)
    for K in (0, 1, 2, 5, 50):
        for trial in range(4):
            g = random_dag(rng, rng.randint(2, 12))
            width = register_width(max(K, 1))
            tape = make_tape(g.n * width, TAPE_PROFILES[trial % 3], seed=trial)
            regs = WalkRegisters(tape, 0, g.n, width)
            before = tape.digest()
            values = regs.load()
            for _ in range(K):
                _walk(g, 0, FWD, values, width, None, None, None)
            for _ in range(K):
                _walk(g, 0, REV, values, width, None, None, None)
            regs.flush(values)
            assert tape.digest() == before, (K, trial)
    report(8, "per-vertex transition counts differ by <= 2 on every forward run; "
              "K forward + K reverse leave the register digest unchanged for "
              "K in {0, 1, 2, 5, 50}")


# --- criterion 9: general-graph walk --------------------------------------------


def test_criterion_09_general_walk():
    rng = random.Random(901)
    eps = 0.05
    for k in range(100):
        n = rng.randint(3, 20)
        g = out_regular_graph(rng, n, min(rng.choice((2, 3)), n - 1))
        T = rng.randint(0, 10)
        s, t = rng.randrange(n), rng.randrange(n)
        tape = make_tape(general_tape_bits(g, T, eps), TAPE_PROFILES[k % 3], seed=k)
        lift = lift_layered(with_sink_loops(g), T)
        K = simulation_count(lift.edge_count(), eps)
        width = register_width(K)
        init = WalkRegisters(tape, 0, lift.n, width).load()
        chips, edge_chips, _ = rotor_route_dag(lift, lift.encode(0, s), K, init, width)
        res = estimate_general(g, s, t, T, eps, tape, collect=True)
        exact = float(walk_distribution(g, s, T)[t])
        assert abs(res.rho - exact) <= eps, (n, T, s, t)
        assert res.dag.n_reach == chips[lift.encode(T, t)]
        assert res.dag.counters.visits == chips
        assert res.dag.counters.transitions == edge_chips
        assert res.metrics.tape_restored
    report(9, "100 out-regular graphs (n <= 20, T <= 10): "
              "|rho - matrix-power probability| <= 0.05, and N_t, visits and "
              "transitions equal the rotor-routing oracle on the lift, 0 failures")


# --- criterion 10: stationary walk ----------------------------------------------


def _pick_mixing_time(g, pi):
    for T in (8, 16, 32, 64, 128):
        if mixing_error(g, T, pi) <= 0.3:
            return T
    return 128


def test_criterion_10_stationary_walk():
    import numpy as np

    from catgraph.oracles import walk_matrix

    cases = [AdjacencyGraph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])]
    rng = random.Random(1001)
    while len(cases) < 51:
        cases.append(ergodic_graph(rng, rng.randint(3, 15), extra=rng.choice((1, 2))))
    for k, g in enumerate(cases):
        pi = stationary_exact(g)
        T = _pick_mixing_time(g, pi)
        eps_meas = mixing_error(g, T, pi)
        WT = np.linalg.matrix_power(walk_matrix(g), T)
        v_star = k % g.n
        for delta in (0.1, 0.02):
            tape = make_tape(stationary_tape_bits(g), TAPE_PROFILES[k % 3], seed=k)
            res = estimate_stationary(g, v_star, T, delta, tape, collect=True)
            assert abs(res.rho - pi[v_star]) <= eps_meas + delta, (k, g.n, delta)
            c = np.array(res.visit_counts, dtype=float) / res.t_prime
            assert np.abs(c - WT @ c).sum() <= delta, (k, g.n, delta)
            assert res.metrics.tape_restored

    # two distinct rotor initializations end in identical register states
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
        return vals

    assert run(0, 1) == run(1, 0)
    report(10, "51 ergodic instances x delta in {0.1, 0.02}: |rho - pi| <= "
               "eps_meas + delta; rotor-state collision demonstrates in-band "
               "information loss")


# --- criterion 11: workspace discipline ------------------------------------------


def test_criterion_11_workspace_discipline():
    rng = random.Random(1101)
    worst = 0.0

    def check(peak, n, m, T=0, eps=None):
        nonlocal worst
        budget = workspace_budget_bits(n, m, T, eps)
        inv = math.ceil(1 / eps) if eps else 0
        worst = max(worst, peak / math.log2(n + m + T + inv + 2))
        assert peak <= budget, (peak, budget)

    for n in (2, 4, 8):
        g = random_graph(rng, n, 0.5)
        a = connect_det(g, 0, n - 1, tape=make_tape(connect_det_tape_bits(n), "random", n))
        check(a.metrics.workspace_peak_bits, n, g.m, n)
    for n in (2, 6, 10, 16):
        g = random_graph(rng, n, 0.4)
        a = connect_rand(g, 0, n - 1, seed=n, tape=make_tape(connect_rand_tape_bits(n), "random", n))
        check(a.metrics.workspace_peak_bits, n, g.m, n)
    for n in (2, 5, 8):
        g = random_graph(rng, n, 0.4)
        a = connect_revertible(g, 0, n - 1, seed=n, tape=make_tape(connect_revertible_tape_bits(g), "random", n))
        check(a.metrics.workspace_peak_bits, n, g.m, n)
    for n, eps in ((5, 0.1), (20, 0.02), (40, 0.02)):
        g = random_dag(rng, n)
        sinks = [v for v in range(n) if g.outdeg(v) == 0]
        a = estimate_dag(g, 0, sinks[0], eps, make_tape(dag_tape_bits(g, eps), "random", n))
        check(a.metrics.workspace_peak_bits, n, g.m, 0, eps)
    for n, T in ((6, 4), (20, 10)):
        g = out_regular_graph(rng, n, 2)
        a = estimate_general(g, 0, 1, T, 0.05, make_tape(general_tape_bits(g, T, 0.05), "random", n))
        check(a.metrics.workspace_peak_bits, n, g.m, T, 0.05)
    for n in (4, 15):
        g = ergodic_graph(rng, n, 2)
        a = estimate_stationary(g, 0, 20, 0.02, make_tape(stationary_tape_bits(g), "random", n))
        check(a.metrics.workspace_peak_bits, n, g.m, 20, 0.02)
    report(11, f"metered peak <= {WORKSPACE_LOG_FACTOR} * log2(n+m+T+1/eps+2) "
               f"across the matrix (worst observed factor {worst:.1f})")


# --- criterion 12: scaling smoke check --------------------------------------------


def _two_camps(n, m):
    """No-path instance: two cliques, all m edges inside the camps."""
    half = n // 2
    inside = [(u, v) for u in range(half) for v in range(half) if u != v]
    inside += [(u, v) for u in range(half, n) for v in range(half, n) if u != v]
    return AdjacencyGraph.from_edges(n, inside[:m])


def test_criterion_12_scaling_smoke():
    n = 20
    steps = []
    for m in (40, 80, 160):
        g = _two_camps(n, m)
        tape = make_tape(connect_rand_tape_bits(n), "random", seed=m)
        ans = connect_rand(g, 0, n // 2, seed=1, tape=tape)
        assert ans.verdict == "no-path"
        steps.append(ans.metrics.elapsed_steps)
    growth = [b / a for a, b in zip(steps, steps[1:])]
    assert all(r < 4.0 for r in growth), steps  # subquadratic in m

    rng = random.Random(1201)
    g = out_regular_graph(rng, 12, 2)
    walk_steps = []
    for T in (2, 4, 8):
        res = estimate_general(g, 0, 1, T, 0.1)
        walk_steps.append(res.metrics.elapsed_steps)
    walk_growth = [b / a for a, b in zip(walk_steps, walk_steps[1:])]
    assert all(2.0 <= r <= 8.0 for r in walk_growth), walk_steps  # ~T^2 per doubling
    report(12, f"connect_rand steps grew by {growth} per m-doubling (< 4x); "
               f"estimate_general steps grew by {[f'{r:.2f}' for r in walk_growth]} "
               "per T-doubling (within the factor-2 band around 4x)")
