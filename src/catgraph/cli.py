"""Command-line front end: connect / walk / stationary.

Exit codes: 0 success, 1 verification mismatch, 2 input error, 3 abort.
Runs are reproducible from (--tape-seed, --rng-seed); tape content and
algorithm randomness use independent streams. CATGRAPH_SEED is the fallback
when --rng-seed is not given.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor

from . import connectivity, oracles, walks
from .errors import CatgraphError, GraphFormatError
from .graphs import read_graph_file
from .metrics import RunMetrics
from .tape import make_tape

EXIT_OK = 0
EXIT_VERIFY_MISMATCH = 1
EXIT_INPUT_ERROR = 2
EXIT_ABORT = 3


def _fallback_seed() -> int:
    try:
        return int(os.environ.get("CATGRAPH_SEED", "0"))
    except ValueError:
        return 0


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--tape-seed", type=int, default=None,
                        help="seed for the random tape profile (default: rng seed + 1)")
    parser.add_argument("--tape-profile", choices=("random", "zeros", "ones"),
                        default="random", help="initial tape content")
    parser.add_argument("--rng-seed", type=int, default=None,
                        help="algorithm randomness seed (fallback: CATGRAPH_SEED)")
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    parser.add_argument("--stable-json", action="store_true",
                        help="like --json but with wall_time_ms zeroed for replays")
    parser.add_argument("--trials", type=int, default=1,
                        help="run N independently seeded trials")


def _seeds(args) -> tuple[int, int]:
    rng_seed = args.rng_seed if args.rng_seed is not None else _fallback_seed()
    tape_seed = args.tape_seed if args.tape_seed is not None else rng_seed + 1
    return rng_seed, tape_seed


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="catgraph",
        description="catalytic-space graph algorithms over a simulated tape",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("connect", help="s->t connectivity")
    p.add_argument("graph")
    p.add_argument("s", type=int)
    p.add_argument("t", type=int)
    p.add_argument("--algo", choices=("det", "rand", "revertible"), default="det")
    p.add_argument("--kappa", type=float, default=connectivity.DEFAULT_KAPPA,
                   help="iteration multiplier for the randomized drivers")
    p.add_argument("--verify", action="store_true",
                   help="cross-check the verdict against a BFS oracle")
    p.add_argument("--parallel", action="store_true",
                   help="run trials in separate processes")
    _add_common(p)

    p = sub.add_parser("walk", help="random-walk probability estimation")
    p.add_argument("graph")
    p.add_argument("s", type=int)
    p.add_argument("t", type=int)
    p.add_argument("--steps", type=int, default=None,
                   help="walk length T (required unless --dag)")
    p.add_argument("--eps", type=float, default=0.1, help="additive error target")
    p.add_argument("--dag", action="store_true",
                   help="treat the input as a DAG and estimate reach probability")
    p.add_argument("--verify", action="store_true",
                   help="check the estimate against the exact oracle within eps")
    _add_common(p)

    p = sub.add_parser("stationary", help="stationary probability via one long rotor walk")
    p.add_argument("graph")
    p.add_argument("v_star", type=int)
    p.add_argument("--mix-time", type=int, required=True,
                   help="assumed mixing time T of the walk")
    p.add_argument("--delta", type=float, default=0.1, help="additional error target")
    _add_common(p)

    return parser


def _emit(args, metrics: RunMetrics, command: str, trial_seed: int | None = None) -> None:
    if args.json or args.stable_json:
        payload = metrics.to_dict(stable=args.stable_json)
        payload["command"] = command
        if trial_seed is not None:
            payload["trial_seed"] = trial_seed
        print(json.dumps(payload, sort_keys=True))
    else:
        kind = "verdict" if metrics.verdict is not None else "estimate"
        value = metrics.verdict if metrics.verdict is not None else f"{metrics.estimate:.6f}"
        bits = [
            f"{kind}={value}",
            f"steps={metrics.elapsed_steps}",
            f"workspace_peak_bits={metrics.workspace_peak_bits}",
            f"catalytic_bits={metrics.catalytic_bits}",
            f"tape_restored={metrics.tape_restored}",
        ]
        if metrics.extra:
            bits += [f"{k}={v}" for k, v in sorted(metrics.extra.items())]
        print("  ".join(bits))


def _run_connect_trial(graph_path, s, t, algo, kappa, profile, tape_seed, rng_seed):
    g = read_graph_file(graph_path)
    if algo == "det":
        tape = make_tape(max(connectivity.connect_det_tape_bits(g.n), 1), profile, tape_seed)
        return connectivity.connect_det(g, s, t, tape=tape)
    if algo == "rand":
        tape = make_tape(max(connectivity.connect_rand_tape_bits(g.n), 1), profile, tape_seed)
        return connectivity.connect_rand(g, s, t, seed=rng_seed, kappa=kappa, tape=tape)
    tape = make_tape(max(connectivity.connect_revertible_tape_bits(g), 1), profile, tape_seed)
    return connectivity.connect_revertible(g, s, t, seed=rng_seed, kappa=kappa, tape=tape)


def cmd_connect(args) -> int:
    g = read_graph_file(args.graph)
    if not (0 <= args.s < g.n and 0 <= args.t < g.n):
        raise GraphFormatError(f"s={args.s}, t={args.t} out of range for n={g.n}")
    rng_seed, tape_seed = _seeds(args)
    jobs = [
        (args.graph, args.s, args.t, args.algo, args.kappa,
         args.tape_profile, tape_seed + k, rng_seed + k)
        for k in range(args.trials)
    ]
    if args.parallel and args.trials > 1:
        with ProcessPoolExecutor() as pool:
            answers = list(pool.map(_run_connect_trial, *zip(*jobs)))
    else:
        answers = [_run_connect_trial(*job) for job in jobs]
    for k, ans in enumerate(answers):
        _emit(args, ans.metrics, "connect",
              trial_seed=rng_seed + k if args.trials > 1 else None)
    if args.trials > 1:
        counts = {}
        for ans in answers:
            counts[ans.verdict] = counts.get(ans.verdict, 0) + 1
        summary = {"schema": 1, "command": "connect-aggregate", "trials": args.trials,
                   "verdicts": counts}
        print(json.dumps(summary, sort_keys=True) if (args.json or args.stable_json)
              else f"aggregate: {counts}")
    if any(ans.verdict == connectivity.VERDICT_ABORT for ans in answers):
        return EXIT_ABORT
    if args.verify:
        want = oracles.bfs_reach(g)[args.s][args.t]
        for ans in answers:
            if (ans.verdict == connectivity.VERDICT_PATH) != want:
                print(f"verification mismatch: verdict={ans.verdict}, bfs={want}",
                      file=sys.stderr)
                return EXIT_VERIFY_MISMATCH
    return EXIT_OK


def _run_walk_trial(graph_path, s, t, dag, steps, eps, profile, tape_seed):
    g = read_graph_file(graph_path)
    if dag:
        tape = make_tape(max(walks.dag_tape_bits(g, eps), 1), profile, tape_seed)
        return walks.estimate_dag(g, s, t, eps, tape)
    tape = make_tape(max(walks.general_tape_bits(g, steps, eps), 1), profile, tape_seed)
    return walks.estimate_general(g, s, t, steps, eps, tape)


def cmd_walk(args) -> int:
    g = read_graph_file(args.graph)
    if not (0 <= args.s < g.n and 0 <= args.t < g.n):
        raise GraphFormatError(f"s={args.s}, t={args.t} out of range for n={g.n}")
    if args.dag:
        if not oracles.is_acyclic(g):
            raise GraphFormatError("--dag requires an acyclic input graph")
    elif args.steps is None:
        raise GraphFormatError("--steps is required without --dag")
    elif args.steps < 0:
        raise GraphFormatError("--steps must be nonnegative")
    rng_seed, tape_seed = _seeds(args)
    results = []
    for k in range(args.trials):
        res = _run_walk_trial(args.graph, args.s, args.t, args.dag, args.steps,
                              args.eps, args.tape_profile, tape_seed + k)
        results.append(res)
        _emit(args, res.metrics, "walk",
              trial_seed=tape_seed + k if args.trials > 1 else None)
    if args.trials > 1:
        mean = sum(r.rho for r in results) / len(results)
        summary = {"schema": 1, "command": "walk-aggregate", "trials": args.trials,
                   "mean_estimate": mean}
        print(json.dumps(summary, sort_keys=True) if (args.json or args.stable_json)
              else f"aggregate: mean estimate {mean:.6f}")
    if args.verify:
        if args.dag:
            expected = float(oracles.dag_reach_probabilities(g, args.s)[args.t])
        else:
            dist = oracles.walk_distribution(walks.with_sink_loops(g), args.s, args.steps)
            expected = float(dist[args.t])
        for res in results:
            if abs(res.rho - expected) > args.eps:
                print(f"verification mismatch: estimate={res.rho}, exact={expected}, "
                      f"eps={args.eps}", file=sys.stderr)
                return EXIT_VERIFY_MISMATCH
    return EXIT_OK


def cmd_stationary(args) -> int:
    g = read_graph_file(args.graph)
    if not 0 <= args.v_star < g.n:
        raise GraphFormatError(f"v_star={args.v_star} out of range for n={g.n}")
    _rng_seed, tape_seed = _seeds(args)
    for k in range(args.trials):
        tape = make_tape(max(walks.stationary_tape_bits(g), 1), args.tape_profile,
                         tape_seed + k)
        res = walks.estimate_stationary(g, args.v_star, args.mix_time, args.delta, tape)
        _emit(args, res.metrics, "stationary",
              trial_seed=tape_seed + k if args.trials > 1 else None)
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.trials < 1:
            raise ValueError(f"--trials must be at least 1, got {args.trials}")
        if args.command == "connect":
            return cmd_connect(args)
        if args.command == "walk":
            return cmd_walk(args)
        return cmd_stationary(args)
    except (CatgraphError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
