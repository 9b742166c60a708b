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
from collections import Counter
from itertools import repeat

from . import connectivity, walks
from .errors import CatgraphError, GraphFormatError
from .graphs import is_acyclic, read_graph_file
from .metrics import RunMetrics
from .tape import make_tape

EXIT_OK = 0
EXIT_VERIFY_MISMATCH = 1
EXIT_INPUT_ERROR = 2
EXIT_ABORT = 3


def _fallback_seed() -> int:
    value = os.environ.get("CATGRAPH_SEED", "0")
    try:
        return int(value)
    except ValueError:
        raise ValueError(f"CATGRAPH_SEED must be an integer, got {value!r}") from None


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


def _emit(args, metrics: RunMetrics, trial_seed: int | None) -> None:
    if args.json or args.stable_json:
        payload = metrics.to_dict(stable=args.stable_json)
        payload["command"] = args.command
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


def _trial(args, g, k: int):
    """Run trial k of the command on g with a fresh tape; returns the driver's result.

    Each tape is sized by its driver's own `*_tape_bits`; the drivers check
    the vertex ids and their parameters.
    """
    rng_seed = args.rng_seed + k

    def tape(nbits: int):
        return make_tape(nbits, args.tape_profile, args.tape_seed + k)

    if args.command == "connect":
        if args.algo == "det":
            return connectivity.connect_det(
                g, args.s, args.t, tape=tape(connectivity.connect_det_tape_bits(g.n)))
        if args.algo == "rand":
            return connectivity.connect_rand(
                g, args.s, args.t, seed=rng_seed, kappa=args.kappa,
                tape=tape(connectivity.connect_rand_tape_bits(g.n)))
        return connectivity.connect_revertible(
            g, args.s, args.t, seed=rng_seed, kappa=args.kappa,
            tape=tape(connectivity.connect_revertible_tape_bits(g)))
    if args.command == "stationary":
        return walks.estimate_stationary(g, args.v_star, args.mix_time, args.delta,
                                         tape(walks.stationary_tape_bits(g)))
    if args.dag:
        return walks.estimate_dag(g, args.s, args.t, args.eps,
                                  tape(walks.dag_tape_bits(g, args.eps)))
    return walks.estimate_general(g, args.s, args.t, args.steps, args.eps,
                                  tape(walks.general_tape_bits(g, args.steps, args.eps)))


def _report(args, g, results) -> int:
    """Emit every trial and, for --trials > 1, the aggregate; return the exit code."""
    many = args.trials > 1
    first_seed = args.rng_seed if args.command == "connect" else args.tape_seed
    for k, res in enumerate(results):
        _emit(args, res.metrics, first_seed + k if many else None)
    if many:
        summary = {"schema": 1, "command": f"{args.command}-aggregate", "trials": args.trials}
        if args.command == "connect":
            counts = dict(Counter(res.verdict for res in results))
            summary["verdicts"] = counts
            text = f"aggregate: {counts}"
        else:
            mean = sum(res.rho for res in results) / len(results)
            summary["mean_estimate"] = mean
            text = f"aggregate: mean estimate {mean:.6f}"
        print(json.dumps(summary, sort_keys=True) if (args.json or args.stable_json)
              else text)
    if any(res.metrics.aborted for res in results):
        return EXIT_ABORT
    if not getattr(args, "verify", False):
        return EXIT_OK
    from . import oracles  # loads numpy: only --verify pays for it

    if args.command == "connect":
        want = oracles.bfs_reach(g)[args.s][args.t]
        for res in results:
            if (res.verdict == connectivity.VERDICT_PATH) != want:
                print(f"verification mismatch: verdict={res.verdict}, bfs={want}",
                      file=sys.stderr)
                return EXIT_VERIFY_MISMATCH
        return EXIT_OK
    if args.dag:
        expected = float(oracles.dag_reach_probabilities(g, args.s)[args.t])
    else:
        expected = float(oracles.walk_distribution(walks.with_sink_loops(g),
                                                   args.s, args.steps)[args.t])
    for res in results:
        if abs(res.rho - expected) > args.eps:
            print(f"verification mismatch: estimate={res.rho}, exact={expected}, "
                  f"eps={args.eps}", file=sys.stderr)
            return EXIT_VERIFY_MISMATCH
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.trials < 1:
            raise ValueError(f"--trials must be at least 1, got {args.trials}")
        if args.rng_seed is None:
            args.rng_seed = _fallback_seed()
        if args.tape_seed is None:
            args.tape_seed = args.rng_seed + 1
        g = read_graph_file(args.graph)
        if args.command == "walk":
            if args.dag:
                if not is_acyclic(g):
                    raise GraphFormatError("--dag requires an acyclic input graph")
            elif args.steps is None:
                raise GraphFormatError("--steps is required without --dag")
            elif args.steps < 0:
                raise GraphFormatError("--steps must be nonnegative")
        trials = range(args.trials)
        if getattr(args, "parallel", False) and args.trials > 1:
            # concurrent.futures.process takes about 20 ms to import: only
            # --parallel pays for it
            from concurrent.futures import ProcessPoolExecutor

            with ProcessPoolExecutor() as pool:
                results = list(pool.map(_trial, repeat(args), repeat(g), trials))
        else:
            results = [_trial(args, g, k) for k in trials]
        return _report(args, g, results)
    except (CatgraphError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT_ERROR


if __name__ == "__main__":
    sys.exit(main())
