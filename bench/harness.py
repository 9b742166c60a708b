"""One workload process: set-up, the timed closed loop, checks and records.

    python3 bench/harness.py --workload W --seed N --seconds S --mode MODE
                             [--reference FILE] [--record FILE]

MODE is `measure` (untraced; reports each instance's fastest call, for the
end-to-end metrics) or `trace` (an untraced pass, then a traced replay of
the same calls, for the per-layer metrics). `bench/run.py` starts these
processes one at a time; the last line of standard output is one JSON
object.

The loop is closed: one thread makes one driver call at a time, each after
the previous one returned. A round calls every instance of the workload
once, with the drivers interleaved; rounds repeat until `--seconds` have
passed, so every round has the same mix. Every check runs outside the timed
region, after the call.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from catgraph import connectivity, walks  # noqa: E402
from catgraph.tape import CatalyticTape, make_tape  # noqa: E402

from workloads import DRIVERS, WALK_DRIVERS, Spec, build_specs  # noqa: E402

# Fields of RunMetrics.to_dict(stable=True), plus the tape length, that are
# the model's own output: a check fails on any difference in them.
MODEL_FIELDS = ("verdict", "estimate", "elapsed_steps", "workspace_peak_bits",
                "catalytic_bits", "aborted", "tape_bits")
PROBE_BITS = 8          # seeded tape bits a revertible pause hook reads from
QUERIES_PER_PAUSE = 2   # of them, read at every pause point
MAX_SPANS = 1_000_000   # the traced replay starts no new call beyond this
TRACE_SHARE = 0.5       # share of --seconds the traced run spends replaying


class PauseProbe:
    """Revertible pause hook: at every pause point it asks `query` for the
    original value of a few seeded tape bits and logs (bit, answer)."""

    def __init__(self, bits: list[int]):
        self.bits = bits
        self.pos = 0
        self.log: list[tuple[int, int]] = []

    def reset(self) -> None:
        self.pos = 0
        self.log = []

    def __call__(self, point, query) -> None:
        for _ in range(QUERIES_PER_PAUSE):
            idx = self.bits[self.pos % len(self.bits)]
            self.pos += 1
            self.log.append((idx, query(idx)))


@dataclass
class Case:
    spec: Spec
    tape: CatalyticTape
    pristine: bytes
    call: Callable[[], object]
    probe: PauseProbe | None = None
    expected: object = None
    record: dict | None = None
    failures: list[str] = field(default_factory=list)


def tape_bits(spec: Spec) -> int:
    g, p = spec.graph, spec.params
    return {
        "connect_det": lambda: connectivity.connect_det_tape_bits(g.n),
        "connect_rand": lambda: connectivity.connect_rand_tape_bits(g.n),
        "connect_revertible": lambda: connectivity.connect_revertible_tape_bits(g),
        "estimate_dag": lambda: walks.dag_tape_bits(g, p["eps"]),
        "estimate_general": lambda: walks.general_tape_bits(g, p["T"], p["eps"]),
        "estimate_stationary": lambda: walks.stationary_tape_bits(g),
    }[spec.driver]()


def probe_bits(spec: Spec, nbits: int) -> list[int]:
    """Half uniform over the tape, half inside registers of s or t, which
    are always relevant and so take the original-value path."""
    rng = random.Random(spec.tape_seed)
    params = connectivity.revertible_parameters(spec.graph)
    ell, view_n = params["ell"], params["view_n"]
    bits = [rng.randrange(nbits) for _ in range(PROBE_BITS // 2)]
    for _ in range(PROBE_BITS - len(bits)):
        reg = rng.randrange(params["T"] + 1) * view_n + rng.choice((spec.s, spec.t))
        bits.append(reg * ell + rng.randrange(ell))
    return bits


def make_call(spec: Spec, tape: CatalyticTape, probe: PauseProbe | None):
    """The driver call; drivers are looked up on their module at call time so
    that the traced run's wrappers apply."""
    g, s, t, p = spec.graph, spec.s, spec.t, spec.params
    return {
        "connect_det": lambda: connectivity.connect_det(g, s, t, tape=tape),
        "connect_rand": lambda: connectivity.connect_rand(g, s, t, seed=p["seed"], tape=tape),
        "connect_revertible": lambda: connectivity.connect_revertible(
            g, s, t, seed=p["seed"], tape=tape, pause_hook=probe),
        "estimate_dag": lambda: walks.estimate_dag(g, s, t, p["eps"], tape),
        "estimate_general": lambda: walks.estimate_general(g, s, t, p["T"], p["eps"], tape),
        "estimate_stationary": lambda: walks.estimate_stationary(
            g, s, p["mix_time"], p["delta"], tape, start=p["start"]),
    }[spec.driver]


def build_cases(specs: list[Spec]) -> tuple[list[Case], float]:
    """Tapes for every spec; returns the cases and the make_tape time in ms."""
    cases, make_ns = [], 0
    for spec in specs:
        nbits = tape_bits(spec)
        t0 = time.perf_counter_ns()
        tape = make_tape(nbits, spec.profile, spec.tape_seed)
        make_ns += time.perf_counter_ns() - t0
        probe = PauseProbe(probe_bits(spec, nbits)) if spec.driver == "connect_revertible" else None
        cases.append(Case(spec, tape, tape.snapshot(), make_call(spec, tape, probe), probe))
    return cases, make_ns / 1e6


def model_record(result, nbits: int) -> dict:
    d = result.metrics.to_dict(stable=True)
    d["tape_bits"] = nbits
    return {k: d[k] for k in MODEL_FIELDS}


def record_diff(want: dict, got: dict) -> list[str]:
    """Model fields that differ; wall time is never compared."""
    return [f"{k}: {want.get(k)!r} != {got.get(k)!r}"
            for k in MODEL_FIELDS if want.get(k) != got.get(k)]


def expected(spec: Spec):
    """Oracle answer for a spec: reachability for the connectivity drivers,
    the exact probability for the DAG and T-step walks."""
    from catgraph import oracles

    g, s, t = spec.graph, spec.s, spec.t
    if spec.driver.startswith("connect"):
        return oracles.bfs_reach(g)[s][t]
    if spec.driver == "estimate_dag":
        return float(oracles.dag_reach_probabilities(g, s)[t])
    if spec.driver == "estimate_general":
        return float(oracles.walk_distribution(g, s, spec.params["T"])[t])
    return None


def check(case: Case, result, reference: dict | None) -> list[str]:
    """Every reason this call's output is wrong; empty when it is right."""
    spec, problems = case.spec, []
    if case.tape.snapshot() != case.pristine:
        problems.append("tape bytes differ from the pre-call snapshot")
    if case.probe is not None:
        snap = case.pristine
        bad = [i for i, got in case.probe.log if got != (snap[i >> 3] >> (i & 7)) & 1]
        if bad:
            problems.append(f"pause-hook query answers differ at bits {bad[:4]}")
    if case.expected is None:
        case.expected = expected(spec)
    m = result.metrics
    if spec.driver == "connect_det":
        if (m.verdict == "path") != case.expected or m.verdict not in ("path", "no-path"):
            problems.append(f"verdict {m.verdict} but reachable={case.expected}")
    elif spec.driver.startswith("connect"):
        if m.verdict not in ("path", "no-path", "abort") or (m.verdict == "path" and not case.expected):
            problems.append(f"verdict {m.verdict} but reachable={case.expected}")
    elif spec.driver != "estimate_stationary":
        if abs(m.estimate - case.expected) > spec.params["eps"] + 1e-12:
            problems.append(f"estimate {m.estimate} but exact {case.expected}")
    elif not 0.0 <= m.estimate <= 1.0:
        problems.append(f"estimate {m.estimate} outside [0, 1]")
    rec = model_record(result, case.tape.nbits)
    if case.record is None:
        case.record = rec
    problems += [f"differs from its first call: {d}" for d in record_diff(case.record, rec)]
    if reference is not None:
        problems += [f"differs from the reference: {d}"
                     for d in record_diff(reference.get(spec.key, {}), rec)]
    return problems


@dataclass
class CallResult:
    driver: str
    seconds: float
    steps: int
    ok: bool


def execute(case: Case, reference: dict | None = None) -> CallResult:
    """One timed call, then its checks. A failure restores the tape from the
    pristine snapshot so that later calls start from the same content."""
    if case.probe is not None:
        case.probe.reset()
    t0 = time.perf_counter()
    try:
        result = case.call()
    except Exception:  # a failing call is counted, and the loop goes on
        seconds = time.perf_counter() - t0
        problems = ["raised: " + traceback.format_exc(limit=3)]
        result = None
    else:
        seconds = time.perf_counter() - t0
        problems = check(case, result, reference)
    if problems:
        if len(case.failures) < 3:
            print(f"{case.spec.key}: {'; '.join(problems)}", file=sys.stderr)
        case.failures += problems
        case.tape.restore(case.pristine)
    steps = result.metrics.elapsed_steps if result is not None else 0
    return CallResult(case.spec.driver, seconds, steps, not problems)


def run_rounds(cases: list[Case], seconds: float, reference: dict | None) -> list[list[CallResult]]:
    """Whole rounds until `seconds` have passed; at least one."""
    deadline = time.perf_counter() + seconds
    rounds = []
    while True:
        rounds.append([execute(case, reference) for case in cases])
        if time.perf_counter() >= deadline:
            return rounds


def fastest(cases: list[Case], rounds: list[list[CallResult]]) -> dict:
    """For every instance, its fastest call: key -> [driver, seconds, steps].

    Repeats of one instance do the same work (their model records must
    match), so the fastest is the one least slowed by other load on the
    host; on a shared machine, medians move with that load.
    """
    best: dict[str, list] = {}
    for calls in rounds:
        for case, c in zip(cases, calls):
            key = case.spec.key
            if key not in best or c.seconds < best[key][1]:
                best[key] = [c.driver, c.seconds, c.steps]
    return best


def measured(cases: list[Case], rounds: list[list[CallResult]]) -> dict:
    """What a measured process reports; `run.end_to_end` combines them."""
    calls = [c for r in rounds for c in r]
    return {"fastest": fastest(cases, rounds),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "attempted": len(calls), "failed": sum(not c.ok for c in calls)}


def latency(durations_ms: list[float]) -> tuple[float, float, float]:
    """(median, tail, tail percentile): the tail is the highest percentile
    with at least ten calls beyond it, or the minimum when there are ten
    calls or fewer."""
    xs = sorted(durations_ms)
    n = len(xs)
    if n <= 10:
        return statistics.median(xs), xs[0], 0.0
    return statistics.median(xs), xs[n - 11], 100.0 * (n - 10) / n


def setup(workload: str, seed: int) -> tuple[list[Case], float]:
    """Generate the inputs, build every tape, and make one untimed warm-up
    call per driver (on its first instance, unchecked)."""
    cases, make_ms = build_cases(build_specs(workload, seed))
    for driver in DRIVERS:
        next(c for c in cases if c.spec.driver == driver).call()
    return cases, make_ms


def traced_replay(cases, rounds, seconds, reference, tracer):
    """Replay the untraced calls in order under the tracer; pairs of
    (untraced, traced) results for every call replayed."""
    import spans

    pairs = []
    deadline = time.perf_counter() + seconds * TRACE_SHARE
    uninstall = spans.install(tracer)
    try:
        for calls in rounds:
            for case, before in zip(cases, calls):
                pairs.append((before, execute(case, reference)))
                if len(pairs) >= len(DRIVERS) and (
                        time.perf_counter() >= deadline or len(tracer) >= MAX_SPANS):
                    return pairs
    finally:
        uninstall()
    return pairs


def per_layer(tracer, pairs, rounds, make_ms) -> dict:
    import numpy as np

    import spans

    arr = tracer.arrays()
    summary = spans.summarize(tracer.names, arr)
    groups = summary["groups"]
    out = {}

    def group(name, amount=None):
        g = groups.get(name, {"calls": 0, "self_ms": 0.0, "amount": 0.0})
        out[f"{name}.calls"] = g["calls"]
        out[f"{name}.self_ms"] = g["self_ms"]
        if amount:
            out[f"{name}.{amount}"] = g["amount"]

    for name, amount in spans.LAYER_GROUPS:
        group(name, amount)
    untraced = [c for r in rounds for c in r]
    for driver, name in spans.DRIVER_GROUPS.items():
        group(name)
        p50, tail, pct = latency([1e3 * c.seconds for c in untraced if c.driver == driver])
        out[f"{name}.ms_p50"], out[f"{name}.ms_tail"], out[f"{name}.tail_pct"] = p50, tail, pct

    # the driver of every call and of every span, as an index into DRIVERS
    call_driver = np.array([DRIVERS.index(d) for d in tracer.call_driver], dtype=np.int8)
    span_driver = call_driver[arr["call"]]
    randomized = [DRIVERS.index(d) for d in ("connect_rand", "connect_revertible")]
    walking = [DRIVERS.index(d) for d in WALK_DRIVERS]
    gid = summary["group_ids"]
    pushes = groups.get("connectivity.push_run", {}).get("calls", 0)
    answers = groups.get("connectivity.answer", {}).get("calls", 0)
    out["connectivity.push_runs"] = pushes
    out["connectivity.push_runs_per_answer"] = pushes / max(1, answers)
    iters = int(np.sum((summary["span_group"] == gid.get("connectivity.iteration", -1))
                       & np.isin(span_driver, randomized)))
    randomized_calls = int(np.isin(call_driver, randomized).sum())
    out["connectivity.iterations_per_call"] = iters / max(1, randomized_calls)
    walk_steps = sum(t.steps for _, t in pairs if t.driver in WALK_DRIVERS)
    graph_ids = [gid[g] for g in spans.GRAPH_GROUPS if g in gid]
    top_queries = (np.isin(summary["span_group"], graph_ids)
                   & ~np.isin(summary["parent_group"], graph_ids)
                   & np.isin(span_driver, walking))
    out["walks.steps"] = walk_steps
    out["graphs.queries_per_step"] = int(top_queries.sum()) / max(1, walk_steps)
    out["tape.make_tape.ms"] = make_ms
    untraced_s = sum(b.seconds for b, _ in pairs)
    traced_s = sum(t.seconds for _, t in pairs)
    out["trace.overhead_pct"] = 100.0 * (traced_s / untraced_s - 1.0)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--mode", choices=("measure", "trace"), required=True)
    ap.add_argument("--reference", help="model records the calls must match")
    ap.add_argument("--record", help="write this run's model records here")
    ap.add_argument("--spans", help="write the traced run's spans here (.npz)")
    args = ap.parse_args(argv)

    cases, make_ms = setup(args.workload, args.seed)
    first_call = time.monotonic()
    reference = None
    if args.reference:
        with open(args.reference, encoding="utf-8") as fh:
            reference = json.load(fh)["records"]
    untraced_s = args.seconds * (1 - TRACE_SHARE if args.mode == "trace" else 1)
    rounds = run_rounds(cases, untraced_s, reference)
    out = {"first_call": first_call, "rounds": len(rounds)}
    if args.mode == "measure":
        out.update(measured(cases, rounds))
    else:
        import spans

        tracer = spans.Tracer()
        pairs = traced_replay(cases, rounds, args.seconds, reference, tracer)
        out["metrics"] = per_layer(tracer, pairs, rounds, make_ms)
        out["spans"] = len(tracer)
        if args.spans:
            Path(args.spans).parent.mkdir(parents=True, exist_ok=True)
            tracer.save(args.spans)
        calls = [c for r in rounds for c in r] + [t for _, t in pairs]
        out["attempted"] = len(calls)
        out["failed"] = sum(not c.ok for c in calls)
    if args.record:
        with open(args.record, "w", encoding="utf-8") as fh:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "records": {c.spec.key: c.record for c in cases}},
                      fh, indent=1, sort_keys=True)
            fh.write("\n")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
