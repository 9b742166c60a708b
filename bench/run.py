"""catgraph benchmark: one workload per invocation, checked call by call.

    python3 bench/run.py --workload {small,large} --seed N --seconds S --trace {0,1}
                         [--record FILE]
    python3 bench/run.py --check OLD.json NEW.json

With `--trace 0` it splits `--seconds` over several workload processes,
run one at a time, and prints the end-to-end metrics: per-driver
microseconds of wall time per abstract step, set-up time, peak memory and
the share of calls that passed every check. With `--trace 1` one process
runs the workload untraced and then replays its calls with spans around the
library's public functions, and prints the per-layer metrics. The last line
of standard output is the result; the line before it records the
environment.

`--record FILE` writes every call's model record (verdict, estimate, steps,
workspace and catalytic bits, abort flag, tape length). `--check` compares
two such files of the same workload and seed and exits 1 on any difference;
wall time is never compared. For the default seed the records must also
match `bench/reference/<workload>.json`, or the call counts as failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("small", "large")
DEFAULT_SEED = 0
# The measured time is split over this many processes, one after another.
# On a shared host the speed of a whole process varies (by a fifth and more
# on a 2-vCPU VM), so each instance's fastest call is taken over all of
# them; setup_s is the median of their set-up times.
MEASURE_PROCESSES = 4
BUDGET_S = 175      # wall time allowed for all processes of one invocation


def unit_of(name: str) -> str:
    if name.endswith(("_ms", ".ms", "ms_p50", "ms_tail")):
        return "ms"
    if name.endswith("_pct"):
        return "%"
    if name.endswith((".mb", "_mb")):
        return "MB"
    if name.endswith("_s"):
        return "s"
    if name.endswith("us_per_step"):
        return "us"
    if name.endswith(("_per_answer", "_per_call", "_per_step", "_rate")):
        return "ratio"
    return "count"


def environment() -> dict:
    import numpy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu}


def spawn(args: list[str], deadline: float) -> tuple[float, dict]:
    """Run one workload process; returns its start time and its result."""
    cmd = [sys.executable, str(HERE / "harness.py")] + args
    started = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - started))
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited with {proc.returncode}")
    return started, json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(setups: list[float], results: list[dict]) -> dict:
    """The end-to-end metrics of one run from its measured processes."""
    best: dict[str, list] = {}
    for res in results:
        for key, entry in res["fastest"].items():
            if key not in best or entry[1] < best[key][1]:
                best[key] = entry
    out = {
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in results),
        "success_rate": 1 - sum(r["failed"] for r in results) / sum(r["attempted"] for r in results),
    }
    for driver in sorted({d for d, _, _ in best.values()}):
        mine = [e for e in best.values() if e[0] == driver]
        out[f"{driver}.us_per_step"] = 1e6 * sum(e[1] for e in mine) / sum(e[2] for e in mine)
    return out


def check_records(old_path: str, new_path: str) -> int:
    with open(old_path, encoding="utf-8") as fh:
        old = json.load(fh)
    with open(new_path, encoding="utf-8") as fh:
        new = json.load(fh)
    if (old["workload"], old["seed"]) != (new["workload"], new["seed"]):
        print("records are of different workloads or seeds", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    from harness import record_diff

    diffs = [f"{key}: missing" for key in sorted(old["records"].keys() ^ new["records"].keys())]
    for key in sorted(old["records"].keys() & new["records"].keys()):
        diffs += [f"{key}: {d}" for d in record_diff(old["records"][key], new["records"][key])]
    for line in diffs:
        print(line)
    print(f"{len(diffs)} difference(s) in {len(old['records'])} records")
    return 1 if diffs else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", help="write this run's model records to FILE")
    ap.add_argument("--check", nargs=2, metavar=("OLD", "NEW"),
                    help="compare two record files and exit 1 on a difference")
    args = ap.parse_args(argv)
    if args.check:
        return check_records(*args.check)
    if args.workload is None:
        ap.error("--workload is required")
    if not (ROOT / "src" / "catgraph" / "__init__.py").is_file():
        print(f"no catgraph sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + BUDGET_S
    reference = HERE / "reference" / f"{args.workload}.json"
    extra = []
    if args.seed == DEFAULT_SEED and reference.is_file():
        extra += ["--reference", str(reference)]

    def common(seconds: float) -> list[str]:
        return ["--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(seconds)] + extra

    record = ["--record", str(Path(args.record).resolve())] if args.record else []
    try:
        if args.trace:
            spans_out = ROOT / ".bench_out" / f"spans-{args.workload}.npz"
            _, res = spawn(common(args.seconds) + record
                           + ["--mode", "trace", "--spans", str(spans_out)], deadline)
            results, metrics = [res], res["metrics"]
        else:
            setups, results = [], []
            for i in range(MEASURE_PROCESSES):
                started, res = spawn(common(args.seconds / MEASURE_PROCESSES)
                                     + ["--mode", "measure"] + (record if i == 0 else []),
                                     deadline)
                setups.append(res["first_call"] - started)
                results.append(res)
            metrics = end_to_end(setups, results)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 3

    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "rounds": [r["rounds"] for r in results], "env": environment()}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in sorted(metrics.items())},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
