"""Self-tests of the benchmark: python3 -m pytest bench/test_bench.py"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import harness  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from workloads import DRIVERS, build_specs  # noqa: E402


def first_cases(workload="small", seed=0):
    """The first instance of every driver in the workload."""
    cases, _ = harness.build_cases(build_specs(workload, seed))
    return [next(c for c in cases if c.spec.driver == d) for d in DRIVERS]


def test_self_time_on_hand_built_tree():
    # root [0, 100) holds a [10, 40), which holds a1 [15, 25), and b [50, 60)
    start = [0, 10, 15, 50]
    end = [100, 40, 25, 60]
    parent = [-1, 0, 1, 0]
    assert spans.self_times(start, end, parent).tolist() == [60, 20, 10, 10]


def test_group_calls_count_outermost_spans_only():
    names = ["tape.reg_scalar|add_mod", "tape.reg_scalar|read", "tape.bits|read_bits"]
    arr = {
        "name": np.array([0, 1, 2, 0], dtype=np.uint16),
        "start": np.array([0, 1, 2, 10]),
        "end": np.array([8, 5, 4, 12]),
        "parent": np.array([-1, 0, 1, -1], dtype=np.int32),
        "amount": np.zeros(4),
    }
    groups = spans.summarize(names, arr)["groups"]
    assert groups["tape.reg_scalar"]["calls"] == 2
    assert groups["tape.bits"]["calls"] == 1
    # add_mod 8-4, read 4-2, second add_mod 2: all scalar self time
    assert groups["tape.reg_scalar"]["self_ms"] * 1e6 == 4 + 2 + 2


def write_records(path, records, seed=0):
    path.write_text(json.dumps({"workload": "small", "seed": seed, "records": records}))
    return str(path)


def test_check_mode_flags_doctored_elapsed_steps(tmp_path):
    recs = {}
    for case in first_cases():
        assert harness.execute(case).ok
        recs[case.spec.key] = case.record
    old = write_records(tmp_path / "old.json", recs)
    assert run.check_records(old, write_records(tmp_path / "same.json", recs)) == 0
    key = next(iter(recs))
    doctored = {k: dict(v) for k, v in recs.items()}
    doctored[key]["elapsed_steps"] += 1
    assert run.check_records(old, write_records(tmp_path / "new.json", doctored)) == 1
    assert harness.record_diff(recs[key], doctored[key]) != []


def test_check_mode_ignores_wall_time():
    rec = {k: 1 for k in harness.MODEL_FIELDS}
    assert harness.record_diff(rec, dict(rec, wall_time_ms=5.0)) == []


def test_reference_mismatch_fails_the_call():
    case = first_cases()[0]
    ref = {case.spec.key: {k: None for k in harness.MODEL_FIELDS}}
    assert not harness.execute(case, ref).ok


def test_doctored_tape_byte_fails_the_call():
    for case in first_cases():
        real = case.call

        def doctored(real=real, tape=case.tape):
            result = real()
            tape.restore(bytes([tape.snapshot()[0] ^ 1]) + tape.snapshot()[1:])
            return result

        case.call = doctored
        rounds = [[harness.execute(case)]]
        assert not rounds[0][0].ok, case.spec.key
        metrics = run.end_to_end([0.0], [harness.measured([case], rounds)])
        assert metrics["success_rate"] == 0.0
        # the failure restored the tape, so the next honest call passes
        case.call = real
        assert harness.execute(case).ok


def test_wrong_pause_hook_answer_fails_the_call():
    case = next(c for c in first_cases() if c.spec.driver == "connect_revertible")

    class Lying(harness.PauseProbe):
        def __call__(self, point, query):
            super().__call__(point, lambda i: 1 - query(i))

    case.probe.__class__ = Lying
    assert not harness.execute(case).ok


def test_fastest_call_of_each_instance_across_processes():
    cases = first_cases()[:2]
    slow = [harness.CallResult(c.spec.driver, 2.0, 10, True) for c in cases]
    fast = [harness.CallResult(c.spec.driver, 1.0, 10, True) for c in cases]
    results = [harness.measured(cases, [slow]), harness.measured(cases, [fast, slow])]
    metrics = run.end_to_end([1.0, 3.0], results)
    assert metrics["connect_det.us_per_step"] == 1e5
    assert metrics["setup_s"] == 2.0 and metrics["success_rate"] == 1.0


def test_latency_tail_has_ten_calls_beyond_it():
    p50, tail, pct = harness.latency([float(i) for i in range(1, 41)])
    assert (p50, tail, pct) == (20.5, 30.0, 75.0)
    assert harness.latency([3.0, 1.0, 2.0])[1:] == (1.0, 0.0)


def test_benchmark_json_names_every_metric():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    cases = first_cases()
    rounds = [[harness.execute(c) for c in cases]]
    e2e = run.end_to_end([0.0], [harness.measured(cases, rounds)])
    tracer = spans.Tracer()
    pairs = harness.traced_replay(cases, rounds, 0.0, None, tracer)
    layer = harness.per_layer(tracer, pairs, rounds, 0.0)
    for key, got in (("end_to_end", e2e), ("per_layer", layer)):
        declared = {m["name"]: m["unit"] for m in bench[key]}
        assert declared == {name: run.unit_of(name) for name in got}
    assert all(c.ok for c in rounds[0]) and all(t.ok for _, t in pairs)
    # the wrappers are gone again
    from catgraph import connectivity, tape

    assert tape.RegisterFile.read_block.__name__ == "read_block"
    assert connectivity.connect_det.__name__ == "connect_det"


def test_same_seed_gives_same_inputs():
    a, b = build_specs("large", 7), build_specs("large", 7)
    assert [(s.key, s.s, s.t, s.tape_seed, sorted(s.graph.edges())) for s in a] == \
           [(s.key, s.s, s.t, s.tape_seed, sorted(s.graph.edges())) for s in b]
    assert [sorted(s.graph.edges()) for s in build_specs("large", 8)] != \
           [sorted(s.graph.edges()) for s in a]
