"""Named source mutants of catgraph and the tests that must kill them.

Run from the repository root (stdlib only; pytest runs the tests):

    python tests/mutants.py            # every mutant
    python tests/mutants.py NAME ...   # only the named mutants

Each mutant replaces exact pieces of text in files under `src/catgraph`.
The script copies `src/` into a temporary directory, first runs every
listed test on the unchanged copy (all must pass), then applies each
mutant to a fresh copy and runs its tests against it. A mutant is killed
when every one of its tests fails (or the run passes its timeout); a
test id without a parameter list fails when any of its cases fails. Each test that passes under a mutant
is reported as a survivor, and the exit status is 1 if any mutant
survives, a piece of text is not found exactly once, or a listed test is
not collected. The file name has no `test_` prefix, so the Tier-1 run
does not collect it.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CONN, TAPE, WALKS = "connectivity.py", "tape.py", "walks.py"
TIMEOUT_S = 600

EXTRACTION = "tests/test_connectivity.py::test_extraction_strategies_agree"
HELD = "tests/test_connectivity.py::test_held_banks_match_the_two_read_kernel"
LISTS = "tests/test_connectivity.py::test_source_count_lists_match_the_reference_kernel"
BOTH_KERNELS = [HELD, LISTS]
RINGS = "tests/test_connectivity.py::test_det_on_the_bench_rings_counts_exact_steps"
PACK_REF = "tests/test_tape.py::test_pack_and_unpack_match_a_bit_by_bit_reference"
PACK_EMPTY = "tests/test_tape.py::test_pack_of_a_span_listing_no_register_is_zero"
CHUNK_EDGES = "tests/test_walks.py::test_walk_kernel_at_the_chunk_edges"
REF_WALKS = "tests/test_walks.py::test_walk_kernel_matches_reference_walks"
WALK_ONCE = "tests/test_walks.py::test_walk_once_matches_a_one_walk_kernel_batch"
CYCLE = ("tests/test_walks.py::"
         "test_a_cycle_reachable_from_s_raises_before_the_meter_or_the_tape")
FLUSH_CHECKS = ("tests/test_walks.py::"
                "test_rotor_registers_flush_rejects_bad_values_unchanged")
UNALIGNED = "tests/test_walks.py::test_rotor_registers_move_one_span_at_unaligned_base"
WALK_FLUSH = ("tests/test_walks.py::"
              "test_walk_registers_flush_changes_only_the_walked_registers")
SCALING = "tests/test_acceptance.py::test_criterion_12_scaling_smoke"


def _extraction(*qs: str) -> list[str]:
    """The parity and layered cases of the extraction test for each q."""
    return [f"{EXTRACTION}[{q}-{kind}]" for q in qs for kind in ("parity", "layered")]


GROUPED = _extraction("2^17", "2^32", "2^33", "2^48")


# (name, [(file under src/catgraph, old text, new text)], [test ids])
MUTANTS = [
    # the answer routine, `connectivity.st_nonzero_mod`
    ("answer-last-pass-dropped",
     [(CONN, "for g in range(passes):", "for g in range(max(passes - 1, 1)):")],
     GROUPED),
    ("answer-b-sign-flipped",
     [(CONN, "(read if b else -read)", "(-read if b else read)")],
     [EXTRACTION]),
    ("answer-no-final-mod",
     [(CONN, "return diff % q", "return diff")],
     _extraction("2^12", "2^16", "2^17", "2^32", "2^33", "odd")),
    ("answer-group-shift-by-g",
     [(CONN, "<< GROUP_BITS * g", "<< g")], GROUPED),
    # push phases by source count (the `% q` loops of `layer_push`)
    ("phase-one-forward-dropped",
     [(CONN, "residues[j] = (residues[j] + res[u]) % q", "pass")],
     BOTH_KERNELS),
    ("phase-two-forward-dropped",
     [(CONN, "residues[j] = (residues[j] + res[u] + res[w]) % q", "pass")],
     BOTH_KERNELS),
    ("phase-many-forward-dropped",
     [(CONN, "total += res[u]\n                    residues[j] = total % q",
       "total += res[u]")],
     BOTH_KERNELS),
    ("phase-one-reverse-dropped",
     [(CONN, "residues[j] = (residues[j] - res[u]) % q", "pass")],
     BOTH_KERNELS),
    ("phase-two-reverse-dropped",
     [(CONN, "residues[j] = (residues[j] - res[u] - res[w]) % q", "pass")],
     BOTH_KERNELS),
    ("phase-one-reverse-adds",
     [(CONN, "(residues[j] - res[u]) % q", "(residues[j] + res[u]) % q")],
     BOTH_KERNELS),
    ("phase-two-reverse-adds",
     [(CONN, "(residues[j] - res[u] - res[w]) % q",
       "(residues[j] - res[u] + res[w]) % q")],
     BOTH_KERNELS),
    ("phase-many-reverse-adds",
     [(CONN, "total -= res[u]\n                    residues[j] = total % q",
       "total += res[u]\n                    residues[j] = total % q")],
     BOTH_KERNELS),
    ("phase-two-forward-reads-u-twice",
     [(CONN, "(residues[j] + res[u] + res[w]) % q",
       "(residues[j] + res[u] + res[u]) % q")],
     BOTH_KERNELS),
    ("phase-two-reverse-reads-u-twice",
     [(CONN, "(residues[j] - res[u] - res[w]) % q",
       "(residues[j] - res[u] - res[u]) % q")],
     BOTH_KERNELS),
    # power-of-two mask and wide-span fold
    ("mask-of-register-width",
     [(CONN, "self._mask = _power_of_two_mask(file.modulus)",
       "self._mask = _power_of_two_mask(file.modulus) and file._mask"),
      (CONN, "self._mask = _power_of_two_mask(q)",
       "self._mask = _power_of_two_mask(q) and self.file._mask")],
     BOTH_KERNELS),
    ("masked-two-reverse-adds",
     [(CONN, "(residues[j] - res[u] - res[w]) & m",
       "(residues[j] - res[u] + res[w]) & m")], BOTH_KERNELS),
    ("high-or-instead-of-add",
     [(CONN, "self._high[r] + bank.pack_lanes(residues)",
       "self._high[r] | bank.pack_lanes(residues)")], BOTH_KERNELS),
    ("fold-without-initial-zero",
     [(TAPE, "reduce(or_, lanes, 0)", "reduce(or_, lanes)")], [PACK_EMPTY]),
    ("fold-drops-first-lane",
     [(TAPE, "reduce(or_, lanes, 0)", "(next(lanes, 0), reduce(or_, lanes, 0))[1]")],
     [PACK_REF, RINGS + "[n24]", RINGS + "[n32]"]),
    # the rotor kernel and the cycle check
    ("rotor-chunk-of-2^w",
     [(WALKS, "for done in range(0, walks, mask):\n"
              "        chunk = range(min(mask, walks - done))",
       "for done in range(0, walks, mask + 1):\n"
       "        chunk = range(min(mask + 1, walks - done))")],
     [CHUNK_EDGES + "[1]", CHUNK_EDGES + "[2]", CHUNK_EDGES + "[3]", REF_WALKS]),
    ("rotor-rev-delta-flipped",
     [(WALKS, "moved = [(x - y) & mask", "moved = [(y - x) & mask")],
     [CHUNK_EDGES + "[2]", CHUNK_EDGES + "[3]", WALK_ONCE, REF_WALKS, SCALING]),
    ("rotor-steps-not-from-deltas",
     [(WALKS, "        steps.n += sum(moved)\n", "")],
     [CHUNK_EDGES + "[1]", CHUNK_EDGES + "[2]", CHUNK_EDGES + "[3]", REF_WALKS,
      SCALING]),
    ("cycle-check-removed",
     [(WALKS, "if _reaches_cycle(out, s):", "if False:")], [CYCLE]),
    # the one load and flush of both walk register views
    ("packed-flush-unchecked",
     [(WALKS, "self.span.pack(values)", "self.span.pack_lanes(values)")],
     [FLUSH_CHECKS]),
    ("packed-load-from-bit-0",
     [(WALKS, "self.tape.read_bits(self.span.offset, self.span.bits)",
       "self.tape.read_bits(0, self.span.bits)")],
     [UNALIGNED, WALK_FLUSH]),
]


def apply(src: Path, edits) -> None:
    """Apply each edit to the copy of src/ at `src`; raises ValueError
    unless its old text occurs exactly once."""
    for name, old, new in edits:
        path = src / "catgraph" / name
        text = path.read_text()
        if text.count(old) != 1:
            raise ValueError(f"{name}: {old!r} occurs {text.count(old)} times")
        path.write_text(text.replace(old, new))


def run_tests(src: Path, tests: list[str]) -> tuple[dict[str, bool] | None, str]:
    """Run pytest on `tests` against the copy at `src`: whether each listed
    id failed (None after a timeout), and pytest's output."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-q", "-rA", "-p", "no:cacheprovider",
           "-o", f"pythonpath={src}", *tests]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, f"timed out after {TIMEOUT_S} s"
    outcomes = re.findall(r"^(PASSED|FAILED|ERROR) (\S+)", proc.stdout, re.M)
    failed = {}
    for test in tests:
        mine = [o for o, node in outcomes
                if node == test or node.startswith(test + "[")]
        if not mine:
            raise LookupError(f"{test} not collected:\n{proc.stdout[-2000:]}")
        failed[test] = any(o != "PASSED" for o in mine)
    return failed, proc.stdout


def main(names: list[str]) -> int:
    chosen = [m for m in MUTANTS if not names or m[0] in names]
    unknown = set(names) - {m[0] for m in MUTANTS}
    if unknown:
        print(f"unknown mutants: {sorted(unknown)}")
        return 1
    with tempfile.TemporaryDirectory(prefix="catgraph-mutants-") as tmp:
        src = Path(tmp) / "src"
        every = sorted({t for _, _, tests in chosen for t in tests})
        shutil.copytree(ROOT / "src", src)
        failed, out = run_tests(src, every)
        if failed is None or any(failed.values()):
            print("the unchanged source fails its own tests:\n" + out[-3000:])
            return 1
        survivors = 0
        for name, edits, tests in chosen:
            shutil.rmtree(src)
            shutil.copytree(ROOT / "src", src)
            start = time.perf_counter()
            apply(src, edits)
            failed, _ = run_tests(src, tests)
            took = time.perf_counter() - start
            if failed is None:
                print(f"killed   {name} (timeout, {took:.0f} s)")
                continue
            passed = [t for t in tests if not failed[t]]
            survivors += bool(passed)
            status = "SURVIVED" if passed else "killed  "
            print(f"{status} {name} ({len(tests) - len(passed)}/{len(tests)} "
                  f"tests fail, {took:.1f} s)")
            for test in passed:
                print(f"    passes: {test}")
    print(f"{len(chosen) - survivors} of {len(chosen)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
