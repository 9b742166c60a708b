"""Run metrics (the CLI JSON schema, version 1) and the per-call driver run."""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from .tape import CatalyticTape, WorkspaceMeter, alu_scratch_bits, bits_for

SCHEMA_VERSION = 1


@dataclass
class RunMetrics:
    verdict: str | None = None
    estimate: float | None = None
    elapsed_steps: int = 0
    wall_time_ms: float = 0.0
    workspace_peak_bits: int = 0
    catalytic_bits: int = 0
    tape_restored: bool = False
    aborted: bool = False
    normalizations: list[str] = field(default_factory=list)
    extra: dict = field(default_factory=dict)

    def to_dict(self, stable: bool = False) -> dict:
        out = {
            "schema": SCHEMA_VERSION,
            "verdict": self.verdict,
            "estimate": self.estimate,
            "elapsed_steps": self.elapsed_steps,
            "wall_time_ms": 0.0 if stable else round(self.wall_time_ms, 3),
            "workspace_peak_bits": self.workspace_peak_bits,
            "catalytic_bits": self.catalytic_bits,
            "tape_restored": self.tape_restored,
            "aborted": self.aborted,
            "normalizations": list(self.normalizations),
        }
        out.update(self.extra)
        return out


class StepCounter:
    """Abstract operation count: edge pushes, shifts, walk steps."""

    __slots__ = ("n",)

    def __init__(self):
        self.n = 0

    def add(self, k: int = 1) -> None:
        self.n += k


class DriverRun:
    """The catalytic contract of one driver call, as a context manager.

    Entering charges the driver's named scalars (each kwarg is a range, as in
    `WorkspaceMeter.charge_scalars`), plus ALU scratch when a register
    `width` is given, then keeps the tape's bytes. Leaving releases the
    charge on every exit path. After the run, `metrics` compares the tape
    against the entry bytes and assembles the RunMetrics; wall time counts
    from construction.
    """

    def __init__(self, tape: CatalyticTape, meter: WorkspaceMeter | None = None,
                 *, width: int | None = None, **scalars: int):
        self.tape = tape
        self.meter = meter or WorkspaceMeter()
        self.steps = StepCounter()
        self._bits = sum(bits_for(r) for r in scalars.values())
        if width is not None:
            self._bits += alu_scratch_bits(width)
        self._t0 = time.perf_counter()

    def __enter__(self) -> "DriverRun":
        self.meter.charge(self._bits)
        self._entry = self.tape.snapshot()
        return self

    def __exit__(self, *exc) -> None:
        self.meter.release(self._bits)

    def metrics(self, catalytic_bits: int, **fields) -> RunMetrics:
        """The run's RunMetrics. A tape that differs from its entry bytes
        adds `extra["restore_diff"]` (see `restore_diff`); a restored run's
        record has no such field."""
        wall_time_ms = (time.perf_counter() - self._t0) * 1000.0
        exit_bytes = self.tape.snapshot()
        restored = exit_bytes == self._entry
        if not restored:
            fields["extra"] = {**fields.get("extra", {}),
                               "restore_diff": restore_diff(self._entry, exit_bytes)}
        return RunMetrics(
            elapsed_steps=self.steps.n,
            wall_time_ms=wall_time_ms,
            workspace_peak_bits=self.meter.peak_bits,
            catalytic_bits=catalytic_bits,
            tape_restored=restored,
            **fields,
        )


def restore_diff(entry: bytes, exit_bytes: bytes) -> dict:
    """Where two snapshots of one tape differ: how many bits differ, and
    the index of the first. Tape bit i is bit i of the bytes read as one
    little-endian integer."""
    diff = int.from_bytes(entry, "little") ^ int.from_bytes(exit_bytes, "little")
    return {"differing_bits": diff.bit_count(),
            "first_bit": (diff & -diff).bit_length() - 1}
