"""Span tracing around catgraph's public functions, for the traced run only.

`install` replaces class attributes and module functions of `tape`,
`connectivity`, `walks` and `graphs` with wrappers that record one span per
call: a name, start and end (perf_counter_ns), the enclosing span and the
driver call it belongs to. Spans stay in compact in-memory arrays until the
workload ends. `summarize` turns them into per-layer counts and self times,
where a span's self time is its duration minus the time its child spans
cover.

Span names are "<layer metric group>|<Owner.attribute>", so a group such as
`tape.block_read` can gather several methods. A group's `calls` counts only
its outermost spans (RegisterFile.add_mod calling RegisterFile.read is one
scalar register operation); its self time sums over all of its spans.
"""

from __future__ import annotations

import time
from array import array

import numpy as np

DRIVER_GROUPS = {
    "connect_det": "connectivity.connect_det",
    "connect_rand": "connectivity.connect_rand",
    "connect_revertible": "connectivity.connect_revertible",
    "estimate_dag": "walks.estimate_dag",
    "estimate_general": "walks.estimate_general",
    "estimate_stationary": "walks.estimate_stationary",
}
GRAPH_GROUPS = ("graphs.base_query", "graphs.lift_query",
                "graphs.reduced_query", "graphs.loop_query")
# Groups reported as `.calls` and `.self_ms`, with the work count, if any,
# reported under the given suffix.
LAYER_GROUPS = (
    ("tape.block_read", "regs"),
    ("tape.block_write", "regs"),
    ("tape.reg_scalar", None),
    ("tape.shift", "regs"),
    ("tape.digest", "mb"),
    ("tape.bits", None),
    ("tape.extract_read", None),
    ("connectivity.phase", "pushes"),
    ("connectivity.layer_push", "pushes"),
    ("connectivity.revert_query", None),
    ("walks.registers", None),
) + tuple((g, None) for g in GRAPH_GROUPS)
GRAPH_QUERIES = ("indeg", "outdeg", "innbr", "outnbr",
                 "in_neighbors", "out_neighbors", "edge_count")


class Tracer:
    """Span store: parallel arrays indexed by span id, in opening order."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.call = array("i")
        self.amount = array("d")
        self.call_driver: list[str] = []
        self._stack: list[int] = []
        self._in_driver = False

    def __len__(self) -> int:
        return len(self.name)

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def open(self, nid: int) -> int:
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.call.append(len(self.call_driver) - 1)
        self.amount.append(0.0)
        self.end.append(0)
        self._stack.append(idx)
        self.start.append(time.perf_counter_ns())
        return idx

    def close(self, idx: int, amount: float = 0.0) -> None:
        self.end[idx] = time.perf_counter_ns()
        self.amount[idx] = amount
        self._stack.pop()

    def wrap(self, group: str, qualname: str, fn, amount=None):
        """Spans are recorded only inside a driver call, so the benchmark's
        own checks never show up in a layer's numbers."""
        nid = self.name_id(f"{group}|{qualname}")
        tracer = self

        def traced(*args, **kwargs):
            if not tracer._in_driver:
                return fn(*args, **kwargs)
            idx = tracer.open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(idx, amount(args) if amount is not None else 0.0)

        return traced

    def wrap_driver(self, driver: str, fn):
        """A driver call opens a new call id; a driver called from inside
        another (estimate_general runs estimate_dag) folds into its caller."""
        nid = self.name_id(f"{DRIVER_GROUPS[driver]}|{fn.__name__}")
        tracer = self

        def traced(*args, **kwargs):
            if tracer._in_driver:
                return fn(*args, **kwargs)
            tracer.call_driver.append(driver)
            tracer._in_driver = True
            idx = tracer.open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(idx)
                tracer._in_driver = False

        return traced

    def arrays(self) -> dict:
        return {
            "name": np.frombuffer(self.name, dtype=np.uint16),
            "start": np.frombuffer(self.start, dtype=np.int64),
            "end": np.frombuffer(self.end, dtype=np.int64),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "call": np.frombuffer(self.call, dtype=np.int32),
            "amount": np.frombuffer(self.amount, dtype=np.float64),
        }

    def save(self, path) -> None:
        np.savez_compressed(path, names=np.array(self.names),
                            call_driver=np.array(self.call_driver), **self.arrays())


def _targets():
    """(owner, attribute, group, amount) for every wrapped public function.

    `amount` maps the positional call arguments (self first) to the work
    count the group reports: registers, pushes or megabytes.
    """
    from catgraph import connectivity, graphs, tape, walks

    RF, CT = tape.RegisterFile, tape.CatalyticTape
    PP, LP = connectivity.ParityProgram, connectivity.LayeredPushState
    out = [
        (RF, "read_block", "tape.block_read", lambda a: a[2]),
        (RF, "residues_block", "tape.block_read", lambda a: a[2]),
        (RF, "write_block", "tape.block_write", lambda a: len(a[2])),
        (RF, "shift_all", "tape.shift", lambda a: a[0].count),
        (RF, "shift_indices", "tape.shift", lambda a: len(a[1])),
        (RF, "stream_residue", "tape.extract_read", None),
        (RF, "read_group", "tape.extract_read", None),
        (CT, "digest", "tape.digest", lambda a: a[0].nbits / 8e6),
        (PP, "forward_phase", "connectivity.phase", lambda a: a[0].pushes_per_phase),
        (PP, "reverse_phase", "connectivity.phase", lambda a: a[0].pushes_per_phase),
        (LP, "layer_push", "connectivity.layer_push",
         lambda a: sum(len(lst) for lst in a[0].in_lists.values())),
        (LP, "original_value", "connectivity.revert_query", None),
        (connectivity, "revert_query", "connectivity.revert_query", None),
        (connectivity, "st_nonzero_mod", "connectivity.answer", None),
        (connectivity, "st_count_mod", "connectivity.answer", None),
        (connectivity, "allocate_registers", "connectivity.iteration", None),
    ]
    for attr in ("read", "write", "is_valid", "residue", "add_mod", "sub_mod", "add_reg"):
        out.append((RF, attr, "tape.reg_scalar", None))
    for attr in ("read_bits", "write_bits", "read_bit"):
        out.append((CT, attr, "tape.bits", None))
    for cls in (PP, LP):
        out.append((cls, "run_push", "connectivity.push_run", None))
        out.append((cls, "run_reverse", "connectivity.reverse_run", None))
    for attr in ("load", "flush", "mark_touched"):
        out.append((walks.WalkRegisters, attr, "walks.registers", None))
    for attr in ("load", "flush", "snapshot_spans", "restore_spans"):
        out.append((walks.RotorRegisters, attr, "walks.registers", None))
    views = [
        (graphs.AdjacencyGraph, "graphs.base_query", ()),
        (graphs.LayeredLiftView, "graphs.lift_query", ("decode", "encode")),
        (graphs.DegreeReducedView, "graphs.reduced_query",
         ("decode", "encode", "is_live", "diameter_bound")),
        (graphs.SelfLoopView, "graphs.loop_query", ()),
        (graphs.SinkLoopsView, "graphs.loop_query", ()),
    ]
    for cls, group, extra in views:
        for attr in GRAPH_QUERIES + extra:
            out.append((cls, attr, group, None))
    return out


def install(tracer: Tracer):
    """Wrap every target; returns a function that puts the originals back."""
    from catgraph import connectivity, walks

    saved = []

    def patch(owner, attr, new):
        own = attr in vars(owner)
        saved.append((owner, attr, vars(owner)[attr] if own else None, own))
        setattr(owner, attr, new)

    for owner, attr, group, amount in _targets():
        fn = getattr(owner, attr)
        qual = f"{getattr(owner, '__name__', owner)}.{attr}".replace("catgraph.", "")
        patch(owner, attr, tracer.wrap(group, qual, fn, amount))
    for driver in DRIVER_GROUPS:
        module = connectivity if driver.startswith("connect") else walks
        patch(module, driver, tracer.wrap_driver(driver, getattr(module, driver)))

    def uninstall():
        for owner, attr, original, own in reversed(saved):
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    return uninstall


def self_times(start, end, parent) -> np.ndarray:
    """Duration of each span minus the durations of its direct children.

    Spans on one thread nest properly, so the children's durations are
    exactly the part of the parent's interval that they cover.
    """
    start, end, parent = np.asarray(start), np.asarray(end), np.asarray(parent)
    dur = (end - start).astype(np.float64)
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=dur[has_parent],
                          minlength=len(dur))
    return dur - covered


def summarize(names: list[str], arr: dict) -> dict:
    """Per group: outermost `calls`, summed `self_ms`, outermost `amount`,
    plus `outer`, the boolean mask of outermost spans, and `group_of`."""
    groups = sorted({n.split("|")[0] for n in names})
    gid = {g: i for i, g in enumerate(groups)}
    name_group = np.array([gid[n.split("|")[0]] for n in names], dtype=np.int16)
    span_group = name_group[arr["name"]] if len(arr["name"]) else np.zeros(0, np.int16)
    parent = arr["parent"]
    parent_group = np.where(parent >= 0, span_group[np.maximum(parent, 0)], -1)
    outer = parent_group != span_group
    self_ns = self_times(arr["start"], arr["end"], parent)
    k = len(groups)
    calls = np.bincount(span_group[outer], minlength=k)
    self_ms = np.bincount(span_group, weights=self_ns, minlength=k) / 1e6
    amount = np.bincount(span_group[outer], weights=arr["amount"][outer], minlength=k)
    return {
        "groups": {g: {"calls": int(calls[i]), "self_ms": float(self_ms[i]),
                       "amount": float(amount[i])} for g, i in gid.items()},
        "group_ids": gid,
        "span_group": span_group,
        "parent_group": parent_group,
        "outer": outer,
    }
