"""Catalytic-space graph algorithms over a simulated catalytic tape.

Edge-push s->t connectivity (deterministic, randomized, locally revertible)
and rotor-register random-walk estimation (DAG, general graph, stationary),
with strict restoration and workspace accounting plus brute-force oracles.
"""

from .connectivity import (
    ConnectivityAnswer,
    PausePoint,
    connect_det,
    connect_rand,
    connect_revertible,
    revert_query,
    st_count_mod,
    st_nonzero_mod,
)
from .graphs import (
    AdjacencyGraph,
    GraphOracle,
    load_graph,
    read_graph_file,
)
from .metrics import RunMetrics
from .tape import (
    CatalyticTape,
    RegisterFile,
    WorkspaceMeter,
    allocate_registers,
    make_tape,
)
from .walks import (
    VisitCounters,
    collect_counters,
    estimate_dag,
    estimate_general,
    estimate_stationary,
    walk_once,
)

__version__ = "0.1.0"

__all__ = [
    "AdjacencyGraph",
    "CatalyticTape",
    "ConnectivityAnswer",
    "GraphOracle",
    "PausePoint",
    "RegisterFile",
    "RunMetrics",
    "VisitCounters",
    "WorkspaceMeter",
    "allocate_registers",
    "collect_counters",
    "connect_det",
    "connect_rand",
    "connect_revertible",
    "estimate_dag",
    "estimate_general",
    "estimate_stationary",
    "load_graph",
    "make_tape",
    "read_graph_file",
    "revert_query",
    "st_count_mod",
    "st_nonzero_mod",
    "walk_once",
]
