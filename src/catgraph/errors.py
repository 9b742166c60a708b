"""Exception types shared across the package."""


class CatgraphError(Exception):
    """Base class for all catgraph errors."""


class SpanError(CatgraphError):
    """A bit span falls outside the tape or overlaps illegally."""


class InvalidRegisterError(CatgraphError):
    """A register holds a value >= q*d and cannot do modular arithmetic."""


class BudgetExceededError(CatgraphError):
    """The workspace meter went over its configured budget."""


class MeterError(CatgraphError):
    """Released more workspace bits than were in use."""


class GraphFormatError(CatgraphError):
    """A graph file or edge list violates the input format."""


class WalkCycleError(CatgraphError):
    """A walk exceeded n steps, which is impossible on acyclic input.

    The walk's registers are written back only after every walk finished,
    so when this fires the tape is left as it was.
    """


class SinkVertexError(CatgraphError):
    """An operation that requires out-degree >= 1 hit a sink."""
