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
    """A walk exceeded n steps, or reverse walks did not retrace the
    forward ones: neither can happen on acyclic input.

    A driver writes its registers back only after its walks finished (and,
    in `estimate_dag`, retraced), so when this fires the tape is left as
    it was.
    """


class SinkVertexError(CatgraphError):
    """An operation that requires out-degree >= 1 hit a sink."""
