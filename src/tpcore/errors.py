"""Exception types shared across the package."""


class CommunitySearchError(Exception):
    """Base class for all errors raised by tpcore."""


class MalformedLine(CommunitySearchError):
    """An edge-stream line could not be parsed."""

    def __init__(self, line_no: int, line: str, reason: str):
        super().__init__(f"line {line_no}: {reason}: {line!r}")
        self.line_no = line_no
        self.line = line
        self.reason = reason


class EmptyGraph(CommunitySearchError):
    """No temporal edges remained after cleaning the input."""


class QueryNotInSet(CommunitySearchError):
    """The query vertex is outside the vertex set being searched."""


class NotConverged(CommunitySearchError):
    """Power iteration hit the iteration cap before reaching tolerance."""

    def __init__(self, iterations: int, delta: float):
        super().__init__(f"no convergence after {iterations} iterations (L1 change {delta:.3e})")
        self.iterations = iterations
        self.delta = delta


class QueriesDisconnected(CommunitySearchError):
    """No connected component contains every query vertex."""


class TooLarge(CommunitySearchError):
    """The graph exceeds the size limit of an exhaustive routine."""


class UnknownLabel(CommunitySearchError):
    """A vertex label does not occur in the graph."""

    def __init__(self, label: str):
        super().__init__(f"unknown vertex label {label!r}")
        self.label = label
