"""Ordered-edge view of a temporal graph, kept for tests.

State 2e of edge e = (u, v, t) runs from head u to tail v; state 2e+1 runs
back.  The library walks these states by id; the helpers here spell out the
walk's transition model one state at a time so tests can check it directly.
"""
from __future__ import annotations

from bisect import bisect_right
from typing import NamedTuple

from tpcore import TemporalGraph


class OrderedEdge(NamedTuple):
    """Directed copy of a temporal edge; ``forward`` means head is the stored u."""

    edge: int
    forward: bool

    @property
    def state_id(self) -> int:
        return 2 * self.edge + (0 if self.forward else 1)


def head(g: TemporalGraph, e: OrderedEdge) -> int:
    return int(g.edge_u[e.edge] if e.forward else g.edge_v[e.edge])


def tail(g: TemporalGraph, e: OrderedEdge) -> int:
    return int(g.edge_v[e.edge] if e.forward else g.edge_u[e.edge])


def time(g: TemporalGraph, e: OrderedEdge) -> int:
    return int(g.edge_t[e.edge])


def ordered_edges(g: TemporalGraph) -> list[OrderedEdge]:
    return [OrderedEdge(e, fwd) for e in range(g.m) for fwd in (True, False)]


def dangling(g: TemporalGraph, e: OrderedEdge) -> bool:
    """True iff tail(e) has no incident edge strictly later than time(e)."""
    return g.vertex_dangling(tail(g, e), time(g, e))


def successors(g: TemporalGraph, e: OrderedEdge) -> list[OrderedEdge]:
    """Ordered edges leaving tail(e) at a strictly later time (empty iff dangling)."""
    u = tail(g, e)
    lo = bisect_right(g.inc_times[u], time(g, e))
    return [OrderedEdge(j, int(g.edge_u[j]) == u) for j in g.inc_edges[u][lo:]]


def transition_prob(g: TemporalGraph, ei: OrderedEdge, ej: OrderedEdge) -> float:
    """Probability that the walk at ei moves to ej; dangling states self-loop."""
    if dangling(g, ei):
        return 1.0 if ei == ej else 0.0
    if head(g, ej) != tail(g, ei) or time(g, ej) <= time(g, ei):
        return 0.0
    return (1.0 / (time(g, ej) - time(g, ei))) / g.denominator(tail(g, ei), time(g, ei))
