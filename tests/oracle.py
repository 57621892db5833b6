"""Reference views of a temporal graph, kept for tests.

Everything here is computed from ``edge_list`` alone, one edge at a time, so
tests can check the library's numpy-built layout and its metrics against it.
Out-state 2e of edge e = (u, v, t) runs from head u to tail v; 2e+1 runs
back.  The ordered-edge helpers spell out the walk's transition model one
state at a time, and ``stop_dict_pagerank`` scores a query set by a dynamic
program over the stream that shares only the graph's denominators with the
library's push.
"""
from __future__ import annotations

from typing import NamedTuple

import numpy as np

from tpcore import QueryContext, TemporalGraph


class OrderedEdge(NamedTuple):
    """Directed copy of a temporal edge; ``forward`` means head is the stored u."""

    edge: int
    forward: bool

    @property
    def state_id(self) -> int:
        return 2 * self.edge + (0 if self.forward else 1)


def head(g: TemporalGraph, e: OrderedEdge) -> int:
    u, v, _ = g.edge_list[e.edge]
    return u if e.forward else v


def tail(g: TemporalGraph, e: OrderedEdge) -> int:
    u, v, _ = g.edge_list[e.edge]
    return v if e.forward else u


def time(g: TemporalGraph, e: OrderedEdge) -> int:
    return g.edge_list[e.edge][2]


def ordered_edges(g: TemporalGraph) -> list[OrderedEdge]:
    return [OrderedEdge(e, fwd) for e in range(g.m) for fwd in (True, False)]


def dangling(g: TemporalGraph, e: OrderedEdge) -> bool:
    """True iff tail(e) has no incident edge strictly later than time(e)."""
    return g.vertex_dangling(tail(g, e), time(g, e))


def successors(g: TemporalGraph, e: OrderedEdge) -> list[OrderedEdge]:
    """Ordered edges leaving tail(e) at a strictly later time (empty iff dangling)."""
    u, t = tail(g, e), time(g, e)
    return [OrderedEdge(j, a == u) for j, (a, b, tj) in enumerate(g.edge_list)
            if u in (a, b) and tj > t]


def transition_prob(g: TemporalGraph, ei: OrderedEdge, ej: OrderedEdge) -> float:
    """Probability that the walk at ei moves to ej; dangling states self-loop."""
    if dangling(g, ei):
        return 1.0 if ei == ej else 0.0
    if head(g, ej) != tail(g, ei) or time(g, ej) <= time(g, ei):
        return 0.0
    return (1.0 / (time(g, ej) - time(g, ei))) / g.denominator(tail(g, ei), time(g, ei))


# ---- the edge-stream score DP, as a reference --------------------------------

def stop_dict_pagerank(g: TemporalGraph, ctx: QueryContext) -> np.ndarray:
    """Exact proximity scores for a query set by one pass over the stream.

    Maintains stop[u][t], the probability that the discounted walk stops at u
    having arrived on an edge with timestamp t; the walk starts with mass
    1/(|S| deg q) on each outgoing state of every query q.  Each stream edge
    (u, v, t) forwards mass from both endpoint dictionaries; entries written
    at time t contribute nothing to the same edge because continuations need
    a strictly later time.  Dangling entries are divided by alpha at the end:
    a walk reaching a dead-end state stops there with probability 1 in the
    limit.
    """
    alpha = ctx.alpha
    keep = 1.0 - alpha
    seed = [0.0] * g.n
    for q in ctx.queries:
        seed[q] = alpha / (len(ctx.queries) * len(g.inc_times[q]))
    stop: list[dict[int, float]] = [{} for _ in range(g.n)]

    def forward(src: dict[int, float], x: int, t: int) -> float:
        return keep * sum(mass / ((t - t1) * g.denominator(x, t1))
                          for t1, mass in src.items() if t1 < t)

    for u, v, t in g.edge_list:
        du, dv = stop[u], stop[v]
        dv[t] = dv.get(t, 0.0) + forward(du, u, t) + seed[u]
        du[t] = du.get(t, 0.0) + forward(dv, v, t) + seed[v]

    values = np.zeros(g.n)
    for u, d in enumerate(stop):
        values[u] = sum(mass / alpha if g.vertex_dangling(u, t) else mass
                        for t, mass in d.items())
    return values


# ---- the per-edge build and the numpy-mask metrics, as references -------------

def reference_layout(g: TemporalGraph) -> dict:
    """Incidence, adjacency and per-vertex counts built by one loop over the stream."""
    inc: list[list[tuple[int, int]]] = [[] for _ in range(g.n)]
    adj: list[set[int]] = [set() for _ in range(g.n)]
    for e, (u, v, t) in enumerate(g.edge_list):
        inc[u].append((t, 2 * e))
        inc[v].append((t, 2 * e + 1))
        adj[u].add(v)
        adj[v].add(u)
    inc_times = [[t for t, _ in lst] for lst in inc]
    return {
        "inc_times": inc_times,
        "inc_states": [[s for _, s in lst] for lst in inc],
        "adj": [sorted(a) for a in adj],
        "max_time": [ts[-1] if ts else -1 for ts in inc_times],
        "occurrence": [len(set(ts)) for ts in inc_times],
        "m_static": sum(len(a) for a in adj) // 2,
    }


def library_layout(g: TemporalGraph) -> dict:
    """The same fields as ``reference_layout``, read off the library's graph."""
    return {
        "inc_times": g.inc_times,
        "inc_states": g.inc_states,
        "adj": g.adj,
        "max_time": g.max_time,
        "occurrence": [int(c) for c in g.occurrence],
        "m_static": g.m_static,
    }


def reference_metrics(g: TemporalGraph, subset) -> tuple[float, float, int]:
    """(temporal density, temporal conductance, internal times) by masks over all m edges."""
    cols = np.array(g.edge_list, dtype=np.int64).reshape(g.m, 3)
    edge_u, edge_v, edge_t = cols[:, 0], cols[:, 1], cols[:, 2]
    mask = np.zeros(g.n, dtype=bool)
    mask[list(subset)] = True
    size = int(mask.sum())
    internal = mask[edge_u] & mask[edge_v]
    count = int(internal.sum())
    distinct_times = len(np.unique(edge_t[internal]))
    td = 0.0
    if size > 1 and count:
        td = 2.0 * count / (size * (size - 1) * distinct_times)
    side_u, side_v = mask[edge_u], mask[edge_v]
    cut = int((side_u ^ side_v).sum())
    tc = 0.0
    if cut:
        vol_s = int(side_u.sum()) + int(side_v.sum())
        tc = cut / min(vol_s, 2 * g.m - vol_s)
    return td, tc, distinct_times
