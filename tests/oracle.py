"""Reference views of a temporal graph, kept for tests.

Everything here is computed from the stream of (u, v, t) edges alone, one
edge at a time, so tests can check the library's layout, built by
whole-stream passes, and its metrics against it.  The graph keeps the stream
only as its per-state lists ``state_tail`` and ``state_time``; ``stream_edge``
and ``edge_list`` read the edges off them, ``triple`` reads one edge's
labels, ``arrival`` one state's (vertex, time), and ``same_graph`` compares
two graphs by their labels and stream.  ``joins`` tells whether one component
of a vertex set holds every query.
Out-state 2e of edge e = (u, v, t) runs from head u to tail v; 2e+1 runs
back.  The ordered-edge helpers spell out the walk's transition model one
state at a time, and ``stop_dict_pagerank`` scores a query set by a dynamic
program over the stream that shares only ``graph.denominator`` with the
library's push, which memoizes its values per state.
``reference_exact_community`` is the exact search that peels the whole
graph, and ``reference_expand`` the expansion that pushes each vertex's
out-states only when it pops.
``degree_bounds`` brackets a vertex's proximity degree by a push state's
bounds, for the sandwich checks.  ``reference_drain`` is the drain as one
``compress`` over every state id, without blocks.
"""
from __future__ import annotations

import heapq
import math
import time as _time
from functools import cache
from itertools import compress
from typing import Callable, NamedTuple, Sequence

import numpy as np

from tpcore import (CommunityResult, PushState, QueriesDisconnected, QueryContext,
                    TemporalGraph, min_proximity_degree, temporal_pagerank)
from tpcore.local import BOUND_SLACK
from tpcore.pagerank import propagate, seed_state


def stream_edge(g: TemporalGraph, e: int) -> tuple[int, int, int]:
    """Edge e of the time-sorted stream as (u, v, t): state 2e runs from u to v."""
    return g.state_tail[2 * e + 1], g.state_tail[2 * e], g.state_time[2 * e]


def edge_list(g: TemporalGraph) -> list[tuple[int, int, int]]:
    """The time-sorted stream of (u, v, t)."""
    return [stream_edge(g, e) for e in range(g.m)]


def triple(g: TemporalGraph, e: int) -> tuple[str, str, int]:
    """Edge e of the stream as (u_label, v_label, t)."""
    u, v, t = stream_edge(g, e)
    return g.labels[u], g.labels[v], t


def arrival(g: TemporalGraph, s: int) -> tuple[int, int]:
    """(vertex, time) at which out-state ``s`` arrives."""
    return g.state_tail[s], g.state_time[s]


def same_graph(g: TemporalGraph, h: TemporalGraph) -> bool:
    """True iff the two graphs have the same labels and the same stream."""
    return (g.labels == h.labels and g.state_tail == h.state_tail
            and g.state_time == h.state_time)


def joins(g: TemporalGraph, subset, queries: Sequence[int]) -> bool:
    """True iff one component of the subgraph induced by ``subset`` holds every query."""
    members = set(subset)
    return (members.issuperset(queries)
            and g.connected_component(members, queries[0]).issuperset(queries))


class OrderedEdge(NamedTuple):
    """Directed copy of a temporal edge; ``forward`` means head is the stored u."""

    edge: int
    forward: bool

    @property
    def state_id(self) -> int:
        return 2 * self.edge + (0 if self.forward else 1)


def head(g: TemporalGraph, e: OrderedEdge) -> int:
    u, v, _ = stream_edge(g, e.edge)
    return u if e.forward else v


def tail(g: TemporalGraph, e: OrderedEdge) -> int:
    u, v, _ = stream_edge(g, e.edge)
    return v if e.forward else u


def time(g: TemporalGraph, e: OrderedEdge) -> int:
    return stream_edge(g, e.edge)[2]


def ordered_edges(g: TemporalGraph) -> list[OrderedEdge]:
    return [OrderedEdge(e, fwd) for e in range(g.m) for fwd in (True, False)]


def vertex_dangling(g: TemporalGraph, u: int, t: int) -> bool:
    """True iff u has no incident edge strictly later than t."""
    times = g.inc_times[u]
    return not times or t >= times[-1]


def dangling(g: TemporalGraph, e: OrderedEdge) -> bool:
    """True iff tail(e) has no incident edge strictly later than time(e)."""
    return vertex_dangling(g, tail(g, e), time(g, e))


def successors(g: TemporalGraph, e: OrderedEdge) -> list[OrderedEdge]:
    """Ordered edges leaving tail(e) at a strictly later time (empty iff dangling)."""
    u, t = tail(g, e), time(g, e)
    return [OrderedEdge(j, a == u) for j, (a, b, tj) in enumerate(edge_list(g))
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
    denominator = cache(g.denominator)  # the graph computes each call afresh

    def forward(src: dict[int, float], x: int, t: int) -> float:
        return keep * sum(mass / ((t - t1) * denominator(x, t1))
                          for t1, mass in src.items() if t1 < t)

    for u, v, t in edge_list(g):
        du, dv = stop[u], stop[v]
        dv[t] = dv.get(t, 0.0) + forward(du, u, t) + seed[u]
        du[t] = du.get(t, 0.0) + forward(dv, v, t) + seed[v]

    values = np.zeros(g.n)
    for u, d in enumerate(stop):
        values[u] = sum(mass / alpha if vertex_dangling(g, u, t) else mass
                        for t, mass in d.items())
    return values


# ---- the per-edge build and the numpy-mask metrics, as references -------------

def reference_layout(g: TemporalGraph) -> dict:
    """Incidence, adjacency and per-vertex counts built by one loop over the stream."""
    inc: list[list[tuple[int, int]]] = [[] for _ in range(g.n)]
    adj: list[set[int]] = [set() for _ in range(g.n)]
    for e, (u, v, t) in enumerate(edge_list(g)):
        inc[u].append((t, 2 * e))
        inc[v].append((t, 2 * e + 1))
        adj[u].add(v)
        adj[v].add(u)
    inc_times = [[t for t, _ in lst] for lst in inc]
    return {
        "inc_times": inc_times,
        "inc_states": [[s for _, s in lst] for lst in inc],
        "adj": [sorted(a) for a in adj],
        "occurrence": [len(set(ts)) for ts in inc_times],
        "m_static": sum(len(a) for a in adj) // 2,
    }


def library_layout(g: TemporalGraph) -> dict:
    """The fields of ``reference_layout`` that the library's graph keeps, read
    off it; the graph keeps only the largest occurrence, ``t_max_occurrence``."""
    return {
        "inc_times": g.inc_times,
        "inc_states": g.inc_states,
        "adj": g.adj,
        "m_static": g.m_static,
    }


def reference_metrics(g: TemporalGraph, subset) -> tuple[float, float, int]:
    """(temporal density, temporal conductance, internal times) by masks over all m edges."""
    cols = np.array(edge_list(g), dtype=np.int64).reshape(g.m, 3)
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


# ---- the whole-graph exact peel as first written, as a reference --------------
# It peels every vertex of the graph; the library's version peels only the
# region its certified bound leaves.  The bodies are unchanged, except for the
# names, the call between them, `time` imported as `_time` here, and the
# peel's heap keys: exact integers over a common power-of-two denominator in
# place of float degrees decremented per removal, which drift by an ulp and
# can extract a vertex above the true minimum.  The up-front test that one
# component holds every query is `joins` here, since the graph no longer has one.

def reference_peel(graph: TemporalGraph, values: np.ndarray,
                   queries: Sequence[int]) -> tuple[set[int], float]:
    """Greedy removal of minimum-degree vertices; returns the best snapshot's component.

    The snapshot is kept as a removal log plus the index of the best round, so
    no per-round copies are made.  Ties extract the smallest vertex id with
    query vertices deferred last; extracting a query ends the loop (its degree
    still competes for the best snapshot, otherwise the reported optimum would
    go stale when the query itself is the unique minimum).  Only rounds at
    which the queries still share a component compete.  The best round uses
    strict improvement, which keeps the earliest and therefore largest optimal
    snapshot.
    """
    n = graph.n
    qset = set(queries)
    # every score is num / den with den a power of two, so scaling by the
    # largest den makes each an exact integer and each degree an exact sum
    ratios = [float(values[u]).as_integer_ratio() for u in range(n)]
    scale = max(den for _, den in ratios)
    exact = [num * (scale // den) for num, den in ratios]
    # full-space degrees: every vertex is present initially
    rho = [sum(exact[v] for v in graph.adj[u]) for u in range(n)]
    alive = [True] * n
    heap = [(rho[u], u in qset, u) for u in range(n)]
    heapq.heapify(heap)
    removal_log: list[int] = []
    # degree of each round's extracted vertex, exactly rounded
    round_degrees: list[float] = []

    while heap:
        val, _, u = heapq.heappop(heap)
        if not alive[u] or val != rho[u]:
            continue
        round_degrees.append(math.fsum(values[v] for v in graph.adj[u] if alive[v]))
        if u in qset:
            break
        alive[u] = False
        removal_log.append(u)
        score_u = exact[u]
        for v in graph.adj[u]:
            if alive[v]:
                rho[v] -= score_u
                heapq.heappush(heap, (rho[v], v in qset, v))

    best_beta = 0.0
    best_round = 0
    last = graph.last_connected_round(range(n), removal_log, queries)
    for i, degree in enumerate(round_degrees[:last + 1]):
        if degree > best_beta:
            best_beta = degree
            best_round = i
    survivors = set(range(n)) - set(removal_log[:best_round])
    component = graph.connected_component(survivors, queries[0])
    beta = min_proximity_degree(values, graph, component)
    return component, beta


def reference_exact_community(graph: TemporalGraph, ctx: QueryContext) -> CommunityResult:
    """Exact search for a query set: score, peel, return the optimum.

    Peeling stops once the query set would split or shrink.
    """
    if len(ctx.queries) > 1 and not joins(graph, range(graph.n), ctx.queries):
        raise QueriesDisconnected("query vertices lie in different components")
    t0 = _time.perf_counter()
    scores = temporal_pagerank(graph, ctx)
    t1 = _time.perf_counter()
    component, beta = reference_peel(graph, scores.values, ctx.queries)
    t2 = _time.perf_counter()
    return CommunityResult(frozenset(component), beta, "egr",
                           {"score_s": t1 - t0, "search_s": t2 - t1}, scores)


# ---- the push state's degree bracket ------------------------------------------

def degree_bounds(state: PushState, graph: TemporalGraph, subset, u: int) -> tuple[float, float]:
    """(lower, upper) bracket of u's proximity degree inside ``subset``."""
    space = subset if isinstance(subset, (set, frozenset, range)) else set(subset)
    lo = 0.0
    for v in graph.adj[u]:
        if v in space:
            lo += state.lower[v]
    return lo, lo + state.residue_total


def reference_drain(state: PushState, graph: TemporalGraph) -> None:
    """Settle all pending mass: push every state holding mass, in id order, in one scan."""
    propagate(state, compress(range(2 * graph.m), state.residue), graph, force=True)
    state.residue_total = 0.0


# ---- the expansion as first written, as a reference ----------------------------
# It pushes a vertex's out-states once, when the vertex pops; the library's
# version also re-pushes mass that lands on them later.  The body is
# unchanged, except for the name and the up-front test that one component
# holds every query, which is `joins` here.

def reference_expand(graph: TemporalGraph, ctx: QueryContext,
                     inspect: Callable[[PushState, list[int], set[int], float], None]
                     | None = None,
                     ) -> tuple[list[int], PushState]:
    """Grow a candidate set around the queries that provably covers the exact community.

    Seeds each query q's outgoing states with residue 1/(|S| deg q), the start
    distribution of ``temporal_pagerank``, and pops vertices, pushing their
    out-states: the queries first, then the frontier vertex holding the most
    settled mass, keyed once when it is admitted.  A neighbor enters the frontier only if its
    degree upper bound can still reach the best minimum-degree estimate seen
    so far; when the whole frontier falls below that estimate it is merged in
    and expansion stops.  ``inspect`` (tests) is called after
    every pop with the push state, expanded list, visited set, and estimate.
    """
    queries = ctx.queries
    state = seed_state(graph, ctx)
    if len(queries) > 1 and not joins(graph, range(graph.n), queries):
        raise QueriesDisconnected("query vertices lie in different components")

    lower = state.lower
    expanded: list[int] = []
    in_expanded: set[int] = set()
    rho_hat: dict[int, float] = {}
    # entries go stale as estimates grow (they only grow), so the current
    # minimum is the first heap entry that still matches its vertex's value
    rho_heap: list[tuple[float, int]] = []
    queued: set[int] = set(queries)
    frontier_sum = 0.0

    def on_lower(vertex: int, delta: float) -> None:
        nonlocal frontier_sum
        if delta == 0.0:
            return
        if vertex in queued:
            frontier_sum += delta
        # only expanded vertices contribute to expanded degrees; bounds gained
        # by a vertex still outside are picked up when it joins
        if vertex not in in_expanded:
            return
        for w in graph.adj[vertex]:
            if w in in_expanded:
                rho_hat[w] += delta
                heapq.heappush(rho_heap, (rho_hat[w], w))

    beta_hat = 0.0
    query_set = set(queries)
    frontier = sorted((-math.inf, q) for q in queries)
    visited: set[int] = set(queries)
    while frontier:
        u = heapq.heappop(frontier)[1]
        queued.discard(u)
        frontier_sum -= lower[u]
        in_expanded.add(u)
        expanded.append(u)
        val = 0.0
        for v in graph.adj[u]:
            if v in in_expanded:
                rho_hat[v] += lower[u]
                heapq.heappush(rho_heap, (rho_hat[v], v))
                val += lower[v]
        rho_hat[u] = val
        heapq.heappush(rho_heap, (val, u))
        propagate(state, graph.inc_states[u], graph, on_lower, force=u in query_set)
        while rho_heap[0][0] != rho_hat[rho_heap[0][1]]:
            heapq.heappop(rho_heap)
        current_min = rho_heap[0][0]
        if current_min > beta_hat:
            beta_hat = current_min
        for v in graph.adj[u]:
            if v in visited:
                continue
            visited.add(v)
            reach = state.residue_total
            for w in graph.adj[v]:
                reach += lower[w]
            if reach >= beta_hat - BOUND_SLACK:
                heapq.heappush(frontier, (-lower[v], v))
                queued.add(v)
                frontier_sum += lower[v]
        if frontier:
            pending = state.residue_total + frontier_sum
            if pending < beta_hat - BOUND_SLACK:
                for _, w in frontier:
                    in_expanded.add(w)
                    expanded.append(w)
                frontier.clear()
                queued.clear()
                if inspect is not None:
                    inspect(state, expanded, visited, beta_hat)
                break
        if inspect is not None:
            inspect(state, expanded, visited, beta_hat)
    return expanded, state
