"""Exact community search by greedy peeling, plus a brute-force test oracle.

The target community is the maximal connected vertex set containing the query
whose minimum proximity-weighted degree (sum of neighbors' proximity scores
inside the set) is as large as possible.  Greedy peeling repeatedly removes
the vertex of minimum proximity degree and returns the best snapshot; the
monotonicity of the degree under subset restriction makes this exact on any
vertex set that contains the optimum, so the exact search peels only the
vertices a flood from the queries takes before a certified lower bound stops it.
"""
from __future__ import annotations

import heapq
import math
import time
from typing import Iterable, Sequence

from .errors import QueriesDisconnected, TooLarge
from .graph import TemporalGraph
from .pagerank import QueryContext, ScoreVector, temporal_pagerank


class CommunityResult:
    """Every solver's answer; ``beta`` is the optimum, or ``als``'s certified lower bound."""

    def __init__(self, members: frozenset[int], beta: float, algorithm: str,
                 timings: dict[str, float] | None = None, scores: ScoreVector | None = None,
                 stats: dict[str, object] | None = None):
        self.members, self.beta, self.algorithm, self.scores = members, beta, algorithm, scores
        self.timings, self.stats = timings or {}, stats or {}

    def labels(self, graph: TemporalGraph) -> list[str]:
        return sorted(graph.labels[u] for u in self.members)


def proximity_degree(scores, graph: TemporalGraph, space, u: int) -> float:
    """Sum of proximity scores over u's de-temporal neighbors inside ``space``.

    Exactly-rounded summation: equal score multisets give equal sums however
    they were reached, which brute force's tie union and ``md`` rely on.
    """
    vals = scores.per_vertex if isinstance(scores, ScoreVector) else scores
    return math.fsum([vals[v] for v in graph.adj[u] if v in space])


def min_proximity_degree(scores, graph: TemporalGraph, members: Iterable[int]) -> float:
    """Minimum proximity degree over ``members``, all degrees taken inside the set."""
    space = members if isinstance(members, (set, frozenset)) else set(members)
    return min(proximity_degree(scores, graph, space, u) for u in space)


def _peel(graph: TemporalGraph, values: Sequence[float], queries: Sequence[int],
          universe: Sequence[int]) -> tuple[set[int], float, float] | None:
    """Greedy removal of minimum-degree vertices inside ``universe``.

    The universe holds every query.  Returns the best snapshot (the universe
    less the removals before the best round), its minimum degree, all degrees
    taken inside the universe, and the largest round degree, connectivity
    ignored and rounded up: the largest minimum degree of a subset of the
    universe that holds the queries (Sozio & Gionis 2010).  Returns None if no
    component of the universe holds every query.  The queries' component of
    the snapshot has the same minimum, or the component's own first
    extraction, later and with the queries still joined, would have won.
    Ties extract the smallest vertex id with query vertices deferred last;
    extracting a query ends the loop (its degree still competes for the best
    snapshot, otherwise the reported optimum would go stale when the query
    itself is the unique minimum).  Only rounds at which the queries
    still share a component compete.  The best round is the earliest of
    largest degree, so the snapshot is the largest optimal one.  Per-vertex
    state lives in dicts keyed by the universe, so a peel costs in proportion
    to the universe's volume, not to n.
    """
    adj = graph.adj
    qset = set(queries)
    # degrees are kept in exact integer arithmetic, the scores scaled to a
    # common power-of-two denominator: no decrement drifts, so the vertex
    # extracted is always a true minimum, even among degrees an ulp apart
    ratios = [values[u].as_integer_ratio() for u in universe]
    scale = max(den for _, den in ratios)
    exact = {u: num * (scale // den) for u, (num, den) in zip(universe, ratios)}
    # rho holds the degree of every vertex still alive, and only of those
    rho = {u: sum([exact[v] for v in adj[u] if v in exact]) for u in universe}
    heap = [(rho[u], u in qset, u) for u in universe]
    heapq.heapify(heap)
    removal_log: list[int] = []
    # degree of each round's extracted vertex, correctly rounded (int division
    # is), so it equals the math.fsum of its neighbours' scores
    round_degrees: list[float] = []
    top = 0

    while heap:
        val, _, u = heapq.heappop(heap)
        if val != rho.get(u):
            continue
        round_degrees.append(val / scale)
        if val > top:
            top = val
        if u in qset:
            break
        del rho[u]
        removal_log.append(u)
        score_u = exact[u]
        if score_u:  # a zero score leaves every neighbour's heap entry current
            for v in adj[u]:
                if v in rho:
                    rho[v] -= score_u
                    heapq.heappush(heap, (rho[v], v in qset, v))

    last = graph.last_connected_round(universe, removal_log, queries)
    if last < 0:
        return None
    best_beta = max(round_degrees[:last + 1])
    num, den = (bound := top / scale).as_integer_ratio()
    if num * scale < top * den:  # the division rounded down
        bound = math.nextafter(bound, math.inf)
    return exact.keys() - removal_log[:round_degrees.index(best_beta)], best_beta, bound


def exact_community(graph: TemporalGraph, ctx: QueryContext) -> CommunityResult:
    """Exact search for a query set: score, flood from the queries, peel what the flood took.

    A widest-path flood from the first query takes a reached query first,
    else the reached vertex of largest full-graph proximity degree.  Whenever
    the taken set holds every query and has doubled since the last peel, its
    peel's best degree, met on a connected superset of the queries, is a lower
    bound b of the optimum.  The flood stops once every reached vertex left
    has full degree < b: a member of the maximal optimum has full degree >=
    the optimum >= b and the optimum is connected and holds the first query,
    so the taken set holds it, and the greedy peel is exact on any universe
    that does.  A query set split across components shows up as the flood
    running out.  The answer, the last peel's component of the first query,
    is walked once.  ``stats`` records b, the size of the prefix whose peel
    gave it and the size of the final universe.
    """
    queries = ctx.queries
    t0 = time.perf_counter()
    scores = temporal_pagerank(graph, ctx)
    t1 = time.perf_counter()
    values = scores.per_vertex
    adj = graph.adj
    qset = set(queries)
    missing = len(qset) - 1
    u = queries[0]
    taken = [u]
    seen = {u}
    heap: list[tuple[float, int]] = []
    bound, bound_set = 0.0, 0  # every degree is >= 0: no stop before the first peel
    while True:
        for v in adj[u]:
            if v not in seen:
                seen.add(v)
                key = -math.inf if v in qset else -math.fsum([values[w] for w in adj[v]])
                heapq.heappush(heap, (key, v))
        if not missing and len(taken) >= 2 * bound_set:
            survivors, beta, _ = _peel(graph, values, queries, taken)
            bound, bound_set = beta, len(taken)
        if not heap or -heap[0][0] < bound:
            break
        _, u = heapq.heappop(heap)
        taken.append(u)
        missing -= u in qset
    if missing:
        raise QueriesDisconnected("query vertices lie in different components")
    if len(taken) > bound_set:
        survivors, beta, _ = _peel(graph, values, queries, taken)
    members = frozenset(graph.connected_component(survivors, queries[0]))
    t2 = time.perf_counter()
    return CommunityResult(members, beta, "egr",
                           {"score_s": t1 - t0, "search_s": t2 - t1}, scores,
                           {"bound": bound, "bound_set": bound_set, "region": len(taken)})


# the same function under the name perfbench/run.py calls
exact_community_multi = exact_community


def brute_force_search(graph: TemporalGraph, ctx: QueryContext) -> CommunityResult:
    """Enumerate every connected superset of the queries; return the maximal optimum.

    The union of all optimal sets is itself optimal (degrees only grow under
    union), so it is the unique maximal answer.  Exponential: refuses n > 12.
    """
    if graph.n > 12:
        raise TooLarge(f"brute force limited to 12 vertices, got {graph.n}")
    t0 = time.perf_counter()
    scores = temporal_pagerank(graph, ctx)
    t1 = time.perf_counter()
    values = scores.per_vertex
    n = graph.n
    qmask = 0
    for q in ctx.queries:
        qmask |= 1 << q
    best = -1.0
    union = 0
    for mask in range(1, 1 << n):
        if mask & qmask != qmask:
            continue
        members = {u for u in range(n) if mask >> u & 1}
        if len(graph.connected_component(members, ctx.queries[0])) < len(members):
            continue
        mn = min_proximity_degree(values, graph, members)
        if mn > best:
            best = mn
            union = mask
        elif mn == best:
            union |= mask
    if not union:
        raise QueriesDisconnected("query vertices lie in different components")
    members = frozenset(u for u in range(n) if union >> u & 1)
    t2 = time.perf_counter()
    return CommunityResult(members, best, "brute",
                           {"score_s": t1 - t0, "search_s": t2 - t1}, scores)
