"""Exact community search by greedy peeling, plus baselines and a test oracle.

The target community is the maximal connected vertex set containing the query
whose minimum proximity-weighted degree (sum of neighbors' proximity scores
inside the set) is as large as possible.  Greedy peeling repeatedly removes
the vertex of minimum proximity degree and returns the best snapshot; the
monotonicity of the degree under subset restriction makes this exact.
"""
from __future__ import annotations

import heapq
import math
import time
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .errors import NoCore, QueriesDisconnected, TooLarge
from .graph import TemporalGraph
from .pagerank import QueryContext, ScoreVector, temporal_pagerank


@dataclass
class CommunityResult:
    members: frozenset[int]
    beta: float
    algorithm: str
    timings: dict[str, float] = field(default_factory=dict)
    scores: ScoreVector | None = None

    def labels(self, graph: TemporalGraph) -> list[str]:
        return sorted(graph.labels[u] for u in self.members)


def proximity_degree(scores, graph: TemporalGraph, space, u: int) -> float:
    """Sum of proximity scores over u's de-temporal neighbors inside ``space``.

    Exactly-rounded summation: sets with the same score multiset compare equal
    no matter how they were reached, which the peeling tie-breaks rely on.
    """
    vals = scores.values if isinstance(scores, ScoreVector) else scores
    return math.fsum(vals[v] for v in graph.adj[u] if v in space)


def min_proximity_degree(scores, graph: TemporalGraph, members: Iterable[int]) -> float:
    """Minimum proximity degree over ``members``, all degrees taken inside the set."""
    space = members if isinstance(members, (set, frozenset)) else set(members)
    return min(proximity_degree(scores, graph, space, u) for u in space)


def _peel(graph: TemporalGraph, values: np.ndarray,
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
    rho = [proximity_degree(values, graph, range(n), u) for u in range(n)]
    # full-space degrees: every vertex is present initially
    alive = [True] * n
    heap = [(rho[u], u in qset, u) for u in range(n)]
    heapq.heapify(heap)
    removal_log: list[int] = []
    # degree of each round's extracted vertex, taken exactly rounded rather
    # than from the drift-prone decremented heap value, so real ties stay ties
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
        score_u = float(values[u])
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


def exact_community(graph: TemporalGraph, ctx: QueryContext) -> CommunityResult:
    """Exact search for a query set: score, peel, return the optimum.

    Peeling stops once the query set would split or shrink.
    """
    if len(ctx.queries) > 1 and not graph.co_connected(range(graph.n), ctx.queries):
        raise QueriesDisconnected("query vertices lie in different components")
    t0 = time.perf_counter()
    scores = temporal_pagerank(graph, ctx)
    t1 = time.perf_counter()
    component, beta = _peel(graph, scores.values, ctx.queries)
    t2 = time.perf_counter()
    return CommunityResult(frozenset(component), beta, "egr",
                           {"score_s": t1 - t0, "search_s": t2 - t1}, scores)


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
    values = scores.values
    n = graph.n
    qmask = 0
    for q in ctx.queries:
        qmask |= 1 << q
    adj_mask = [0] * n
    for u in range(n):
        for v in graph.adj[u]:
            adj_mask[u] |= 1 << v

    def connected(mask: int) -> bool:
        start = (mask & -mask).bit_length() - 1
        seen = 1 << start
        frontier = [start]
        while frontier:
            u = frontier.pop()
            fresh = adj_mask[u] & mask & ~seen
            while fresh:
                v = (fresh & -fresh).bit_length() - 1
                seen |= 1 << v
                fresh &= fresh - 1
                frontier.append(v)
        return seen == mask

    best = -1.0
    union = 0
    for mask in range(1, 1 << n):
        if mask & qmask != qmask or not connected(mask):
            continue
        members = {u for u in range(n) if mask >> u & 1}
        mn = min_proximity_degree(values, graph, members)
        if mn > best:
            best = mn
            union = mask
        elif mn == best:
            union |= mask
    members = frozenset(u for u in range(n) if union >> u & 1)
    t2 = time.perf_counter()
    return CommunityResult(members, best, "brute",
                           {"score_s": t1 - t0, "search_s": t2 - t1}, scores)


def kcore_baseline(graph: TemporalGraph, ctx: QueryContext, k: int) -> CommunityResult:
    """Two-criteria baseline: connected k-core containing q, maximizing min score.

    One cascade with a maintained degree per vertex (Batagelj & Zaversnik
    2003) cuts the maximal k-core, then peels q's component of it in
    (score, is_query, id) order, cascading the degree constraint and logging
    the removals.  The answer is q's component at the first round whose taken
    score is the best, read once at the end: a removal elsewhere never touches
    that component, and the taken scores never decrease.  The reported beta is
    that min score, not a proximity degree.  Heuristic peeling: the model
    separates structure from proximity, and no exact algorithm is claimed.
    """
    if len(ctx.queries) != 1:
        raise ValueError("kcore_baseline takes exactly one query vertex")
    if k < 0:
        raise ValueError("k must be non-negative")
    q = ctx.queries[0]
    t0 = time.perf_counter()
    scores = temporal_pagerank(graph, ctx)
    t1 = time.perf_counter()
    values = scores.values.tolist()
    adj = graph.adj
    deg = [len(nbrs) for nbrs in adj]
    alive = [True] * graph.n
    removed: list[int] = []

    def remove(u: int) -> None:
        """Remove u and every vertex whose degree then falls below k; log them all."""
        alive[u] = False
        stack = [u]
        while stack:
            x = stack.pop()
            removed.append(x)
            for v in adj[x]:
                if alive[v]:
                    deg[v] -= 1
                    if deg[v] < k:
                        alive[v] = False
                        stack.append(v)

    for u in range(graph.n):
        if alive[u] and deg[u] < k:
            remove(u)
    if not alive[q]:
        raise NoCore(f"query vertex {graph.labels[q]!r} is not in any connected {k}-core")

    start = graph.connected_component([u for u in range(graph.n) if alive[u]], q)
    removed.clear()
    best_val = -1.0
    best_round = 0
    for u in sorted(start, key=lambda u: (values[u], u == q, u)):
        if not alive[u]:
            continue
        if values[u] > best_val:
            best_val = values[u]
            best_round = len(removed)
        if u == q:
            break
        remove(u)
        if not alive[q]:
            break
    members = graph.connected_component(start.difference(removed[:best_round]), q)
    t2 = time.perf_counter()
    return CommunityResult(frozenset(members), best_val, "baseline",
                           {"score_s": t1 - t0, "search_s": t2 - t1}, scores)
