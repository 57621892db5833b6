"""Approximate two-stage local search: bounded expansion, then certified reduction.

Stage one runs the forward push of ``pagerank`` (the one that computes the
exact scores when drained) outward from the query, pushing only the states
leaving vertices it expands.  The mass settled per vertex lower-bounds its
proximity score, and adding the total pending residue gives upper bounds,
which prune the expansion while guaranteeing the expanded set still covers
the exact community.  Stage two peels the expanded set at a geometrically
shrinking approximation level; every level the query survives certifies that
level as an approximation ratio.
"""
from __future__ import annotations

import heapq
import time
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Sequence

from .errors import QueriesDisconnected, QueryNotInSet
from .graph import TemporalGraph
from .pagerank import PushState, QueryContext, drain, propagate, seed_state

# drift allowance for the expansion pruning comparisons: bound sums and the
# degree estimate are accumulated incrementally, so two quantities that are
# equal in real arithmetic can disagree by a few ulps; pruning decisions err
# on the keeping side by this margin so exact-community members never fall out
BOUND_SLACK = 1e-12


def degree_bounds(state: PushState, graph: TemporalGraph, subset, u: int) -> tuple[float, float]:
    """(lower, upper) bracket of u's proximity degree inside ``subset``."""
    space = subset if isinstance(subset, (set, frozenset)) else set(subset)
    lo = 0.0
    for v in graph.adj[u]:
        if v in space:
            lo += state.lower[v]
    return lo, lo + state.residue_total


def expand(graph: TemporalGraph, ctx: QueryContext,
           inspect: Callable[[PushState, list[int], set[int], float], None] | None = None,
           ) -> tuple[list[int], PushState]:
    """Grow a candidate set around the queries that provably covers the exact community.

    Seeds each query q's outgoing states with residue 1/(|S| deg q), the start
    distribution of ``temporal_pagerank``, and breadth-first pops vertices,
    pushing their out-states.  A neighbor enters the frontier only if its
    degree upper bound can still reach the best minimum-degree estimate seen
    so far; when the whole frontier falls below that estimate it is merged in
    and expansion stops.  ``inspect`` (tests) is called after
    every pop with the push state, expanded list, visited set, and estimate.
    """
    queries = ctx.queries
    state = seed_state(graph, ctx)
    if len(queries) > 1 and not graph.co_connected(range(graph.n), queries):
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
    frontier: deque[int] = deque(queries)
    visited: set[int] = set(queries)
    while frontier:
        u = frontier.popleft()
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
                frontier.append(v)
                queued.add(v)
                frontier_sum += lower[v]
        if frontier:
            pending = state.residue_total + frontier_sum
            if pending < beta_hat - BOUND_SLACK:
                for w in frontier:
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


@dataclass
class ApproxResult:
    """Community with a certified approximation ratio.

    beta_lower is the minimum lower-bound degree inside the returned
    community; the exact optimum is at most epsilon times it.  fallback marks
    answers where the query fell in the first reduction round and the
    unreduced expanded set was returned.
    """

    members: frozenset[int]
    epsilon: float
    beta_lower: float
    fallback: bool
    explored: frozenset[int]
    epsilon_trace: tuple[float, ...] = ()
    algorithm: str = "als"
    timings: dict[str, float] = field(default_factory=dict)

    def labels(self, graph: TemporalGraph) -> list[str]:
        return sorted(graph.labels[u] for u in self.members)


def _fresh_degrees(graph: TemporalGraph, lower: list[float], members) -> dict[int, float]:
    space = members if isinstance(members, (set, frozenset)) else set(members)
    out: dict[int, float] = {}
    for u in sorted(space):
        total = 0.0
        for v in graph.adj[u]:
            if v in space:
                total += lower[v]
        out[u] = total
    return out


def reduce_stage(expanded: Sequence[int], state: PushState, graph: TemporalGraph,
                 ctx: QueryContext) -> ApproxResult:
    """Peel the expanded set down to a certified approximate community.

    temp upper-bounds the exact optimum.  Rounds run at level eps_bar,
    cascade-removing every vertex whose lower-bound degree cannot exceed
    temp/eps_bar; a survived round records eps_bar as the certified ratio and
    halves it (never below 1).  Rounds run until one would remove a query
    vertex; that round is discarded, and so is every round from the first
    that splits the query set, found from the removal log by one union-find
    replay.  Zero-degree vertices can never survive any finite level, so they
    are cleared in one unrecorded preliminary round.
    """
    queries = ctx.queries
    qset = set(queries)
    members = set(expanded)
    explored = frozenset(members)
    lower = state.lower
    for q in queries:
        if q not in members:
            raise QueryNotInSet(f"query vertex {graph.labels[q]!r} not in the expanded set")
    if len(members) == 1:
        return ApproxResult(frozenset(members), 1.0, 0.0, False, explored)

    rho = _fresh_degrees(graph, lower, members)
    temp = max(rho.values()) + state.residue_total

    def answer(kept: set[int], eps: float, fallback: bool,
               trace: Sequence[float] = ()) -> ApproxResult:
        component = graph.connected_component(kept, queries[0])
        beta_lower = min(_fresh_degrees(graph, lower, component).values())
        return ApproxResult(frozenset(component), eps, beta_lower, fallback,
                            explored, tuple(trace))

    def run_round(eps_bar: float | None) -> tuple[set[int], bool]:
        """Collect the round's removals; True in the second slot means a query fell.

        eps_bar None is the preliminary zero-degree level.  Degree decrements
        are applied live; a discarded round simply never reuses them.
        """
        def falls(x: int) -> bool:
            if eps_bar is None:
                return rho[x] <= 0.0
            return eps_bar * rho[x] <= temp

        doomed: set[int] = set()
        queue: deque[int] = deque()
        for u in sorted(members):
            if falls(u):
                if u in qset:
                    return doomed, True
                doomed.add(u)
                queue.append(u)
        while queue:
            u = queue.popleft()
            for v in graph.adj[u]:
                if v in members and v not in doomed:
                    rho[v] -= lower[u]
                    if falls(v):
                        if v in qset:
                            return doomed, True
                        doomed.add(v)
                        queue.append(v)
        return doomed, False

    # vertices with zero lower-bound degree cannot survive any finite level;
    # clear them in an unrecorded preliminary round
    while min(rho.values()) <= 0.0:
        doomed, query_fell = run_round(None)
        blocked = query_fell or (len(queries) > 1
                                 and not graph.co_connected(members - doomed, queries))
        if not blocked:
            members -= doomed
            for u in doomed:
                del rho[u]
            break
        if state.residue_total > 0.0:
            # the bounds may just be starved below the push gate: settle all
            # mass and retry the zero level with exact degrees
            drain(state, graph)
            rho = _fresh_degrees(graph, lower, members)
            temp = max(rho.values())
            continue
        # degrees are exact and the queries still cannot outlive the zero
        # level, so no community does better than 0; anything is 1-approximate
        return answer(members, 1.0, True)

    eps_bar = first_level = temp / min(rho.values())
    start = set(members)
    removal_log: list[int] = []
    ends: list[int] = []  # len(removal_log) after each survived round
    trace: list[float] = []
    while True:
        doomed, query_fell = run_round(eps_bar)
        if query_fell:
            break
        members -= doomed
        for u in doomed:
            del rho[u]
        removal_log.extend(doomed)
        ends.append(len(removal_log))
        trace.append(eps_bar)
        eps_bar = max(eps_bar / 2.0, 1.0)
    kept = bisect_right(ends, graph.last_connected_round(start, removal_log, queries))
    if kept == 0:
        return answer(start, first_level, True)
    return answer(start - set(removal_log[:ends[kept - 1]]), trace[kept - 1], False,
                  trace[:kept])


def local_search(graph: TemporalGraph, ctx: QueryContext) -> ApproxResult:
    """Expand then reduce; the exact optimum is at most epsilon * beta_lower."""
    t0 = time.perf_counter()
    expanded, state = expand(graph, ctx)
    t1 = time.perf_counter()
    result = reduce_stage(expanded, state, graph, ctx)
    t2 = time.perf_counter()
    result.timings = {"score_s": t1 - t0, "search_s": t2 - t1}
    return result


# the same function under the name perfbench/run.py calls
local_search_multi = local_search
