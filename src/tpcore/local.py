"""Approximate two-stage local search: bounded expansion, then certified reduction.

Stage one runs the forward push of ``pagerank`` (the one that computes the
exact scores when drained) outward from the query, pushing only the states
leaving vertices it expands: when each pops, and again, within a work credit
earned by the expansion's reads, when later pushes leave mass on them.  The
mass settled per vertex lower-bounds its proximity score, and adding the
total pending residue gives upper bounds, which prune the expansion while
guaranteeing the expanded set still covers the exact community.  Stage two
peels the expanded set at a geometrically shrinking approximation level;
every level the query survives certifies that level as an approximation
ratio.
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
    space = subset if isinstance(subset, (set, frozenset, range)) else set(subset)
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
    pushing their out-states.  Mass that a later push settles at an expanded
    vertex lands on out-states that were already pushed; such fed vertices
    are pushed again after each pop, in the stream order of their first
    out-states, while a work credit lasts: the expansion earns one unit per
    adjacency entry it reads (the popped row and each candidate's admission
    sum) and a re-push spends one per out-state it scans, so re-pushing costs
    at most the expansion's own reads plus one vertex's out-states (the
    residue-threshold push of Andersen, Chung & Lang, 2006).  A neighbor enters
    the frontier only if its degree upper bound (settled mass around it plus
    all pending residue, which the re-push lowers) can still reach the best
    minimum-degree estimate seen so far; for a query set the estimate counts
    only once the expanded set joins every query, since before that it bounds
    no community that holds them all.  When the whole frontier falls below
    that estimate it is merged in and expansion stops.  The state records the
    pushes made and the re-pushes among them.  ``inspect`` (tests) is called
    after every pop and its re-push with the push state, expanded list,
    visited set, and estimate.
    """
    queries = ctx.queries
    state = seed_state(graph, ctx)
    if len(queries) > 1 and not graph.co_connected(range(graph.n), queries):
        raise QueriesDisconnected("query vertices lie in different components")

    adj = graph.adj
    inc_states = graph.inc_states
    lower = state.lower
    expanded: list[int] = []
    in_expanded: set[int] = set()
    rho_hat: dict[int, float] = {}
    # one entry per expanded vertex; estimates only grow, so a stale entry
    # under-keys its vertex and is re-keyed when it reaches the top
    rho_heap: list[tuple[float, int]] = []
    queued: set[int] = set(queries)
    frontier_sum = 0.0
    # expanded vertices holding mass that landed after their pop, keyed by
    # their first out-state id
    fed_heap: list[tuple[int, int]] = []
    fed: set[int] = set()
    pushes = 0

    def on_lower(vertex: int, delta: float) -> None:
        nonlocal frontier_sum, pushes
        pushes += 1
        if delta == 0.0:
            return
        if vertex in queued:
            frontier_sum += delta
        # only expanded vertices contribute to expanded degrees; bounds gained
        # by a vertex still outside are picked up when it joins
        if vertex not in in_expanded:
            return
        if vertex not in fed:
            fed.add(vertex)
            heapq.heappush(fed_heap, (inc_states[vertex][0], vertex))
        for w in adj[vertex]:
            if w in in_expanded:
                rho_hat[w] += delta

    # the estimate bounds the optimum only once the expanded set joins every
    # query; until then each expanded vertex records the query whose search
    # tree it grew in, and trees meeting along an edge are merged
    tree = {q: i for i, q in enumerate(queries)}
    merged = list(range(len(queries)))
    trees_left = len(queries)

    def root(i: int) -> int:
        while merged[i] != i:
            i = merged[i]
        return i

    beta_hat = 0.0
    credit = 0
    repushes = 0
    query_set = set(queries)
    frontier: deque[int] = deque(queries)
    visited: set[int] = set(queries)
    while frontier:
        u = frontier.popleft()
        queued.discard(u)
        frontier_sum -= lower[u]
        in_expanded.add(u)
        expanded.append(u)
        row = adj[u]
        credit += len(row)
        val = 0.0
        for v in row:
            if v in in_expanded:
                rho_hat[v] += lower[u]
                val += lower[v]
        rho_hat[u] = val
        heapq.heappush(rho_heap, (val, u))
        if trees_left > 1:
            mine = root(tree[u])
            for v in row:
                if v in in_expanded:
                    other = root(tree[v])
                    if other != mine:
                        merged[other] = mine
                        trees_left -= 1
        propagate(state, inc_states[u], graph, on_lower, force=u in query_set)
        # re-push stranded mass, paid for by the reads made so far
        while fed_heap and credit > 0:
            v = heapq.heappop(fed_heap)[1]
            fed.remove(v)
            out = inc_states[v]
            credit -= len(out)
            before = pushes
            propagate(state, out, graph, on_lower)
            repushes += pushes - before
        current_min, v = rho_heap[0]
        while current_min != rho_hat[v]:
            heapq.heapreplace(rho_heap, (rho_hat[v], v))
            current_min, v = rho_heap[0]
        if current_min > beta_hat and trees_left == 1:
            beta_hat = current_min
        for v in row:
            if v in visited:
                continue
            visited.add(v)
            reach = state.residue_total
            for w in adj[v]:
                reach += lower[w]
            credit += len(adj[v])
            if reach >= beta_hat - BOUND_SLACK:
                frontier.append(v)
                queued.add(v)
                frontier_sum += lower[v]
                if trees_left > 1:
                    tree[v] = tree[u]
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
    state.pushes, state.repushes = pushes, repushes
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
    pushes: int = 0
    repushes: int = 0

    def labels(self, graph: TemporalGraph) -> list[str]:
        return sorted(graph.labels[u] for u in self.members)

    @property
    def stats(self) -> dict[str, object]:
        """What the search did: vertices explored, the certified levels it passed,
        and the expansion's state pushes and re-pushes."""
        return {"explored": len(self.explored), "epsilon_trace": list(self.epsilon_trace),
                "pushes": self.pushes, "repushes": self.repushes}


def _fresh_degrees(graph: TemporalGraph, lower: list[float], members,
                   space: set[int] | frozenset[int] | None = None) -> dict[int, float]:
    """Lower-bound degree of each vertex of ``members`` inside ``space``
    (default: inside ``members``), summed afresh."""
    if space is None:
        space = members if isinstance(members, (set, frozenset)) else set(members)
    out: dict[int, float] = {}
    for u in members:
        total = 0.0
        for v in graph.adj[u]:
            if v in space:
                total += lower[v]
        out[u] = total
    return out


def reduce_stage(expanded: Sequence[int], state: PushState, graph: TemporalGraph,
                 ctx: QueryContext) -> ApproxResult:
    """Peel the expanded set down to a certified approximate community.

    temp, the least lower-bound degree of a query over the expanded set plus
    the pending residue, upper-bounds the exact optimum: every query lies in
    the optimum, which lies in the expanded set.  Rounds run at level eps_bar,
    cascade-removing every vertex whose lower-bound degree cannot exceed
    temp/eps_bar; a survived round records eps_bar as the certified ratio and
    halves it (never below 1).  Rounds run until one would remove a query
    vertex; that round is discarded, and so is every round from the first
    that splits the query set, found from the removal log by one union-find
    replay.  Zero-degree vertices can never survive any finite level, so they
    are cleared in unrecorded preliminary rounds, repeated while a fresh
    degree is still 0.
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
        return ApproxResult(frozenset(members), 1.0, 0.0, False, explored,
                            pushes=state.pushes, repushes=state.repushes)

    rho = _fresh_degrees(graph, lower, members)
    temp = min(rho[q] for q in queries) + state.residue_total

    def answer(kept: set[int], eps: float, fallback: bool,
               trace: Sequence[float] = ()) -> ApproxResult:
        component = graph.connected_component(kept, queries[0])
        beta_lower = min(_fresh_degrees(graph, lower, component).values())
        return ApproxResult(frozenset(component), eps, beta_lower, fallback,
                            explored, tuple(trace), pushes=state.pushes,
                            repushes=state.repushes)

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
    # clear them in unrecorded preliminary rounds
    while min(rho.values()) <= 0.0:
        doomed, query_fell = run_round(None)
        blocked = query_fell or (len(queries) > 1
                                 and not graph.co_connected(members - doomed, queries))
        if not blocked:
            members -= doomed
            for u in doomed:
                del rho[u]
            # live decrements can leave float drift (about 1e-17) where a
            # degree fell to 0; a fresh sum of non-negative terms is 0 exactly
            # then, so recompute the degrees the round touched and repeat the
            # round while a zero remains
            touched = {v for u in doomed for v in graph.adj[u] if v in members}
            rho.update(_fresh_degrees(graph, lower, touched, members))
            continue
        if state.residue_total > 0.0:
            # the bounds may just be starved below the push gate: settle all
            # mass and retry the zero level with exact degrees, from the whole
            # explored set, since earlier rounds pruned on the starved bounds
            drain(state, graph)
            members = set(explored)
            rho = _fresh_degrees(graph, lower, members)
            temp = min(rho[q] for q in queries)
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
