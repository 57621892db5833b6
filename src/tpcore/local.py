"""Approximate two-stage local search: bounded expansion, then certified reduction.

Stage one runs the forward push of ``pagerank`` (the one that computes the
exact scores when drained) outward from the query, pushing only the states
leaving vertices it expands, the frontier vertex holding the most settled
mass first: when each pops, and again, within a work credit earned by the
expansion's reads, when later pushes leave mass on them.  The mass settled
per vertex lower-bounds its proximity score, and adding the total pending
residue gives upper bounds, which prune the expansion while guaranteeing the
expanded set still covers the exact community.  Stage two peels the
expanded set once, greedily and on the lower bounds, with the exact solver's
peel; its best minimum degree is the certified lower bound, and its largest
round degree plus the pending residue bounds the optimum from above.  Where
the bounds certify nothing, the exact solver's search answers on the drained
scores.  It answers too where stage one hands over: once the expansion's
adjacency reads outrun its pushes, it is walking through vertices that hold
almost no mass, which the drain skips, so draining the push and searching
exactly costs less than expanding on (FORA's balance of push work against
its alternative; Wang, Tang, Xiao, Yang & Li, KDD 2017).  The paper's stage
two peels at geometrically shrinking levels instead; those levels are nested
thresholds of this one min-degree cascade.
"""
from __future__ import annotations

import heapq
import math
import time
from typing import Callable, Sequence

from .community import CommunityResult, _peel, exact_search, proximity_degree
from .errors import QueriesDisconnected, QueryNotInSet
from .graph import Components, TemporalGraph
from .pagerank import PushState, QueryContext, drain, propagate, seed_state

# drift allowance for the expansion pruning comparisons: bound sums and the
# degree estimate are accumulated incrementally, so two quantities that are
# equal in real arithmetic can disagree by a few ulps; pruning decisions err
# on the keeping side by this margin so exact-community members never fall out
BOUND_SLACK = 1e-12

# the hand-over rule of ``expand``: its adjacency reads reach READS_PER_PUSH
# per push, plus the drain's scan of all 2m states (made however little it
# pushes) at one read per SCAN_STATES_PER_READ states, plus HANDOVER_FLOOR,
# below which both paths take well under a millisecond.  Counters, never a
# clock, so every run on every host hands over on the same queries.
READS_PER_PUSH = 3
SCAN_STATES_PER_READ = 16
HANDOVER_FLOOR = 1024


def expand(graph: TemporalGraph, ctx: QueryContext,
           inspect: Callable[[PushState, list[int], set[int], float], None] | None = None,
           ) -> tuple[list[int], PushState]:
    """Grow a candidate set around the queries that provably covers the exact community.

    Seeds each query q's outgoing states with residue 1/(|S| deg q), the start
    distribution of ``temporal_pagerank``, and pops vertices, pushing their
    out-states: the queries first, then the frontier vertex holding the most
    settled mass, keyed once when it is admitted.  Mass that a later push
    settles at an expanded vertex lands on out-states that were already
    pushed; such fed vertices are pushed again after each pop, in the stream
    order of their first out-states, while a work credit lasts: the expansion
    earns one unit per adjacency entry it reads (the popped row and each
    candidate's admission sum) and a re-push spends one per out-state it
    scans, so re-pushing costs at most the expansion's own reads plus one
    vertex's out-states (the residue-threshold push of Andersen, Chung & Lang,
    2006).  A neighbor enters the frontier only if its degree upper bound
    (settled mass around it plus all pending residue, which the re-push
    lowers) can still reach the best minimum-degree estimate seen so far; for
    a query set the estimate counts only once the expanded set joins every
    query, since before that it bounds no community that holds them all.
    When the whole frontier falls below that estimate it is merged in and
    expansion stops.  Until the expanded set joins the queries, which a
    ``graph.Components`` of the popped vertices tells, the estimate stays 0,
    so nothing is pruned and the expansion reaches every vertex of their
    components; if it ends with them still apart, the queries lie in
    different components and QueriesDisconnected is raised.  Once the
    expanded set joins the queries, a frontier is left and the reads meet
    the hand-over rule (``READS_PER_PUSH``), it stops and hands over: the
    answer is left to the exact search (``reduce_stage``), and the returned
    set, which covers the exact community otherwise, need not.  The state's
    ``stats`` get the pushes, the re-pushes among them, the pending residue,
    the estimate, the adjacency entries read and whether it handed over.
    ``inspect`` (tests) is called after every pop and its re-push with the
    push state, expanded list, visited set, and estimate.
    """
    queries = ctx.queries
    state = seed_state(graph, ctx)
    adj = graph.adj
    inc_states = graph.inc_states
    lower = state.lower
    expanded: list[int] = []
    # the lower-bound degree of each popped vertex; its keys are the membership test
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
    # adjacency entries read (the popped rows and the admission sums); each
    # earns one unit of re-push credit, and ``spent`` counts the units used
    reads = spent = 0
    handover_reads = 2 * graph.m // SCAN_STATES_PER_READ + HANDOVER_FLOOR
    handover = False

    def on_lower(vertex: int, delta: float) -> None:
        nonlocal frontier_sum, pushes
        pushes += 1
        if delta == 0.0:
            return
        if vertex in queued:
            frontier_sum += delta
        # only expanded vertices contribute to expanded degrees; bounds gained
        # by a vertex still outside are picked up when it joins
        if vertex not in rho_hat:
            return
        if vertex not in fed:
            fed.add(vertex)
            heapq.heappush(fed_heap, (inc_states[vertex][0], vertex))
        for w in adj[vertex]:
            if w in rho_hat:
                rho_hat[w] += delta

    # the estimate bounds the optimum only once the expanded set joins every
    # query; until then each popped vertex is added to the components
    joined = len(queries) == 1
    parts = Components(adj)
    beta_hat = 0.0
    repushes = 0
    query_set = set(queries)
    # most settled mass first, the queries before all: one entry per queued
    # vertex, keyed at admission (a sorted list is a heap)
    frontier = sorted((-math.inf, q) for q in queries)
    visited: set[int] = set(queries)
    while frontier:
        u = heapq.heappop(frontier)[1]
        queued.discard(u)
        frontier_sum -= lower[u]
        expanded.append(u)
        row = adj[u]
        reads += len(row)
        val = 0.0
        for v in row:
            if v in rho_hat:
                rho_hat[v] += lower[u]
                val += lower[v]
        rho_hat[u] = val
        heapq.heappush(rho_heap, (val, u))
        if not joined:  # the queries pop first, so all are in before any other vertex
            parts.add(u)
            joined = parts.joins(queries)
        propagate(state, inc_states[u], graph, on_lower, force=u in query_set)
        # re-push stranded mass, paid for by the reads made so far
        while fed_heap and reads > spent:
            v = heapq.heappop(fed_heap)[1]
            fed.remove(v)
            out = inc_states[v]
            spent += len(out)
            before = pushes
            propagate(state, out, graph, on_lower)
            repushes += pushes - before
        current_min, v = rho_heap[0]
        while current_min != rho_hat[v]:
            heapq.heapreplace(rho_heap, (rho_hat[v], v))
            current_min, v = rho_heap[0]
        if current_min > beta_hat and joined:
            beta_hat = current_min
        for v in row:
            if v in visited:
                continue
            visited.add(v)
            reach = state.residue_total
            for w in adj[v]:
                reach += lower[w]
            reads += len(adj[v])
            if reach >= beta_hat - BOUND_SLACK:
                heapq.heappush(frontier, (-lower[v], v))
                queued.add(v)
                frontier_sum += lower[v]
        if frontier:
            pending = state.residue_total + frontier_sum
            if pending < beta_hat - BOUND_SLACK:
                expanded.extend(w for _, w in frontier)
                frontier.clear()
                queued.clear()
                if inspect is not None:
                    inspect(state, expanded, visited, beta_hat)
                break
        if inspect is not None:
            inspect(state, expanded, visited, beta_hat)
        if frontier and joined and reads >= READS_PER_PUSH * pushes + handover_reads:
            handover = True
            break
    if not joined:
        raise QueriesDisconnected("query vertices lie in different components")
    state.stats.update(pushes=pushes, repushes=repushes, residue=state.residue_total,
                       estimate=beta_hat, reads=reads, handover=handover)
    return expanded, state


class ApproxResult(CommunityResult):
    """The ``CommunityResult`` of ``als``, with a certified approximation ratio.

    beta, also read as ``beta_lower``, lower-bounds every member's proximity
    degree inside the community; the exact optimum is at most epsilon times it.
    Unless it fell back, epsilon is (stats["peel_bound"] + stats["residue"]) / beta, at least 1.
    fallback marks answers whose expansion handed over (stats["handover"]) or
    whose lower bounds certified nothing (their peel split the queries or its
    best degree was 0), so the push was drained and the exact search ran on
    the exact scores: such an answer is exact, with epsilon 1.  explored holds
    the expanded vertices, and after a hand-over also the exact search's
    region, so it covers the exact community either way.  scores is None.
    """

    def __init__(self, members: frozenset[int], epsilon: float, beta: float, fallback: bool,
                 explored: frozenset[int], stats: dict[str, object]):
        super().__init__(members, beta, "als", stats=stats)
        self.epsilon, self.fallback, self.explored = epsilon, fallback, explored

    @property
    def beta_lower(self) -> float:
        return self.beta

    @property
    def epsilon_trace(self) -> tuple[float, ...]:
        """The certified levels of the reduction: its one peel certifies epsilon."""
        return (self.epsilon,)


def reduce_stage(expanded: Sequence[int], state: PushState, graph: TemporalGraph,
                 ctx: QueryContext) -> ApproxResult:
    """Peel the expanded set down to a certified approximate community.

    One greedy peel (``community._peel``, exact integer degrees) of the
    expanded vertices holding settled mass, and of the queries, on the lower
    bounds finds the best minimum degree beta_p of a set that joins the
    queries.  A massless vertex adds 0 to every degree, so each expanded one
    whose degree into the kept set reaches beta_p is re-admitted; it can join
    kept parts.
    The same peel's largest round degree, connectivity ignored and rounded
    up, plus the pending residue P, upper-bounds the exact optimum: the
    optimum lies in the expanded set, each member's true degree in it is at
    most its lower-bound degree there plus P, and the first round that takes
    a member takes it at a degree at least the optimum's least lower-bound
    degree (Sozio & Gionis 2010).  For one query that round degree is beta_p.
    The answer is the queries' component, with beta_lower = beta_p and
    epsilon = upper / beta_p (at least 1), rounded up so that
    epsilon * beta_lower >= upper holds in floats.  If the vertices holding
    mass split the queries (the peel returns None) or beta_p is 0, the push is
    drained and ``community.exact_search`` answers on the exact scores: epsilon
    1, fallback True, and QueriesDisconnected if its flood runs out.  A state
    whose expansion handed over (``stats["handover"]``) skips the peel and
    takes that path straight away; its expanded set need not cover the
    optimum, so the explored set adds the flood's region, which does.
    ``stats`` splices the state's own (none unless ``expand`` made the state)
    between the epsilon trace and the universe size, then ends with the bound,
    ``peel_bound``; a fallback reports the search's region and beta as those.
    """
    queries = ctx.queries
    reached = set(expanded)
    lower = state.lower
    for q in queries:
        if q not in reached:
            raise QueryNotInSet(f"query vertex id {q} not in the expanded set")
    handover = state.stats.get("handover", False)
    peeled = None
    if not handover:
        settled = [u for u in expanded if lower[u] > 0.0 or u in queries]
        peeled = _peel(graph, lower, queries, settled)
    if peeled is None or peeled[1] == 0.0:
        drain(state, graph)
        members, beta, search, taken = exact_search(graph, lower, queries)
        if handover:  # the expansion stopped short, so the flood's region covers the optimum
            reached.update(taken)
        epsilon, fallback, universe, bound = 1.0, True, search["region"], beta
    else:
        kept, beta, bound = peeled
        # a re-admitted vertex has degree >= beta > 0 into kept, so it borders kept
        border = {w for u in kept for w in graph.adj[u]} - kept
        kept.update([u for u in border if lower[u] == 0.0 and u in reached
                     and proximity_degree(lower, graph, kept, u) >= beta])
        upper = bound + state.residue_total
        epsilon, fallback, universe = max(1.0, upper / beta), False, len(settled)
        while epsilon * beta < upper:
            epsilon = math.nextafter(epsilon, math.inf)
        members = frozenset(graph.connected_component(kept, queries[0]))
    # copied from a set, the frozenset's table is sized to fit: half the
    # memory of one grown from the list, and every result keeps it
    explored = frozenset(reached)
    stats = {"explored": len(explored), "epsilon_trace": [epsilon], **state.stats,
             "universe": universe, "peel_bound": bound}
    return ApproxResult(members, epsilon, beta, fallback, explored, stats)


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
