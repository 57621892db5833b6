"""Proximity scores: personalized PageRank restricted to time-respecting walks.

The walk starts uniformly on the query vertex's outgoing ordered edges, stops
with probability alpha at each step, and otherwise continues along a strictly
later incident edge weighted by inverse time gap.  The per-vertex stop
probability of this walk is the proximity score used throughout the package.

The exact scores come from forward push over the 2m ordered-edge states
(``PushState``, ``propagate``): seed the start distribution, then drain the
pending mass in stream (state-id) order, so one pass settles it all.  A push
divides one coefficient by each successor's time gap and takes the mass it
settles off the pending total.  The local search in ``local`` pushes the same
state selectively and reads its partial sums as bounds.  A power-iteration
oracle over the transition matrix stays independent for testing.
"""
from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import compress
from typing import Callable, Iterable

from .errors import NotConverged
from .graph import TemporalGraph

DEFAULT_ALPHA = 0.2


@dataclass(frozen=True)
class QueryContext:
    """A community-search query: one or more query vertices plus the stop probability."""

    queries: tuple[int, ...]
    alpha: float = DEFAULT_ALPHA

    def __post_init__(self):
        if not self.queries:
            raise ValueError("need at least one query vertex")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError(f"alpha must be in (0, 1), got {self.alpha}")
        deduped = tuple(dict.fromkeys(self.queries))
        if deduped != self.queries:
            object.__setattr__(self, "queries", deduped)

    @classmethod
    def single(cls, q: int, alpha: float = DEFAULT_ALPHA) -> "QueryContext":
        return cls((q,), alpha)


@dataclass
class ScoreVector:
    """Per-vertex proximity scores for a fixed query context.

    Scores are non-negative and sum to 1.  ``per_vertex`` is the list the
    searches read; ``values`` is a numpy copy of it for callers that want an
    array, made on each access, so that numpy is imported only when one is
    asked for.
    """

    per_vertex: list[float]
    ctx: QueryContext

    @property
    def values(self):
        import numpy as np
        return np.array(self.per_vertex)

    def __getitem__(self, u: int) -> float:
        return self.per_vertex[u]

    def total(self) -> float:
        return math.fsum(self.per_vertex)


@dataclass
class PushState:
    """Forward-push bookkeeping over the 2m ordered-edge states.

    residue[s] is the mass waiting at state s and lower[v] the mass settled at
    v; together they always hold the full unit of start mass, so lower[v] is a
    certified lower bound of v's proximity score.  Both are Python lists,
    because every push reads and writes them one element at a time.
    ``local.expand`` records in pushes the states it pushed, in repushes
    those that moved mass stranded on an expanded vertex, and in estimate its
    final minimum-degree estimate.
    """

    residue: list[float]
    lower: list[float]
    residue_total: float
    alpha: float
    pushes: int = 0
    repushes: int = 0
    estimate: float = 0.0

    @classmethod
    def fresh(cls, graph: TemporalGraph, alpha: float) -> "PushState":
        return cls([0.0] * (2 * graph.m), [0.0] * graph.n, 0.0, alpha)


def seed_state(graph: TemporalGraph, ctx: QueryContext) -> PushState:
    """A push state holding the walk's start: 1/(|S| deg q) on each out-state of every query q."""
    queries = ctx.queries
    state = PushState.fresh(graph, ctx.alpha)
    for q in queries:
        out = graph.inc_states[q]
        share = 1.0 / (len(queries) * len(out))
        for sid in out:
            state.residue[sid] = share
    state.residue_total = 1.0
    return state


def propagate(state: PushState, sids: Iterable[int], graph: TemporalGraph,
              on_lower: Callable[[int, float], None] | None = None,
              force: bool = False) -> None:
    """Push each state of ``sids`` in turn whose residue clears the 1/m gate.

    Each residue is read when its turn comes, so mass pushed into a later
    state of ``sids`` is pushed on with it.  Non-dangling: settle alpha*r at
    the arrival (tail, t) and add c/(tau - t) to each successor at time tau,
    where c = (1-alpha)*r/denominator once per push.  Dangling: settle the
    full residue; the self-loop stops alpha of the remaining mass forever, so
    in the limit everything settles here; less would leak mass and break the
    degree bounds.  ``residue_total`` loses the settled mass, as the pending
    residue does in real arithmetic.  ``force`` skips the gate: seed states of
    a multi-vertex query can start below 1/m and must still fire or no bounds
    ever accrue.  A ``state_denom`` entry of 0.0 is a miss (a non-dangling
    denominator is a sum of positive terms, so never 0.0): it calls
    ``graph.denominator`` once and fills every state arriving at (tail, t).
    """
    residue, lower = state.residue, state.lower
    gate = 1.0 / graph.m
    state_tail, state_time, state_denom = graph.state_tail, graph.state_time, graph.state_denom
    for sid in sids:
        r = residue[sid]
        if r == 0.0 or (r < gate and not force):
            continue
        residue[sid] = 0.0  # successors are strictly later, so never sid itself
        tail, t = state_tail[sid], state_time[sid]
        times = graph.inc_times[tail]
        lo = bisect_right(times, t)  # times[lo:] are the successors' timestamps
        if lo == len(times):
            settled = r
        else:
            states = graph.inc_states[tail]
            denom = state_denom[sid]
            if not denom:
                denom = graph.denominator(tail, t)
                for i in range(bisect_left(times, t), lo):
                    state_denom[states[i] ^ 1] = denom
            c = (1.0 - state.alpha) * r / denom
            for i in range(lo, len(times)):
                residue[states[i]] += c / (times[i] - t)
            settled = state.alpha * r
        lower[tail] += settled
        state.residue_total -= settled
        if state.residue_total < 0.0:
            state.residue_total = 0.0  # cached total of non-negatives; kill drift
        if on_lower is not None:
            on_lower(tail, settled)


def drain(state: PushState, graph: TemporalGraph) -> None:
    """Settle all pending mass; afterwards the lower bounds are the exact scores.

    Walk continuations strictly increase the timestamp and state ids follow
    the time-sorted stream, so pushing every state in id order empties every
    residue in a single pass.  ``compress`` skips the states holding no mass
    at C speed; it reads each residue only when it reaches that state, after
    every earlier state has pushed into it.
    """
    propagate(state, compress(range(2 * graph.m), state.residue), graph, force=True)
    state.residue_total = 0.0


def temporal_pagerank(graph: TemporalGraph, ctx: QueryContext) -> ScoreVector:
    """Exact proximity scores for a query set: the seeded push, drained in stream order.

    The walk starts with mass 1/(|S| deg q) on each outgoing state of every
    query q, so by linearity the result is the mean of the per-query score
    vectors.
    """
    state = seed_state(graph, ctx)
    drain(state, graph)
    return ScoreVector(state.lower, ctx)


# the same function under the name perfbench/run.py calls
temporal_pagerank_multi = temporal_pagerank


def power_iteration_pagerank(graph: TemporalGraph, ctx: QueryContext,
                             tol: float = 1e-12, max_iters: int = 10_000) -> ScoreVector:
    """Testing oracle: iterate the fixed-point equation over all 2m ordered-edge states.

    Builds the dense transition matrix (dangling states self-loop), iterates
    x <- alpha*chi + (1-alpha)*x P until the L1 change drops below tol, and
    sums per vertex over incoming states.  Memory is quadratic in m; use at
    test scale only.
    """
    import numpy as np

    n_states = 2 * graph.m
    P = np.zeros((n_states, n_states))
    arrivals = list(zip(graph.state_tail, graph.state_time))
    for s, (tail, t) in enumerate(arrivals):
        times = graph.inc_times[tail]
        lo = bisect_right(times, t)
        if lo == len(times):
            P[s, s] = 1.0
            continue
        dnm = graph.denominator(tail, t)
        for tj, j in zip(times[lo:], graph.inc_states[tail][lo:]):
            P[s, j] += (1.0 / (tj - t)) / dnm

    chi = np.zeros(n_states)
    share = 1.0 / len(ctx.queries)
    for q in ctx.queries:
        out = graph.inc_states[q]
        chi[out] += share / len(out)

    x = np.zeros(n_states)
    delta = np.inf
    for _ in range(max_iters):
        nxt = ctx.alpha * chi + (1.0 - ctx.alpha) * (x @ P)
        delta = float(np.abs(nxt - x).sum())
        x = nxt
        if delta < tol:
            break
    else:
        raise NotConverged(max_iters, delta)

    values = np.zeros(graph.n)
    for s, (tail, _) in enumerate(arrivals):
        values[tail] += x[s]
    return ScoreVector(values.tolist(), ctx)
