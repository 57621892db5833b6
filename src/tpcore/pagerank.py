"""Proximity scores: personalized PageRank restricted to time-respecting walks.

The walk starts uniformly on the query vertex's outgoing ordered edges, stops
with probability alpha at each step, and otherwise continues along a strictly
later incident edge weighted by inverse time gap.  The per-vertex stop
probability of this walk is the proximity score used throughout the package.

The exact scores come from forward push over the 2m ordered-edge states
(``PushState``, ``propagate``): seed the start distribution, then drain the
pending mass in stream (state-id) order, so one pass settles it all; the
drain scans in blocks, making an int only for a state holding mass.  A push
divides one coefficient by each successor's time gap and takes the mass it
settles off the pending total.  The local search in ``local`` pushes the same
state selectively and reads its partial sums as bounds.  A power-iteration
oracle over the transition matrix stays independent for testing.
"""
from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import namedtuple
from itertools import compress, repeat
from operator import add
from typing import Callable, Iterable

from .errors import NotConverged, QueryNotInSet
from .graph import TemporalGraph

DEFAULT_ALPHA = 0.2
_OFFSETS = tuple(range(1024))  # the offsets of one block of the drain's scan, made once


class QueryContext(namedtuple("QueryContext", ["queries", "alpha"])):
    """A community-search query: one or more query vertices, each kept once in order,
    plus the stop probability; immutable, equal and hashed by value."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so that ``_replace`` checks too

    def __new__(cls, queries: tuple[int, ...], alpha: float = DEFAULT_ALPHA) -> "QueryContext":
        if not queries:
            raise ValueError("need at least one query vertex")
        if not 0.0 < alpha < 1.0:
            raise ValueError(f"alpha must be in (0, 1), got {alpha}")
        return super().__new__(cls, tuple(dict.fromkeys(queries)), alpha)

    @classmethod
    def single(cls, q: int, alpha: float = DEFAULT_ALPHA) -> "QueryContext":
        return cls((q,), alpha)


class ScoreVector:
    """Per-vertex proximity scores for a fixed query context.

    Scores are non-negative and sum to 1.  ``per_vertex`` is the list the
    searches read; ``values`` is a numpy copy of it for callers that want an
    array, made on each access, so that numpy is imported only when one is
    asked for.
    """

    def __init__(self, per_vertex: list[float]):
        self.per_vertex = per_vertex

    @property
    def values(self):
        import numpy as np
        return np.array(self.per_vertex)


class PushState:
    """Forward-push bookkeeping over the 2m ordered-edge states.

    residue[s] is the mass waiting at state s and lower[v] the mass settled at
    v; together they always hold the full unit of start mass, so lower[v] is a
    certified lower bound of v's proximity score.  Both are Python lists,
    because every push reads and writes them one element at a time.
    ``stats`` holds the work counters of the push, empty until ``local.expand``
    fills it; ``local.reduce_stage`` copies them into its result's ``stats``.
    """

    def __init__(self, residue: list[float], lower: list[float], residue_total: float,
                 alpha: float):
        self.residue, self.lower = residue, lower
        self.residue_total, self.alpha = residue_total, alpha
        self.stats: dict[str, float] = {}

    @classmethod
    def fresh(cls, graph: TemporalGraph, alpha: float) -> "PushState":
        return cls([0.0] * (2 * graph.m), [0.0] * graph.n, 0.0, alpha)


def seed_state(graph: TemporalGraph, ctx: QueryContext) -> PushState:
    """A push state holding the walk's start: 1/(|S| deg q) on each out-state of every query q.

    Raises QueryNotInSet for a query id outside 0..n-1, the ids of ``graph``.
    """
    queries = ctx.queries
    state = PushState.fresh(graph, ctx.alpha)
    for q in queries:
        if not 0 <= q < graph.n:
            raise QueryNotInSet(f"query vertex id {q} is outside 0..{graph.n - 1}")
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
    residue in a single pass.  The scan runs in blocks over one iterator of
    the residues: ``compress`` keeps the block's ``_OFFSETS`` (made once) of
    the states holding mass and stops when they run out, so a massless state
    costs one truth test and only a kept state's id becomes an int.  It reads
    each residue only when it reaches that state, after every earlier state
    has pushed into it.
    """
    pending = iter(state.residue)
    for base in range(0, 2 * graph.m, len(_OFFSETS)):
        propagate(state, map(add, repeat(base), compress(_OFFSETS, pending)), graph, force=True)
    state.residue_total = 0.0


def temporal_pagerank(graph: TemporalGraph, ctx: QueryContext) -> ScoreVector:
    """Exact proximity scores for a query set: the seeded push, drained in stream order.

    The walk starts with mass 1/(|S| deg q) on each outgoing state of every
    query q, so by linearity the result is the mean of the per-query score
    vectors.
    """
    state = seed_state(graph, ctx)
    drain(state, graph)
    return ScoreVector(state.lower)


# the same function under the name perfbench/run.py calls
temporal_pagerank_multi = temporal_pagerank


def power_iteration_pagerank(graph: TemporalGraph, ctx: QueryContext,
                             tol: float = 1e-12, max_iters: int = 10_000) -> ScoreVector:
    """Testing oracle: iterate the fixed-point equation over all 2m ordered-edge states.

    Builds the dense transition matrix (dangling states self-loop), iterates
    x <- alpha*chi + (1-alpha)*x P until the L1 change drops below tol, and
    sums per vertex over incoming states.  Memory is quadratic in m; use at
    test scale only.  Raises QueryNotInSet for a query id outside 0..n-1.
    """
    import numpy as np

    n_states = 2 * graph.m
    chi = np.zeros(n_states)
    share = 1.0 / len(ctx.queries)
    for q in ctx.queries:
        if not 0 <= q < graph.n:
            raise QueryNotInSet(f"query vertex id {q} is outside 0..{graph.n - 1}")
        out = graph.inc_states[q]
        chi[out] += share / len(out)

    P = np.zeros((n_states, n_states))
    for s, (tail, t) in enumerate(zip(graph.state_tail, graph.state_time)):
        times = graph.inc_times[tail]
        lo = bisect_right(times, t)
        if lo == len(times):
            P[s, s] = 1.0
            continue
        dnm = graph.denominator(tail, t)
        for tj, j in zip(times[lo:], graph.inc_states[tail][lo:]):
            P[s, j] += (1.0 / (tj - t)) / dnm

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

    return ScoreVector(np.bincount(graph.state_tail, weights=x, minlength=graph.n).tolist())
