"""Proximity scores: personalized PageRank restricted to time-respecting walks.

The walk starts uniformly on the query vertex's outgoing ordered edges, stops
with probability alpha at each step, and otherwise continues along a strictly
later incident edge weighted by inverse time gap.  The per-vertex stop
probability of this walk is the proximity score used throughout the package.

The exact scores come from forward push over the 2m ordered-edge states
(``PushState``, ``propagate``): seed the start distribution, then drain the
pending mass in state-id order, which is stream order, so one pass settles
it all.  The local search in ``local`` pushes the same state selectively and
reads its partial sums as bounds.  A power-iteration oracle over the explicit
transition matrix stays independent for testing.
"""
from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from .errors import NoQueryActivity, NotConverged
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

    Scores are non-negative and sum to 1 whenever every query vertex has
    incident temporal edges.
    """

    values: np.ndarray
    ctx: QueryContext

    def __getitem__(self, u: int) -> float:
        return float(self.values[u])

    def total(self) -> float:
        return float(self.values.sum())


def _require_activity(graph: TemporalGraph, queries: tuple[int, ...]) -> None:
    for q in queries:
        if not graph.inc_times[q]:
            raise NoQueryActivity(graph.labels[q])


@dataclass
class PushState:
    """Forward-push bookkeeping over the 2m ordered-edge states.

    residue[s] is the mass waiting at state s and lower[v] the mass settled at
    v; together they always hold the full unit of start mass, so lower[v] is a
    certified lower bound of v's proximity score.  Both are Python lists,
    because every push reads and writes them one element at a time.
    """

    residue: list[float]
    lower: list[float]
    residue_total: float
    alpha: float

    @classmethod
    def fresh(cls, graph: TemporalGraph, alpha: float) -> "PushState":
        return cls([0.0] * (2 * graph.m), [0.0] * graph.n, 0.0, alpha)


def seed_state(graph: TemporalGraph, ctx: QueryContext) -> PushState:
    """A push state holding the walk's start: 1/(|S| deg q) on each out-state of every query q."""
    queries = ctx.queries
    _require_activity(graph, queries)
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
    the arrival vertex, spread (1-alpha)*r over the successors.  Dangling:
    settle the full residue; the self-loop stops alpha of the remaining mass
    forever, so in the limit everything settles here, and anything less would
    leak mass and break the degree bounds.  ``force`` skips the gate: seed
    states of a multi-vertex query can start below 1/m and must still fire or
    no bounds ever accrue.
    """
    residue = state.residue
    lower = state.lower
    gate = 1.0 / graph.m
    for sid in sids:
        r = residue[sid]
        if r == 0.0 or (r < gate and not force):
            continue
        residue[sid] = 0.0  # successors are strictly later, so never sid itself
        tail, t = graph.arrival(sid)
        times = graph.inc_times[tail]
        lo = bisect_right(times, t)  # times[lo:] are the successors' timestamps
        distributed = 0.0
        if lo == len(times):
            settled = r
        else:
            denom = graph.denominator(tail, t)
            spread = (1.0 - state.alpha) * r
            states = graph.inc_states[tail]
            for i in range(len(times) - 1, lo - 1, -1):
                share = spread / ((times[i] - t) * denom)
                residue[states[i]] += share
                distributed += share
            settled = state.alpha * r
        lower[tail] += settled
        state.residue_total += distributed - r
        if state.residue_total < 0.0:
            state.residue_total = 0.0  # cached total of non-negatives; kill drift
        if on_lower is not None:
            on_lower(tail, settled)


def drain(state: PushState, graph: TemporalGraph) -> None:
    """Settle all pending mass; afterwards the lower bounds are the exact scores.

    Walk continuations strictly increase the timestamp and state ids follow
    the time-sorted stream, so pushing every state in id order empties every
    residue in a single pass.
    """
    propagate(state, range(2 * graph.m), graph, force=True)
    state.residue_total = 0.0


def temporal_pagerank(graph: TemporalGraph, ctx: QueryContext) -> ScoreVector:
    """Exact proximity scores for a query set: the seeded push, drained in stream order.

    The walk starts with mass 1/(|S| deg q) on each outgoing state of every
    query q, so by linearity the result is the mean of the per-query score
    vectors.
    """
    state = seed_state(graph, ctx)
    drain(state, graph)
    return ScoreVector(np.array(state.lower), ctx)


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
    _require_activity(graph, ctx.queries)
    n_states = 2 * graph.m
    P = np.zeros((n_states, n_states))
    arrivals = [graph.arrival(s) for s in range(n_states)]
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
    return ScoreVector(values, ctx)
