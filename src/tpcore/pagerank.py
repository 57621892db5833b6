"""Proximity scores: personalized PageRank restricted to time-respecting walks.

The walk starts uniformly on the query vertex's outgoing ordered edges, stops
with probability alpha at each step, and otherwise continues along a strictly
later incident edge weighted by inverse time gap.  The per-vertex stop
probability of this walk is the proximity score used throughout the package.

Two implementations: an edge-stream dynamic program (one pass, near-linear)
and a power-iteration oracle over the explicit ordered-edge state space, kept
independent for testing.
"""
from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

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


def temporal_pagerank(graph: TemporalGraph, ctx: QueryContext) -> ScoreVector:
    """Exact proximity scores for a query set, one pass over the stream.

    The walk starts with mass 1/(|S| deg q) on each outgoing state of every
    query q, so by linearity the result is the mean of the per-query score
    vectors.  Maintains stop[u][t], the probability that the discounted walk
    stops at u having arrived on an edge with timestamp t.  Each stream edge
    (u, v, t) forwards mass from both endpoint dictionaries; entries written
    at time t contribute nothing to the same edge because continuations need
    a strictly later time, so no freshness guard is required.  Dangling
    entries are divided by alpha at the end: a walk reaching a dead-end state
    stops there with probability 1 in the limit.
    """
    queries = ctx.queries
    _require_activity(graph, queries)
    alpha = ctx.alpha
    keep = 1.0 - alpha
    denom = graph.denominator
    seed = [0.0] * graph.n
    for q in queries:
        seed[q] = alpha / (len(queries) * len(graph.inc_times[q]))
    stop: list[dict[int, float]] = [{} for _ in range(graph.n)]

    for u, v, t in graph.edge_list:
        du = stop[u]
        dv = stop[v]
        if du:
            acc = 0.0
            for t1, mass in du.items():
                if t1 < t:
                    acc += mass / ((t - t1) * denom(u, t1))
            if acc:
                dv[t] = dv.get(t, 0.0) + keep * acc
        if seed[u]:
            dv[t] = dv.get(t, 0.0) + seed[u]
        if dv:
            acc = 0.0
            for t2, mass in dv.items():
                if t2 < t:
                    acc += mass / ((t - t2) * denom(v, t2))
            if acc:
                du[t] = du.get(t, 0.0) + keep * acc
        if seed[v]:
            du[t] = du.get(t, 0.0) + seed[v]

    values = np.zeros(graph.n)
    for u, d in enumerate(stop):
        total = 0.0
        for t, mass in d.items():
            if graph.vertex_dangling(u, t):
                mass /= alpha
            total += mass
        values[u] = total
    return ScoreVector(values, ctx)


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
