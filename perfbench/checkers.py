"""Independent oracles for the benchmark's outputs.

Nothing here calls tpcore's scoring or search.  ``Graph`` reads the same
triples the program reads; ``Walk.scores`` propagates the walk over
ordered-edge states in time order with numpy; ``peel`` is a min-degree peel with the
query stop rule and an offline union-find for query-set connectivity;
``connected`` and ``min_degree`` recompute the answer's properties.
``self_test`` checks these oracles against tpcore's brute-force search and
power iteration on tiny graphs.
"""
from __future__ import annotations

import heapq
import math
import random
from collections.abc import Iterable, Sequence

import numpy as np


class Graph:
    """Cleaned temporal graph over labels, kept apart from ``tpcore.TemporalGraph``.

    Cleaning matches the documented input format: self-loops and duplicates
    up to endpoint order are dropped.  Vertex ids follow sorted label order.
    """

    def __init__(self, triples: Iterable[tuple[str, str, int]]):
        seen: set[tuple[str, str, int]] = set()
        for u, v, t in triples:
            if u != v:
                seen.add((u, v, t) if u <= v else (v, u, t))
        if not seen:
            raise ValueError("no temporal edges")
        self.labels = sorted({x for u, v, _ in seen for x in (u, v)})
        self.index = {lab: i for i, lab in enumerate(self.labels)}
        self.n = len(self.labels)
        rows = sorted(seen)
        self.eu = np.array([self.index[u] for u, _, _ in rows], dtype=np.int64)
        self.ev = np.array([self.index[v] for _, v, _ in rows], dtype=np.int64)
        self.et = np.array([t for _, _, t in rows], dtype=np.int64)
        self.m = len(rows)
        nbrs: list[set[int]] = [set() for _ in range(self.n)]
        for u, v in zip(self.eu.tolist(), self.ev.tolist()):
            nbrs[u].add(v)
            nbrs[v].add(u)
        self.adj: list[list[int]] = [sorted(s) for s in nbrs]
        self.m_static = sum(len(a) for a in self.adj) // 2
        occ = {(x, t) for u, v, t in zip(self.eu.tolist(), self.ev.tolist(), self.et.tolist())
               for x in (u, v)}
        self.t_occ = int(np.bincount([x for x, _ in occ], minlength=self.n).max())

    def ids(self, labels: Iterable[str]) -> list[int]:
        return [self.index[lab] for lab in labels]


class Walk:
    """The query-independent parts of the walk on one graph: state arrays,
    transition denominators, dangling flags and the timestamp schedule.

    State 2e walks edge e from eu to ev, state 2e+1 from ev to eu.
    """

    def __init__(self, g: Graph):
        self.g = g
        times, rank = np.unique(g.et, return_inverse=True)
        k_count = len(times)
        self.head = np.concatenate([g.eu, g.ev])
        self.tail = np.concatenate([g.ev, g.eu])
        srank = np.concatenate([rank, rank])
        later = times[None, :] - times[:, None]          # later[a, b] = t_b - t_a
        self.gap = np.divide(1.0, later, out=np.zeros(later.shape), where=later > 0)
        counts = np.bincount(self.head * k_count + srank, minlength=g.n * k_count)
        counts = counts.reshape(g.n, k_count).astype(float)
        self.denom = counts @ self.gap.T
        last = k_count - 1 - np.argmax(counts[:, ::-1] > 0, axis=1)  # last incident time
        self.dangling = last[self.tail] <= srank
        order = np.argsort(srank, kind="stable")
        bounds = np.searchsorted(srank[order], np.arange(k_count + 1))
        self.schedule = [order[bounds[k]:bounds[k + 1]] for k in range(k_count)]

    def scores(self, queries: Sequence[int], alpha: float) -> np.ndarray:
        """Per-vertex stop probability of the time-respecting walk, mean over the queries.

        A state at time t only feeds states at strictly later times, so
        visiting the timestamps in increasing order settles every state in
        one sweep: the visit mass of a state at time t is alpha*seed +
        (1-alpha)*sum over earlier states s arriving at its head of
        x_s / (denom(head, t_s) * (t - t_s)).  weight[v, k] holds
        x_s / denom(v, t_s) summed over the non-dangling states arriving at v
        at the k-th timestamp.  A dangling state self-loops, so its mass is
        divided by alpha.  A vertex's score sums the mass of the states
        arriving at it.
        """
        g, head, tail = self.g, self.head, self.tail
        seed = np.zeros(2 * g.m)
        for q in queries:
            out = np.flatnonzero(head == q)
            seed[out] += 1.0 / (len(queries) * len(out))
        weight = np.zeros((g.n, len(self.schedule)))
        mass = np.zeros(2 * g.m)
        for k, states in enumerate(self.schedule):
            x = alpha * seed[states] + (1.0 - alpha) * (weight[head[states]] @ self.gap[:, k])
            dead = self.dangling[states]
            x[dead] /= alpha
            mass[states] = x
            live = states[~dead]
            weight[:, k] = np.bincount(tail[live], weights=x[~dead] / self.denom[tail[live], k],
                                       minlength=g.n)
        return np.bincount(tail, weights=mass, minlength=g.n)


def scores(g: Graph, queries: Sequence[int], alpha: float) -> np.ndarray:
    """One-off ``Walk(g).scores``; build a Walk to score many queries on one graph."""
    return Walk(g).scores(queries, alpha)


def min_degree(g: Graph, values: np.ndarray, members: Iterable[int]) -> float:
    """Minimum over members of the summed scores of their neighbours inside the set."""
    space = set(members)
    return min(math.fsum(values[v] for v in g.adj[u] if v in space) for u in space)


def component(g: Graph, members: Iterable[int], start: int) -> set[int]:
    """Vertices reached from ``start`` by a BFS that stays inside ``members``."""
    space = set(members)
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for u in frontier:
            for v in g.adj[u]:
                if v in space and v not in seen:
                    seen.add(v)
                    nxt.append(v)
        frontier = nxt
    return seen


def connected(g: Graph, members: Iterable[int], queries: Sequence[int]) -> bool:
    """True iff the set holds every query and its induced subgraph is connected."""
    space = set(members)
    return set(queries) <= space and component(g, space, queries[0]) == space


def peel(g: Graph, values: np.ndarray, queries: Sequence[int]) -> tuple[frozenset[int], float]:
    """Maximal connected set holding the queries with the largest minimum degree.

    Removes a minimum-degree vertex per round and stops at the round a query
    is the minimum.  Round i's value is the minimum degree over the vertices
    still alive; the answer is the queries' component at the earliest best
    round among those where the queries are still connected.  That
    connectivity is found by replaying the removals backwards into a
    union-find, so each round costs no more than its own edges.
    """
    qset = set(queries)
    vals = values.tolist()
    deg = [sum(vals[v] for v in g.adj[u]) for u in range(g.n)]
    alive = [True] * g.n
    heap = [(d, u) for u, d in enumerate(deg)]
    heapq.heapify(heap)
    removed: list[int] = []
    round_value: list[float] = []
    while True:
        d, u = heapq.heappop(heap)
        if not alive[u] or d != deg[u]:
            continue
        round_value.append(d)
        if u in qset:
            break
        alive[u] = False
        removed.append(u)
        for v in g.adj[u]:
            if alive[v]:
                deg[v] -= vals[u]
                heapq.heappush(heap, (deg[v], v))

    last_valid = len(round_value) - 1
    if len(queries) > 1:
        last_valid = _last_connected_round(g, alive, removed, queries)
    top = max(round_value[:last_valid + 1])
    best = next(i for i, d in enumerate(round_value)
                if d >= top * (1.0 - 1e-12) and i <= last_valid)
    survivors = set(range(g.n)) - set(removed[:best])
    members = frozenset(component(g, survivors, queries[0]))
    return members, min_degree(g, values, members)


def _last_connected_round(g: Graph, alive: list[bool], removed: list[int],
                          queries: Sequence[int]) -> int:
    """Last round whose alive set still connects the queries.

    ``alive`` marks the vertices left after the final round; the removals are
    added back in reverse into a union-find, which is updated in place.
    """
    parent = list(range(g.n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def join(u: int) -> None:
        for v in g.adj[u]:
            if alive[v]:
                parent[find(u)] = find(v)

    for u in range(g.n):
        if alive[u]:
            join(u)
    for i in range(len(removed), -1, -1):
        if i < len(removed):
            alive[removed[i]] = True
            join(removed[i])
        if len({find(q) for q in queries}) == 1:
            return i
    raise ValueError("the queries are not connected")


def _tiny_triples(rng: random.Random) -> list[tuple[str, str, int]]:
    n = rng.randint(2, 8)
    horizon = rng.randint(2, 9)
    out = []
    for _ in range(rng.randint(1, 3 * n)):
        a, b = rng.sample(range(n), 2)
        out.append((f"x{a}", f"x{b}", rng.randint(1, horizon)))
    return out


def self_test(cases: int = 60, seed: int = 20230217) -> int:
    """Compare the oracles with tpcore's brute force and power iteration on tiny graphs.

    Returns the number of cases compared; raises AssertionError on the first
    disagreement.  The tiny graphs do not depend on the benchmark seed.
    """
    from tpcore import (QueryContext, TemporalGraph, brute_force_search,
                        power_iteration_pagerank)

    rng = random.Random(seed)
    done = 0
    while done < cases:
        triples = _tiny_triples(rng)
        ours = Graph(triples)
        theirs = TemporalGraph.from_triples(triples)
        perm = np.array(ours.ids(theirs.labels))
        u = rng.randrange(ours.n)
        labels = [ours.labels[u]]
        if ours.adj[u] and rng.random() < 0.5:
            labels.append(ours.labels[rng.choice(ours.adj[u])])
        alpha = rng.choice((0.15, 0.2, 0.5))
        queries = ours.ids(labels)
        ctx = QueryContext(tuple(theirs.index[lab] for lab in labels), alpha)
        ref = np.zeros(ours.n)
        ref[perm] = power_iteration_pagerank(theirs, ctx).values
        mine = scores(ours, queries, alpha)
        assert np.max(np.abs(mine - ref)) <= 1e-9, (triples, labels, mine, ref)
        assert abs(mine.sum() - 1.0) <= 1e-9, (triples, labels)
        brute = brute_force_search(theirs, ctx)
        expect = frozenset(int(perm[x]) for x in brute.members)
        members, beta = peel(ours, mine, queries)
        assert members == expect, (triples, labels, members, expect)
        assert abs(beta - brute.beta) <= 1e-9, (triples, labels, beta, brute.beta)
        assert connected(ours, members, queries)
        assert abs(min_degree(ours, mine, expect) - brute.beta) <= 1e-9
        others = set(range(ours.n)) - members
        if others and len(members) > 1:
            # a vertex with no neighbour in the answer must disconnect it
            far = min(others)
            if not any(far in ours.adj[x] for x in members):
                assert not connected(ours, members | {far}, queries)
        done += 1
    return done


if __name__ == "__main__":
    import sys
    from pathlib import Path

    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    print(f"{self_test(cases=500)} tiny cases agree with brute force and power iteration")
