import heapq
import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

import tpcore.community as community
from tpcore import (CommunitySearchError, QueriesDisconnected, QueryContext,
                    SynthConfig, TemporalGraph, TooLarge, brute_force_search,
                    exact_community, exact_community_multi,
                    min_proximity_degree, proximity_degree, synth_graph,
                    synth_triples, temporal_pagerank)
from tests import oracle
from tests.conftest import ctx_for, graph_strategy, random_temporal_graph


def labels(graph, members):
    return sorted(graph.labels[u] for u in members)


# ---- proximity degree -----------------------------------------------------------

def test_proximity_degree_tri(tri):
    scores = temporal_pagerank(tri, ctx_for(tri))
    q, a = tri.index["q"], tri.index["a"]
    assert proximity_degree(scores, tri, set(range(tri.n)), q) == pytest.approx(1.0, abs=1e-12)
    assert proximity_degree(scores, tri, {a}, a) == 0.0
    assert proximity_degree(scores, tri, {q, a}, a) == pytest.approx(0.0, abs=1e-12)


@given(graph_strategy(), st.data())
def test_monotone_under_supersets(g, data):
    scores = temporal_pagerank(g, QueryContext.single(0))
    big = set(data.draw(st.lists(st.integers(0, g.n - 1), min_size=1, unique=True)))
    small = set(data.draw(st.lists(st.sampled_from(sorted(big)), min_size=1, unique=True)))
    u = data.draw(st.sampled_from(sorted(small)))
    assert (proximity_degree(scores, g, small, u)
            <= proximity_degree(scores, g, big, u) + 1e-15)


# ---- exact greedy search ---------------------------------------------------------

def test_exact_tri(tri):
    res = exact_community(tri, ctx_for(tri))
    assert labels(tri, res.members) == ["a", "b", "q"]
    assert res.beta == pytest.approx(0.5, abs=1e-9)


def test_exact_chain3(chain3):
    res = exact_community(chain3, ctx_for(chain3))
    assert labels(chain3, res.members) == ["a", "b", "q"]
    assert res.beta == pytest.approx(0.2, abs=1e-9)


def test_exact_edge1(edge1):
    res = exact_community(edge1, ctx_for(edge1))
    assert labels(edge1, res.members) == ["a", "q"]
    assert res.beta == 0.0


def test_brute_fixtures(tri, chain3, edge1):
    for g, want_beta in ((tri, 0.5), (chain3, 0.2), (edge1, 0.0)):
        res = brute_force_search(g, ctx_for(g))
        assert res.beta == pytest.approx(want_beta, abs=1e-9)
    assert labels(tri, brute_force_search(tri, ctx_for(tri)).members) == ["a", "b", "q"]


def test_brute_too_large():
    triples = [(f"v{i}", f"v{i+1}", i + 1) for i in range(12)]  # 13 vertices
    g = TemporalGraph.from_triples(triples)
    with pytest.raises(TooLarge):
        brute_force_search(g, QueryContext.single(0))


def test_exactness_sweep_matches_brute_force():
    rng = random.Random(20240)
    for _ in range(40):
        g = random_temporal_graph(rng, n_max=9, m_max=25, t_max=12)
        ctx = QueryContext.single(rng.randrange(g.n))
        greedy = exact_community(g, ctx)
        oracle = brute_force_search(g, ctx)
        assert greedy.members == oracle.members
        assert greedy.beta == pytest.approx(oracle.beta, abs=1e-12)


def test_result_feasibility_and_determinism():
    rng = random.Random(77)
    for _ in range(25):
        g = random_temporal_graph(rng)
        ctx = QueryContext.single(rng.randrange(g.n))
        res = exact_community(g, ctx)
        again = exact_community(g, ctx)
        assert res.members == again.members and res.beta == again.beta
        assert ctx.queries[0] in res.members
        assert g.connected_component(res.members, ctx.queries[0]) == set(res.members)
        recomputed = min_proximity_degree(res.scores, g, res.members)
        assert abs(recomputed - res.beta) <= 1e-12


# ---- multiple query vertices ------------------------------------------------------

def test_multi_singleton_identical(tri):
    ctx = ctx_for(tri)
    single = exact_community(tri, ctx)
    multi = exact_community_multi(tri, ctx)
    assert single.members == multi.members
    assert single.beta == multi.beta


def test_multi_tri(tri):
    ctx = QueryContext((tri.index["q"], tri.index["a"]))
    res = exact_community(tri, ctx)
    assert labels(tri, res.members) == ["a", "b", "q"]
    assert res.beta == pytest.approx(0.5, abs=1e-9)


def test_multi_disconnected_queries():
    g = TemporalGraph.from_triples([("q", "a", 1), ("x", "y", 2)])
    ctx = QueryContext((g.index["q"], g.index["x"]))
    for solver in (exact_community, brute_force_search):
        with pytest.raises(QueriesDisconnected):
            solver(g, ctx)


def test_multi_matches_brute_force():
    """Pairs and, where the component allows, triples of queries; triples
    often split apart before any query is extracted by the peel."""
    rng = random.Random(5150)
    triples = random.Random(5151)
    checked = 0
    while checked < 40:
        g = random_temporal_graph(rng, n_max=8, m_max=20, t_max=10)
        q = rng.randrange(g.n)
        comp = sorted(g.connected_component(range(g.n), q))
        others = [v for v in comp if v != q]
        if not others:
            continue
        sets = [(q, rng.choice(others))]
        if len(others) >= 2:
            sets.append((q, *triples.sample(others, 2)))
        for queries in sets:
            ctx = QueryContext(queries)
            greedy = exact_community(g, ctx)
            oracle = brute_force_search(g, ctx)
            assert greedy.members == oracle.members
            assert greedy.beta == pytest.approx(oracle.beta, abs=1e-12)
        checked += 1


def exact_or_error(solver, g, ctx):
    """The solver's result, or the type of the error it raised."""
    try:
        return solver(g, ctx)
    except CommunitySearchError as exc:
        return type(exc)


def answer(outcome):
    return outcome if isinstance(outcome, type) else (outcome.members, outcome.beta)


def two_hop(g, queries):
    near = set(queries)
    for _ in range(2):
        near |= {v for u in near for v in g.adj[u]}
    return near


def test_exact_matches_whole_graph_peel_sweep():
    """The flood-bounded peel gives the whole-graph peel's answer bit for
    bit, or raises the same error.  Horizons 1 and 2 put the edges on one or
    two timestamps, which makes degrees that tie or differ in the last ulp."""
    rng = random.Random(4242)
    groups = ([(12, 40, h, 500) for h in (5, 20, 1000)]
              + [(200, 600, h, 400) for h in (5, 20, 1000)]
              + [(12, 40, h, 200) for h in (1, 2)] + [(200, 600, h, 200) for h in (1, 2)])
    outcomes = {"answer": 0, "error": 0, "zero_bound": 0, "far_apart": 0, "final_peel": 0}
    for n_max, m_max, horizon, count in groups:
        for _ in range(count):
            g = random_temporal_graph(rng, n_max=n_max, m_max=m_max, t_max=horizon)
            q = rng.randrange(g.n)
            comp = sorted(g.connected_component(range(g.n), q))
            queries = [q] + [rng.choice(comp) if rng.random() < 0.7 else rng.randrange(g.n)
                             for _ in range(rng.randrange(3))]
            ctx = QueryContext(tuple(queries), rng.choice((0.2, 0.5)))
            res = exact_or_error(exact_community, g, ctx)
            mine = answer(res)
            assert mine == answer(exact_or_error(oracle.reference_exact_community, g, ctx))
            if isinstance(mine, tuple):
                stats = res.stats
                outcomes["answer"] += 1
                outcomes["zero_bound"] += stats["bound"] == 0.0
                outcomes["far_apart"] += not oracle.joins(g, two_hop(g, ctx.queries),
                                                          ctx.queries)
                outcomes["final_peel"] += stats["region"] > stats["bound_set"]
            else:
                outcomes["error"] += 1
    assert sum(count for *_, count in groups) >= 3000
    assert min(outcomes.values()) > 50  # every branch is exercised


# every edge at one timestamp, so degrees tie or differ only in the last bit
ULP_APART = [("v5", "v2", 1), ("v3", "v6", 1), ("v6", "v0", 1), ("v5", "v6", 1),
             ("v7", "v2", 1), ("v2", "v4", 1), ("v3", "v4", 1), ("v0", "v4", 1),
             ("v2", "v1", 1), ("v1", "v7", 1), ("v7", "v6", 1), ("v1", "v5", 1),
             ("v2", "v6", 1), ("v0", "v5", 1), ("v3", "v0", 1), ("v3", "v7", 1),
             ("v3", "v2", 1), ("v5", "v3", 1)]


def float_keyed_peel_beta(graph, values, queries):
    """The whole-graph peel's beta with float heap keys, each degree
    decremented by a neighbour's score as it goes: the minimum degree of the
    best round's component of the first query."""
    qset = set(queries)
    rho = [proximity_degree(values, graph, range(graph.n), u) for u in range(graph.n)]
    alive = [True] * graph.n
    heap = [(rho[u], u in qset, u) for u in range(graph.n)]
    heapq.heapify(heap)
    removal_log, round_degrees = [], []
    while heap:
        val, _, u = heapq.heappop(heap)
        if not alive[u] or val != rho[u]:
            continue
        round_degrees.append(math.fsum(values[v] for v in graph.adj[u] if alive[v]))
        if u in qset:
            break
        alive[u] = False
        removal_log.append(u)
        for v in graph.adj[u]:
            if alive[v]:
                rho[v] -= values[u]
                heapq.heappush(heap, (rho[v], v in qset, v))
    last = graph.last_connected_round(range(graph.n), removal_log, queries)
    best = round_degrees.index(max(round_degrees[:last + 1]))
    survivors = set(range(graph.n)) - set(removal_log[:best])
    return min_proximity_degree(values, graph, graph.connected_component(survivors, queries[0]))


def test_exact_peel_takes_true_minima_an_ulp_apart():
    """Decremented float keys drift here, so a float-keyed whole-graph peel
    extracts a vertex an ulp above the minimum and reports a smaller beta;
    exact integer keys, the library's and the reference peel's, give brute
    force's answer."""
    g = TemporalGraph.from_triples(ULP_APART)
    ctx = QueryContext((g.index["v2"], g.index["v7"]), 0.2)
    res = exact_community(g, ctx)
    brute = brute_force_search(g, ctx)
    assert (res.members, res.beta) == (brute.members, brute.beta)
    assert answer(oracle.reference_exact_community(g, ctx)) == (brute.members, brute.beta)
    assert float_keyed_peel_beta(g, res.scores.per_vertex, ctx.queries) < res.beta


@pytest.fixture(scope="module")
def hub_graph():
    """A 20k-vertex synth graph plus a hub joined to its even-numbered half."""
    n = 20_000
    triples = synth_triples(SynthConfig(n, 5.0, 2, 40, 11))
    rng = random.Random(7)
    triples += [("hub", f"v{i}", rng.randint(1, 40)) for i in range(0, n, 2)]
    return TemporalGraph.from_triples(triples)


def test_exact_matches_whole_graph_peel_on_a_hub(hub_graph):
    """At the hub itself the region is thousands of vertices."""
    g = hub_graph
    ctx = QueryContext.single(g.index["hub"])
    res = exact_community(g, ctx)
    members, beta = oracle.reference_peel(g, res.scores.values, ctx.queries)
    assert res.members == members and res.beta == beta
    assert res.stats["region"] > 1000


def test_exact_walks_the_answer_component_once(hub_graph, monkeypatch):
    """Every doubling prefix is peeled, but only for its bound: the answer's
    component is walked once, after the flood, and no peel recounts it."""
    g = hub_graph
    calls = {"peel": 0, "walk": 0, "recount": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(community, "_peel", counted("peel", community._peel))
    monkeypatch.setattr(g, "connected_component",
                        counted("walk", g.connected_component))
    monkeypatch.setattr(community, "min_proximity_degree",
                        counted("recount", community.min_proximity_degree))
    res = exact_community(g, QueryContext.single(g.index["hub"]))
    assert res.stats["bound_set"] == 4096
    assert calls == {"peel": 14, "walk": 1, "recount": 0}


@pytest.mark.parametrize("label", ["v0", "v2", "v4"])
def test_exact_bounds_a_hub_neighbour_from_a_small_prefix(hub_graph, label):
    """At a hub's neighbour the queries' two-hop set would hold the hub's
    10,000 neighbours; the flood certifies its bound from a small prefix."""
    g = hub_graph
    ctx = QueryContext.single(g.index[label])
    res = exact_community(g, ctx)
    members, beta = oracle.reference_peel(g, res.scores.values, ctx.queries)
    assert res.members == members and res.beta == beta
    assert res.stats["bound_set"] <= 100


def test_exact_joins_far_queries_in_a_small_region():
    """Query sets more than two hops apart: the flood takes every query before
    its first peel, so the bound stays positive and the region small (measured
    max 170 of 6,000), and the answer is still the whole-graph peel's."""
    g = synth_graph(SynthConfig(n=6000, avg_deg=5.0, timestamps_per_edge=2,
                                horizon=40, seed=11))
    rng = random.Random(5)
    checked = 0
    while checked < 10:
        queries = tuple(rng.sample(range(g.n), 2 + checked % 2))
        if (oracle.joins(g, two_hop(g, queries), queries)
                or not oracle.joins(g, range(g.n), queries)):
            continue
        ctx = QueryContext(queries, 0.2)
        res = exact_community(g, ctx)
        assert answer(res) == answer(oracle.reference_exact_community(g, ctx))
        assert res.stats["bound"] > 0.0 and res.stats["region"] <= 300
        checked += 1


def test_exact_stats_bound_and_region(tri):
    """The flood peels {q}, then q and one neighbour; both answers have minimum
    degree 0, so the bound never stops it and the final peel takes all three."""
    res = exact_community(tri, ctx_for(tri))
    assert res.stats == {"bound": 0.0, "bound_set": 2, "region": 3}
