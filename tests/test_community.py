import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tpcore import (NoCore, QueriesDisconnected, QueryContext, SynthConfig,
                    TemporalGraph, TooLarge, brute_force_search, exact_community,
                    exact_community_multi, kcore_baseline, min_proximity_degree,
                    proximity_degree, synth_graph, temporal_pagerank)
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
    with pytest.raises(QueriesDisconnected):
        exact_community(g, ctx)


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


# ---- two-criteria baseline ----------------------------------------------------------

def test_baseline_tri_k2(tri):
    res = kcore_baseline(tri, ctx_for(tri), 2)
    assert labels(tri, res.members) == ["a", "b", "q"]
    assert res.beta == 0.0  # the query's own score caps the objective


def test_baseline_no_core(tri):
    with pytest.raises(NoCore):
        kcore_baseline(tri, ctx_for(tri), 3)


def test_baseline_k0_whole_component(chain3):
    res = kcore_baseline(chain3, ctx_for(chain3), 0)
    assert labels(chain3, res.members) == ["a", "b", "q"]


def test_baseline_feasibility():
    rng = random.Random(31)
    for _ in range(20):
        g = random_temporal_graph(rng)
        q = rng.randrange(g.n)
        for k in (0, 1, 2):
            try:
                res = kcore_baseline(g, QueryContext.single(q), k)
            except NoCore:
                continue
            assert q in res.members
            assert g.connected_component(res.members, q) == set(res.members)
            for u in res.members:
                inside = sum(1 for v in g.adj[u] if v in res.members)
                assert inside >= k


def baseline_or_nocore(solver, g, ctx, k):
    try:
        return solver(g, ctx, k)
    except NoCore:
        return None


def test_baseline_matches_reference_sweep():
    rng = random.Random(59)
    sizes = [(12, 40, 20), (20, 80, 20), (60, 250, 30)]
    outcomes = {"answer": 0, "nocore": 0}
    for i in range(2000):
        n_max, m_max, t_max = sizes[i % 3]
        g = random_temporal_graph(rng, n_max=n_max, m_max=m_max, t_max=t_max)
        ctx = QueryContext.single(rng.randrange(g.n), rng.choice((0.2, 0.5)))
        k = rng.randint(0, 4)
        res = baseline_or_nocore(kcore_baseline, g, ctx, k)
        ref = baseline_or_nocore(oracle.reference_kcore_baseline, g, ctx, k)
        assert (res is None) == (ref is None)
        if res is not None:
            assert res.members == ref.members
            assert res.beta == ref.beta
            outcomes["answer"] += 1
        else:
            outcomes["nocore"] += 1
    assert min(outcomes.values()) > 200  # both branches are exercised


def test_baseline_reads_the_query_component_at_most_twice():
    g = synth_graph(SynthConfig(1500, 6.0, 2, 40, 3))
    calls = []

    def counted(subset, q):
        calls.append(q)
        return TemporalGraph.connected_component(g, subset, q)

    order = sorted(range(g.n), key=lambda u: (len(g.adj[u]), u))
    ctx = QueryContext.single(order[g.n // 2])
    g.connected_component = counted
    res = kcore_baseline(g, ctx, 2)
    assert len(calls) <= 2
    del g.connected_component
    assert res.members == oracle.reference_kcore_baseline(g, ctx, 2).members

