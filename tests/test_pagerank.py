import random

import numpy as np
import pytest
from hypothesis import given

import tpcore
from tpcore import (NoQueryActivity, NotConverged, QueryContext, TemporalGraph,
                    power_iteration_pagerank, temporal_pagerank,
                    temporal_pagerank_multi)
from tests.conftest import ctx_for, graph_strategy, random_temporal_graph
from tests.oracle import stop_dict_pagerank


def by_label(graph, scores):
    return {lab: float(scores.values[graph.index[lab]]) for lab in graph.labels}


# ---- golden fixtures ---------------------------------------------------------

def test_edge1_all_mass_stops_at_neighbor(edge1):
    got = by_label(edge1, temporal_pagerank(edge1, ctx_for(edge1)))
    assert got["q"] == pytest.approx(0.0, abs=1e-9)
    assert got["a"] == pytest.approx(1.0, abs=1e-9)


def test_chain3_golden(chain3):
    got = by_label(chain3, temporal_pagerank(chain3, ctx_for(chain3)))
    assert got["q"] == pytest.approx(0.0, abs=1e-9)
    assert got["a"] == pytest.approx(0.2, abs=1e-9)
    assert got["b"] == pytest.approx(0.8, abs=1e-9)


def test_tri_golden(tri):
    got = by_label(tri, temporal_pagerank(tri, ctx_for(tri)))
    assert got["q"] == pytest.approx(0.0, abs=1e-9)
    assert got["a"] == pytest.approx(0.5, abs=1e-9)
    assert got["b"] == pytest.approx(0.5, abs=1e-9)


def test_fixtures_match_oracle(tri, chain3, edge1):
    for g in (tri, chain3, edge1):
        ctx = ctx_for(g)
        stream = temporal_pagerank(g, ctx).values
        oracle = power_iteration_pagerank(g, ctx).values
        assert np.abs(stream - oracle).max() < 1e-9


def test_asymmetry_witness(chain3):
    q, a = chain3.index["q"], chain3.index["a"]
    from_q = temporal_pagerank(chain3, QueryContext.single(q)).values
    from_a = temporal_pagerank(chain3, QueryContext.single(a)).values
    assert from_q[a] == pytest.approx(0.2, abs=1e-9)
    assert from_a[q] == pytest.approx(0.5, abs=1e-9)


# ---- properties ----------------------------------------------------------------

@given(graph_strategy())
def test_mass_and_range(g):
    scores = temporal_pagerank(g, QueryContext.single(0))
    assert scores.total() == pytest.approx(1.0, abs=1e-9)
    assert (scores.values >= 0).all()
    assert (scores.values <= 1 + 1e-12).all()


def test_oracle_equivalence_sweep():
    rng = random.Random(42)
    # query sets come from their own stream so the single-query inputs stay put
    set_rng = random.Random(4242)
    for _ in range(30):
        g = random_temporal_graph(rng, n_max=15, m_max=60, t_max=20)
        q = rng.randrange(g.n)
        others = [v for v in range(g.n) if v != q]
        extra = set_rng.sample(others, min(set_rng.randint(1, 2), len(others)))
        for ctx in (QueryContext.single(q), QueryContext((q, *extra))):
            stream = temporal_pagerank(g, ctx).values
            oracle = power_iteration_pagerank(g, ctx).values
            assert np.abs(stream - oracle).max() <= 1e-8


def test_midscale_sweep_matches_stream_dp():
    """Graphs too large for the dense oracle (n ~ 300, m ~ 3k, low and high
    occurrence): the push agrees with the independent stream DP."""
    rng = random.Random(300)
    for _ in range(20):
        n = rng.randint(250, 350)
        horizon = rng.choice([40, 1000])
        triples = []
        for _ in range(rng.randint(2500, 3500)):
            u, v = rng.sample(range(n), 2)
            triples.append((f"v{u}", f"v{v}", rng.randint(1, horizon)))
        g = TemporalGraph.from_triples(triples)
        ctx = QueryContext(tuple(rng.sample(range(g.n), rng.randint(1, 3))))
        scores = temporal_pagerank(g, ctx)
        assert np.abs(scores.values - stop_dict_pagerank(g, ctx)).max() <= 1e-12
        assert scores.total() == pytest.approx(1.0, abs=1e-12)


def test_scores_at_the_timestamp_limit():
    """Shifting every timestamp leaves the walk unchanged, also when the last
    one lands on 2**63 - 1, where float64 cannot tell adjacent timestamps apart."""
    rng = random.Random(63)
    for _ in range(10):
        g = random_temporal_graph(rng, n_max=10, m_max=30, t_max=20)
        shift = 2**63 - 1 - g.edge_list[-1][2]
        late = TemporalGraph(g.labels, [(u, v, t + shift) for u, v, t in g.edge_list])
        ctx = QueryContext.single(rng.randrange(g.n))
        # power iteration stops at an L1 change of 1e-12, a few 1e-12 short of the mass
        for score, mass_tol in ((temporal_pagerank, 1e-12), (power_iteration_pagerank, 1e-10)):
            expected = score(g, ctx).values
            got = score(late, ctx)
            assert np.abs(got.values - expected).max() <= 1e-12
            assert got.total() == pytest.approx(1.0, abs=mass_tol)


# ---- multiple query vertices ----------------------------------------------------

def test_multi_singleton_bit_identical(tri):
    ctx = ctx_for(tri)
    single = temporal_pagerank(tri, ctx).values
    multi = temporal_pagerank_multi(tri, ctx).values
    assert np.array_equal(single, multi)


def test_multi_mean_tri(tri):
    ctx = QueryContext((tri.index["q"], tri.index["a"]))
    got = by_label(tri, temporal_pagerank(tri, ctx))
    assert got["q"] == pytest.approx(0.25, abs=1e-9)
    assert got["a"] == pytest.approx(0.25, abs=1e-9)
    assert got["b"] == pytest.approx(0.5, abs=1e-9)


def test_multi_names_are_aliases():
    assert tpcore.temporal_pagerank_multi is tpcore.temporal_pagerank
    assert tpcore.exact_community_multi is tpcore.exact_community
    assert tpcore.local_search_multi is tpcore.local_search


@given(graph_strategy())
def test_multi_mass(g):
    queries = tuple(range(min(3, g.n)))
    scores = temporal_pagerank(g, QueryContext(queries))
    assert scores.total() == pytest.approx(1.0, abs=1e-9)


# ---- errors and context validation -----------------------------------------------

def test_no_query_activity_names_vertex():
    g = TemporalGraph(["lonely", "u", "v"], [(1, 2, 5)])
    with pytest.raises(NoQueryActivity, match="lonely"):
        temporal_pagerank(g, QueryContext.single(0))
    with pytest.raises(NoQueryActivity, match="lonely"):
        temporal_pagerank(g, QueryContext((1, 0)))


def test_not_converged(chain3):
    with pytest.raises(NotConverged):
        power_iteration_pagerank(chain3, ctx_for(chain3), max_iters=1)


def test_query_context_validation():
    with pytest.raises(ValueError):
        QueryContext((0,), alpha=0.0)
    with pytest.raises(ValueError):
        QueryContext((0,), alpha=1.0)
    with pytest.raises(ValueError):
        QueryContext(())
    assert QueryContext((3, 1, 3)).queries == (3, 1)
