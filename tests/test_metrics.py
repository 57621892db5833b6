import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tpcore import (QueryContext, community_report, exact_community,
                    min_proximity_degree, temporal_pagerank)
from tests import oracle
from tests.conftest import ctx_for, graph_strategy, random_temporal_graph


def ids(graph, *labs):
    return {graph.index[x] for x in labs}


def density(graph, subset):
    """The report's temporal density; the scores play no part in it."""
    return community_report(graph, [0.0] * graph.n, subset).td


def conductance(graph, subset):
    """The report's temporal conductance; the scores play no part in it."""
    return community_report(graph, [0.0] * graph.n, subset).tc


# ---- temporal density ---------------------------------------------------------

def test_density_chain3_pair(chain3):
    assert density(chain3, ids(chain3, "q", "a")) == pytest.approx(1.0)


def test_density_tri_full(tri):
    assert density(tri, ids(tri, "q", "a", "b")) == pytest.approx(0.5)


def test_density_degenerate(tri, chain3):
    assert density(tri, ids(tri, "q")) == 0.0
    assert density(chain3, ids(chain3, "q", "b")) == 0.0  # no internal edges


# ---- temporal conductance --------------------------------------------------------

def test_conductance_whole_graph_is_zero(tri, chain3):
    assert conductance(tri, set(range(tri.n))) == 0.0
    assert conductance(chain3, set(range(chain3.n))) == 0.0


def test_conductance_chain3_pair(chain3):
    assert conductance(chain3, ids(chain3, "q", "a")) == pytest.approx(1.0)


def test_conductance_tri_singleton(tri):
    assert conductance(tri, ids(tri, "q")) == pytest.approx(1.0)


@given(graph_strategy(), st.data())
def test_conductance_cut_symmetry_and_range(g, data):
    subset = set(data.draw(st.lists(st.integers(0, g.n - 1), min_size=1, unique=True)))
    if len(subset) == g.n:
        subset.pop()
    if not subset:
        return
    rest = set(range(g.n)) - subset
    tc = conductance(g, subset)
    assert 0.0 <= tc <= 1.0
    if rest:
        assert tc == pytest.approx(conductance(g, rest), abs=1e-12)


@given(graph_strategy(), st.data())
def test_density_range(g, data):
    subset = set(data.draw(st.lists(st.integers(0, g.n - 1), min_size=1, unique=True)))
    assert 0.0 <= density(g, subset) <= 1.0


# ---- minimum proximity degree -------------------------------------------------------

def test_min_degree_fixtures(tri, chain3):
    s_tri = temporal_pagerank(tri, ctx_for(tri))
    assert min_proximity_degree(s_tri, tri, set(range(tri.n))) == pytest.approx(0.5, abs=1e-12)
    assert min_proximity_degree(s_tri, tri, ids(tri, "q")) == 0.0
    s_chain = temporal_pagerank(chain3, ctx_for(chain3))
    assert min_proximity_degree(s_chain, chain3, set(range(chain3.n))) == pytest.approx(
        0.2, abs=1e-12)


def test_min_degree_equals_reported_beta_exactly():
    rng = random.Random(11)
    for _ in range(25):
        g = random_temporal_graph(rng)
        ctx = QueryContext.single(rng.randrange(g.n))
        res = exact_community(g, ctx)
        assert min_proximity_degree(res.scores, g, res.members) == res.beta


def test_community_report(tri):
    scores = temporal_pagerank(tri, ctx_for(tri))
    report = community_report(tri, scores, set(range(tri.n)))
    assert report.td == pytest.approx(0.5)
    assert report.tc == 0.0
    assert report.md == pytest.approx(0.5, abs=1e-12)
    assert report.size == 3
    assert report.internal_times == 2


def test_metrics_match_mask_formulas():
    rng = random.Random(29)
    for _ in range(200):
        g = random_temporal_graph(rng, n_max=15, m_max=60, t_max=8)
        subset = set(rng.sample(range(g.n), rng.randint(1, g.n)))
        td, tc, times = oracle.reference_metrics(g, subset)
        report = community_report(g, temporal_pagerank(g, QueryContext.single(0)), subset)
        assert (report.td, report.tc, report.internal_times) == (td, tc, times)
