import math
import random
from array import array

import numpy as np
import pytest
from hypothesis import given

import tpcore
import tpcore.pagerank as pagerank
from tpcore import (NotConverged, QueryContext, QueryNotInSet, TemporalGraph,
                    brute_force_search, exact_community, local_search,
                    power_iteration_pagerank, propagate, temporal_pagerank,
                    temporal_pagerank_multi)
from tests import oracle
from tests.conftest import TRI, ctx_for, graph_strategy, random_temporal_graph
from tests.oracle import reference_drain, stop_dict_pagerank
from tests.test_graph import messy_triples


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
    assert math.fsum(scores.per_vertex) == pytest.approx(1.0, abs=1e-9)
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
        assert math.fsum(scores.per_vertex) == pytest.approx(1.0, abs=1e-12)


def test_scores_at_the_timestamp_limit():
    """Shifting every timestamp leaves the walk unchanged, also when the last
    one lands on 2**63 - 1, where float64 cannot tell adjacent timestamps apart."""
    rng = random.Random(63)
    for _ in range(10):
        g = random_temporal_graph(rng, n_max=10, m_max=30, t_max=20)
        shift = 2**63 - 1 - oracle.edge_list(g)[-1][2]
        late = TemporalGraph.from_triples(
            (u, v, t + shift) for u, v, t in (oracle.triple(g, e) for e in range(g.m)))
        assert late.labels == g.labels
        ctx = QueryContext.single(rng.randrange(g.n))
        # power iteration stops at an L1 change of 1e-12, a few 1e-12 short of the mass
        for score, mass_tol in ((temporal_pagerank, 1e-12), (power_iteration_pagerank, 1e-10)):
            expected = score(g, ctx).values
            got = score(late, ctx)
            assert np.abs(got.values - expected).max() <= 1e-12
            assert math.fsum(got.per_vertex) == pytest.approx(1.0, abs=mass_tol)


def test_push_memo_holds_the_graph_denominators():
    rng = random.Random(23)
    filled = 0
    for _ in range(100):
        g = random_temporal_graph(rng, n_max=12, m_max=40, t_max=rng.choice([3, 20, 1000]))
        ctx = QueryContext.single(rng.randrange(g.n))
        local_search(g, ctx)
        temporal_pagerank(g, ctx)
        for s, denom in enumerate(g.state_denom):
            if denom:  # 0.0: never computed
                assert denom == g.denominator(*oracle.arrival(g, s))  # bit for bit
                filled += 1
    assert filled > 1000


def test_cold_and_warm_passes_agree_bit_for_bit():
    """A pass that reads denominators other queries left in ``state_denom``
    gives the scores of a pass that computes them all afresh."""
    rng = random.Random(31)
    warm_entries = 0
    for top in (2**63 - 1, 50):
        for _ in range(100):
            triples = messy_triples(rng, top)
            cold, warm = TemporalGraph.from_triples(triples), TemporalGraph.from_triples(triples)
            alpha = rng.choice((0.2, 0.5))
            ctx = QueryContext.single(rng.randrange(cold.n), alpha)
            local_search(warm, QueryContext.single(rng.randrange(warm.n), alpha))
            temporal_pagerank(warm, QueryContext((rng.randrange(warm.n), rng.randrange(warm.n)),
                                                 alpha))
            warm_entries += sum(d != 0.0 for d in warm.state_denom)
            got = temporal_pagerank(warm, ctx).per_vertex
            assert got == temporal_pagerank(cold, ctx).per_vertex
    assert warm_entries > 1000


def test_one_denominator_per_arrival(monkeypatch):
    """A cold pass computes each (arrival vertex, time) denominator once, however
    many of the states it pushes arrive there."""
    rng = random.Random(37)
    calls, arrivals = [], set()
    for k in range(100):
        g = random_temporal_graph(rng, n_max=10, m_max=40, t_max=rng.choice([2, 5, 1000]))
        fresh = g.denominator
        monkeypatch.setattr(g, "denominator",
                            lambda u, t0: calls.append((k, u, t0)) or fresh(u, t0))
        pushed = []

        def spy(state, sids, graph, *args, **kwargs):
            def feed():
                for s in sids:  # drain feeds only states holding mass, and forces them
                    pushed.append(s)
                    yield s
            return propagate(state, feed(), graph, *args, **kwargs)

        monkeypatch.setattr(pagerank, "propagate", spy)
        temporal_pagerank(g, QueryContext.single(rng.randrange(g.n)))
        monkeypatch.undo()
        arrivals |= {(k, *oracle.arrival(g, s)) for s in pushed
                     if not oracle.vertex_dangling(g, *oracle.arrival(g, s))}
    assert len(calls) == len(set(calls)) and set(calls) == arrivals
    assert len(arrivals) > 500


def graph_of_size(rng, m, times):
    """A graph of exactly m edges, distinct triples over 60 vertices and ``times``."""
    triples = [(f"v{u}", f"v{v}", t) for u in range(60) for v in range(u + 1, 60) for t in times]
    g = TemporalGraph.from_triples(rng.sample(triples, m))
    assert g.m == m
    return g


@pytest.mark.parametrize("n_states", [1022, 1024, 1026, 2048, 3002])
def test_block_drain_matches_one_scan(n_states):
    """The drain scans its states in blocks of 1,024; with 2m just below, at and
    above multiples of that, and 1-3 timestamps, so that pushes feed later
    states of the same block and of the next, it settles bit for bit what one
    scan over every state id settles, for single queries and query sets, and
    leaves no residue."""
    assert len(pagerank._OFFSETS) == 1024
    rng = random.Random(n_states)
    for top in (3, 2**63 - 1):
        for horizon in (1, 2, 3):
            g = graph_of_size(rng, n_states // 2, range(top - horizon + 1, top + 1))
            for size in (1, 1, 2, 3):
                ctx = QueryContext(tuple(rng.sample(range(g.n), size)))
                got, want = pagerank.seed_state(g, ctx), pagerank.seed_state(g, ctx)
                pagerank.drain(got, g)
                reference_drain(want, g)
                assert array("d", got.lower).tobytes() == array("d", want.lower).tobytes()
                for state in (got, want):
                    assert set(state.residue) == {0.0} and state.residue_total == 0.0


def test_a_restored_filled_graph_computes_no_denominator(monkeypatch):
    """A graph packed after ``fill_denominators``, as the command line's cache
    stores it, answers every search without computing a denominator, and
    answers as a graph that computes them all does."""
    rng = random.Random(41)
    for top in (2**63 - 1, 50):
        for _ in range(60):
            triples = messy_triples(rng, top)
            cold = TemporalGraph.from_triples(triples)
            filled = TemporalGraph.from_triples(triples)
            filled.fill_denominators()
            warm = TemporalGraph.unpack(filled.pack())
            monkeypatch.setattr(warm, "denominator",
                                lambda u, t0: pytest.fail(f"computed denominator({u}, {t0})"))
            ctx = QueryContext.single(rng.randrange(cold.n))
            assert (temporal_pagerank(warm, ctx).per_vertex
                    == temporal_pagerank(cold, ctx).per_vertex)
            got, want = exact_community(warm, ctx), exact_community(cold, ctx)
            assert (got.members, got.beta) == (want.members, want.beta)
            got, want = local_search(warm, ctx), local_search(cold, ctx)
            assert (got.members, got.beta_lower, got.epsilon) == (
                want.members, want.beta_lower, want.epsilon)
            assert warm.state_denom == filled.state_denom


def test_values_array_equals_the_score_list(tri):
    scores = temporal_pagerank(tri, ctx_for(tri))
    assert isinstance(scores.per_vertex, list)
    assert isinstance(scores.values, np.ndarray)
    assert scores.values.dtype == np.float64
    assert scores.values.tolist() == scores.per_vertex

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
    assert math.fsum(scores.per_vertex) == pytest.approx(1.0, abs=1e-9)


# ---- errors and context validation -----------------------------------------------

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



@pytest.mark.parametrize("queries, bad", [((-1,), -1), ((4,), 4), ((0, -1), -1)],
                         ids=["minus-one", "n", "set-with-minus-one"])
@pytest.mark.parametrize("solve", [exact_community, local_search, brute_force_search,
                                   temporal_pagerank, power_iteration_pagerank])
def test_query_ids_outside_the_graph_are_refused(solve, queries, bad):
    """-1 would otherwise score the last vertex, and n index past the lists."""
    g = TemporalGraph.from_triples(TRI + [("b", "c", 3)])
    assert g.n == 4
    with pytest.raises(QueryNotInSet, match=rf"query vertex id {bad} is outside 0\.\.3"):
        solve(g, QueryContext(queries))
