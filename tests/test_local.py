import random

import numpy as np
import pytest

from tpcore import (PushState, QueriesDisconnected, QueryContext, TemporalGraph,
                    degree_bounds, drain, exact_community, expand, local_search,
                    local_search_multi, min_proximity_degree,
                    power_iteration_pagerank, propagate, proximity_degree,
                    reduce_stage, temporal_pagerank)
from tests.conftest import ctx_for, random_temporal_graph
from tests.oracle import stop_dict_pagerank
from tests.test_graph import edge


def labels(graph, members):
    return sorted(graph.labels[u] for u in members)


# ---- single-state push ---------------------------------------------------------

def test_propagate_chain3_trace(chain3):
    state = PushState.fresh(chain3, 0.2)
    qa = edge(chain3, "q", "a", 1)
    ab = edge(chain3, "a", "b", 2)
    state.residue[qa.state_id] = 1.0
    state.residue_total = 1.0
    propagate(state, [qa.state_id], chain3)
    a, b = chain3.index["a"], chain3.index["b"]
    assert chain3.arrival(qa.state_id)[0] == a
    assert state.lower[a] == pytest.approx(0.2, abs=1e-15)
    assert state.residue[ab.state_id] == pytest.approx(0.8, abs=1e-15)
    assert sum(state.lower) + sum(state.residue) == pytest.approx(1.0, abs=1e-15)
    # dangling absorption: the whole residue settles
    propagate(state, [ab.state_id], chain3)
    assert state.lower[b] == pytest.approx(0.8, abs=1e-15)
    assert state.residue_total == pytest.approx(0.0, abs=1e-15)
    assert sum(state.lower) + sum(state.residue) == pytest.approx(1.0, abs=1e-15)


def test_propagate_below_gate_is_noop(chain3):
    state = PushState.fresh(chain3, 0.2)
    qa = edge(chain3, "q", "a", 1)
    r = 1.0 / (2 * chain3.m)
    state.residue[qa.state_id] = r
    state.residue_total = r
    propagate(state, [qa.state_id], chain3)
    assert state.residue[qa.state_id] == r
    assert sum(state.lower) == 0.0
    assert sum(state.lower) + sum(state.residue) == r


def test_propagate_fires_at_exact_gate(chain3):
    state = PushState.fresh(chain3, 0.2)
    qa = edge(chain3, "q", "a", 1)
    r = 1.0 / chain3.m
    state.residue[qa.state_id] = r
    state.residue_total = r
    propagate(state, [qa.state_id], chain3)
    a = chain3.arrival(qa.state_id)[0]
    assert state.residue[qa.state_id] == 0.0
    assert state.lower[a] == pytest.approx(0.2 * r, abs=1e-15)
    assert sum(state.lower) + sum(state.residue) == pytest.approx(r, abs=1e-15)


def test_mass_conservation_through_expansion():
    rng = random.Random(2)
    for _ in range(25):
        g = random_temporal_graph(rng, n_max=20, m_max=60, t_max=15)
        ctx = QueryContext.single(rng.randrange(g.n))

        def check(state, expanded, visited, beta_hat):
            total = sum(state.lower) + sum(state.residue)
            assert total == pytest.approx(1.0, abs=1e-9)
            assert state.residue_total >= -1e-12
            assert state.residue_total == pytest.approx(sum(state.residue), abs=1e-9)

        expand(g, ctx, inspect=check)


# ---- expanding stage -------------------------------------------------------------

def test_expand_tri(tri):
    expanded, state = expand(tri, ctx_for(tri))
    assert labels(tri, expanded) == ["a", "b", "q"]


def test_expand_chain3_drains(chain3):
    expanded, state = expand(chain3, ctx_for(chain3))
    assert labels(chain3, expanded) == ["a", "b", "q"]
    assert state.residue_total == pytest.approx(0.0, abs=1e-12)
    assert state.lower[chain3.index["a"]] == pytest.approx(0.2, abs=1e-12)
    assert state.lower[chain3.index["b"]] == pytest.approx(0.8, abs=1e-12)


def test_expand_stops_at_component_boundary():
    g = TemporalGraph.from_triples([("q", "a", 1), ("x", "y", 5), ("y", "z", 6)])
    expanded, _ = expand(g, ctx_for(g))
    assert labels(g, expanded) == ["a", "q"]


def test_expand_estimate_monotone():
    rng = random.Random(9)
    for _ in range(20):
        g = random_temporal_graph(rng, n_max=20, m_max=60, t_max=15)
        ctx = QueryContext.single(rng.randrange(g.n))
        seen = []
        expand(g, ctx, inspect=lambda s, c, d, bh: seen.append(bh))
        assert all(x <= y for x, y in zip(seen, seen[1:]))


def test_expansion_covers_exact_community():
    rng = random.Random(13)
    for _ in range(30):
        g = random_temporal_graph(rng, n_max=25, m_max=90, t_max=20)
        ctx = QueryContext.single(rng.randrange(g.n))
        expanded, _ = expand(g, ctx)
        exact = exact_community(g, ctx)
        assert exact.members <= set(expanded)


def test_expansion_coverage_at_tie_heavy_alphas():
    """Large stop probabilities make exact ties between bounds and the running
    estimate common; pruning must still keep every exact-community member."""
    rng = random.Random(403 * 13 + 5)
    for _ in range(25):
        g = random_temporal_graph(rng, n_max=100, m_max=350, t_max=40)
        alpha = rng.choice([0.5, 0.75, 0.9])
        ctx = QueryContext.single(rng.randrange(g.n), alpha)
        expanded, _ = expand(g, ctx)
        exact = exact_community(g, ctx)
        assert exact.members <= set(expanded)


# ---- degree bounds -----------------------------------------------------------------

def test_bounds_after_first_push(chain3):
    state = PushState.fresh(chain3, 0.2)
    qa = edge(chain3, "q", "a", 1)
    state.residue[qa.state_id] = 1.0
    state.residue_total = 1.0
    propagate(state, [qa.state_id], chain3)
    lo, hi = degree_bounds(state, chain3, range(chain3.n), chain3.index["a"])
    assert lo == pytest.approx(0.0, abs=1e-15)
    assert hi == pytest.approx(0.8, abs=1e-15)


def test_bounds_collapse_when_drained(chain3):
    expanded, state = expand(chain3, ctx_for(chain3))
    scores = temporal_pagerank(chain3, ctx_for(chain3))
    for u in range(chain3.n):
        lo, hi = degree_bounds(state, chain3, range(chain3.n), u)
        rho = proximity_degree(scores, chain3, range(chain3.n), u)
        assert lo == pytest.approx(hi, abs=1e-12)
        assert lo == pytest.approx(rho, abs=1e-9)


def test_sandwich_on_random_graphs():
    """Bounds bracket the exact degree at every expansion step (fp noise aside)."""
    rng = random.Random(4)
    for _ in range(30):
        g = random_temporal_graph(rng, n_max=18, m_max=60, t_max=15)
        ctx = QueryContext.single(rng.randrange(g.n))
        exact = power_iteration_pagerank(g, ctx)
        rho = [proximity_degree(exact, g, range(g.n), u) for u in range(g.n)]

        def check(state, expanded, visited, beta_hat):
            for u in range(g.n):
                lo, hi = degree_bounds(state, g, range(g.n), u)
                assert lo <= rho[u] + 1e-9
                assert rho[u] <= hi + 1e-9

        expand(g, ctx, inspect=check)


# ---- reducing stage ------------------------------------------------------------------

def drained_state(graph, ctx):
    expanded, state = expand(graph, ctx)
    drain(state, graph)
    return expanded, state


def test_reduce_tri_fallback(tri):
    ctx = ctx_for(tri)
    expanded, state = drained_state(tri, ctx)
    res = reduce_stage(expanded, state, tri, ctx)
    assert labels(tri, res.members) == ["a", "b", "q"]
    assert res.epsilon == pytest.approx(2.0, abs=1e-12)
    assert res.beta_lower == pytest.approx(0.5, abs=1e-12)
    assert res.fallback


def test_reduce_chain3_fallback(chain3):
    ctx = ctx_for(chain3)
    expanded, state = drained_state(chain3, ctx)
    res = reduce_stage(expanded, state, chain3, ctx)
    assert labels(chain3, res.members) == ["a", "b", "q"]
    assert res.epsilon == pytest.approx(4.0, abs=1e-12)
    assert res.beta_lower == pytest.approx(0.2, abs=1e-12)
    assert res.fallback


def test_reduce_singleton(tri):
    ctx = ctx_for(tri)
    state = PushState.fresh(tri, ctx.alpha)
    res = reduce_stage([tri.index["q"]], state, tri, ctx)
    assert labels(tri, res.members) == ["q"]
    assert res.epsilon == 1.0
    assert res.beta_lower == 0.0


def test_reduce_keeps_rounds_before_a_middle_split():
    """Queries a and b meet only through x.  With these lower bounds (temp 8)
    round 1 (level 8) removes the leaf l, round 2 (level 4) removes x and
    splits the queries, and round 3 (level 2) would remove a.  The answer is
    the set after round 1, certified at level 8."""
    g = TemporalGraph.from_triples([
        ("a", "x", 1), ("x", "b", 1), ("a", "l", 1),
        ("a", "p1", 1), ("a", "p2", 1), ("p1", "p2", 1),
        ("b", "q1", 1), ("b", "q2", 1), ("q1", "q2", 1)])
    ctx = QueryContext((g.index["a"], g.index["b"]))
    state = PushState.fresh(g, ctx.alpha)
    weights = {"a": 1, "b": 1, "x": 1, "l": 1, "p1": 3, "p2": 3, "q1": 3, "q2": 3}
    for lab, w in weights.items():
        state.lower[g.index[lab]] = w
    res = reduce_stage(list(range(g.n)), state, g, ctx)
    assert labels(g, res.members) == ["a", "b", "p1", "p2", "q1", "q2", "x"]
    assert (res.epsilon, res.epsilon_trace, res.fallback) == (8.0, (8.0,), False)
    assert res.beta_lower == 2.0  # x's degree: a + b
    assert not g.co_connected(res.members - {g.index["x"]}, ctx.queries)


def test_reduce_query_outside_set(tri):
    from tpcore import QueryNotInSet
    ctx = ctx_for(tri)
    state = PushState.fresh(tri, ctx.alpha)
    with pytest.raises(QueryNotInSet):
        reduce_stage([tri.index["a"], tri.index["b"]], state, tri, ctx)


def test_recorded_levels_halve():
    rng = random.Random(64)
    seen_multi_round = False
    for _ in range(60):
        g = random_temporal_graph(rng, n_max=40, m_max=160, t_max=25)
        res = local_search(g, QueryContext.single(rng.randrange(g.n)))
        trace = res.epsilon_trace
        for prev, nxt in zip(trace, trace[1:]):
            assert nxt == prev / 2.0
        if len(trace) >= 2:
            seen_multi_round = True
        if trace:
            assert res.epsilon == trace[-1]
    assert seen_multi_round


# ---- end to end -----------------------------------------------------------------------

def test_local_search_tri(tri):
    res = local_search(tri, ctx_for(tri))
    assert labels(tri, res.members) == ["a", "b", "q"]
    assert res.epsilon == pytest.approx(2.0, abs=1e-12)
    exact = exact_community(tri, ctx_for(tri))
    assert exact.beta / res.beta_lower == pytest.approx(1.0, abs=1e-9)


def test_local_search_chain3(chain3):
    res = local_search(chain3, ctx_for(chain3))
    assert labels(chain3, res.members) == ["a", "b", "q"]
    assert res.epsilon == pytest.approx(4.0, abs=1e-12)


def test_guarantee_on_random_graphs():
    rng = random.Random(21)
    for _ in range(50):
        g = random_temporal_graph(rng, n_max=60, m_max=200, t_max=30)
        ctx = QueryContext.single(rng.randrange(g.n))
        approx = local_search(g, ctx)
        exact = exact_community(g, ctx)
        assert approx.epsilon >= 1.0
        assert ctx.queries[0] in approx.members
        assert exact.beta <= approx.epsilon * approx.beta_lower * (1 + 1e-12) + 1e-15
        if approx.beta_lower > 0:
            ratio = exact.beta / approx.beta_lower
            assert 1.0 - 1e-9 <= ratio <= approx.epsilon + 1e-9
        else:
            assert exact.beta == 0.0


# ---- multiple query vertices -------------------------------------------------------------

def test_multi_singleton_identical(tri):
    ctx = ctx_for(tri)
    single = local_search(tri, ctx)
    multi = local_search_multi(tri, ctx)
    assert single.members == multi.members
    assert single.epsilon == multi.epsilon
    assert single.beta_lower == multi.beta_lower


def test_multi_tri(tri):
    ctx = QueryContext((tri.index["q"], tri.index["a"]))
    res = local_search(tri, ctx)
    assert labels(tri, res.members) == ["a", "b", "q"]


def test_multi_disconnected():
    g = TemporalGraph.from_triples([("q", "a", 1), ("x", "y", 2)])
    with pytest.raises(QueriesDisconnected):
        local_search(g, QueryContext((g.index["q"], g.index["x"])))


def test_multi_guarantee():
    rng = random.Random(300)
    checked = 0
    while checked < 20:
        g = random_temporal_graph(rng, n_max=30, m_max=100, t_max=20)
        q = rng.randrange(g.n)
        comp = sorted(g.connected_component(range(g.n), q))
        others = [v for v in comp if v != q]
        if not others:
            continue
        ctx = QueryContext((q, rng.choice(others)))
        approx = local_search(g, ctx)
        exact = exact_community(g, ctx)
        assert set(ctx.queries) <= approx.members
        assert exact.beta <= approx.epsilon * approx.beta_lower * (1 + 1e-12) + 1e-15
        checked += 1


def test_drained_push_matches_query_set_scores():
    """A query set seeds each query's out-states with 1/(|S| deg q), so the
    drained push equals the stream DP's scores even when the degrees differ."""
    rng = random.Random(31)
    checked = 0
    while checked < 40:
        g = random_temporal_graph(rng, n_max=20, m_max=60, t_max=15)
        q = rng.randrange(g.n)
        comp = sorted(g.connected_component(range(g.n), q))
        others = [v for v in comp if len(g.inc_times[v]) != len(g.inc_times[q])]
        if not others:
            continue
        ctx = QueryContext((q, rng.choice(others)))
        _, state = drained_state(g, ctx)
        assert np.abs(np.array(state.lower) - stop_dict_pagerank(g, ctx)).max() <= 1e-12
        checked += 1


def test_query_set_certificate_on_path():
    """Path c-a-b-d, every edge at time 2, queries (c, a): beta_lower must not
    exceed the answer's true minimum proximity degree (1/4, not 1/3)."""
    g = TemporalGraph.from_triples([("c", "a", 2), ("a", "b", 2), ("b", "d", 2)])
    ctx = QueryContext((g.index["c"], g.index["a"]))
    res = local_search(g, ctx)
    scores = temporal_pagerank(g, ctx)
    true_min = min_proximity_degree(scores, g, res.members)
    assert res.beta_lower <= true_min + 1e-12
    exact = exact_community(g, ctx)
    assert exact.beta <= res.epsilon * res.beta_lower * (1 + 1e-12) + 1e-15
