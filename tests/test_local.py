import math
import random
from fractions import Fraction

import numpy as np
import pytest

import tests.oracle
import tpcore.local
from tpcore import (PushState, QueriesDisconnected, QueryContext, SynthConfig,
                    TemporalGraph, drain, exact_community, expand,
                    local_search, local_search_multi, min_proximity_degree,
                    power_iteration_pagerank, propagate, proximity_degree,
                    reduce_stage, synth_graph, synth_triples, temporal_pagerank)
from tpcore.community import _peel
from tpcore.pagerank import seed_state
from tpcore.cli import stratified_queries
from tests.conftest import ctx_for, random_temporal_graph
from tests.oracle import degree_bounds, reference_expand, stop_dict_pagerank
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
    assert tests.oracle.arrival(chain3, qa.state_id)[0] == a
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
    a = tests.oracle.arrival(chain3, qa.state_id)[0]
    assert state.residue[qa.state_id] == 0.0
    assert state.lower[a] == pytest.approx(0.2 * r, abs=1e-15)
    assert sum(state.lower) + sum(state.residue) == pytest.approx(r, abs=1e-15)


def query_set_contexts(rng, count, n_max, m_max):
    """``count`` (graph, context) pairs: sets of 2-3 queries from one component,
    alternating the tie-heavy horizons 1 and 2."""
    out = []
    while len(out) < count:
        g = random_temporal_graph(rng, n_max=n_max, m_max=m_max, t_max=1 + len(out) % 2)
        q = rng.randrange(g.n)
        comp = sorted(g.connected_component(range(g.n), q))
        if len(comp) < 3:
            continue
        out.append((g, QueryContext((q, *rng.sample([v for v in comp if v != q],
                                                    rng.randint(1, 2))))))
    return out


def test_mass_conservation_through_expansion():
    """``residue_total`` is charged with the settled mass, not with the shares
    a push spreads; its drift never under-counts the pending mass by more than
    the slack the pruning allows."""
    rng = random.Random(2)
    cases = [(g, QueryContext.single(rng.randrange(g.n)))
             for g in (random_temporal_graph(rng, n_max=20, m_max=60, t_max=15)
                       for _ in range(25))]
    cases += query_set_contexts(rng, 25, n_max=20, m_max=60)
    dense = synth_graph(SynthConfig(n=120, avg_deg=6.0, timestamps_per_edge=6,
                                    horizon=1000, seed=3))
    cases += [(dense, QueryContext.single(q, 0.5)) for q in range(0, 120, 30)]
    repushes = 0
    for g, ctx in cases:
        def check(state, expanded, visited, beta_hat):
            total = sum(state.lower) + sum(state.residue)
            assert total == pytest.approx(1.0, abs=1e-9)
            assert state.residue_total >= -1e-12
            assert state.residue_total == pytest.approx(sum(state.residue), abs=1e-9)
            assert state.residue_total >= math.fsum(state.residue) - tpcore.local.BOUND_SLACK

        repushes += expand(g, ctx, inspect=check)[1].stats["repushes"]
    assert repushes > 0  # the checks saw re-pushed mass


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
    cases = [(g, QueryContext.single(rng.randrange(g.n)))
             for g in (random_temporal_graph(rng, n_max=25, m_max=90, t_max=20)
                       for _ in range(30))]
    cases += query_set_contexts(rng, 60, n_max=25, m_max=90)
    for g, ctx in cases:
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


def test_expansion_matches_the_reference_until_it_re_pushes():
    """Re-keying the estimate heap in place changes no decision: wherever no
    stranded mass is re-pushed, the expansion is the reference's, bit for bit."""
    rng = random.Random(17)
    compared = 0
    for i in range(80):
        g = random_temporal_graph(rng, n_max=40, m_max=150, t_max=(1, 2, 20)[i % 3])
        ctx = QueryContext.single(rng.randrange(g.n))
        seen, ref_seen = [], []
        expanded, state = expand(g, ctx, inspect=lambda s, c, d, bh: seen.append(bh))
        if state.stats["repushes"]:
            continue
        ref_expanded, ref_state = reference_expand(
            g, ctx, inspect=lambda s, c, d, bh: ref_seen.append(bh))
        assert (expanded, seen) == (ref_expanded, ref_seen)
        assert (state.lower, state.residue) == (ref_state.lower, ref_state.residue)
        compared += 1
    assert compared >= 20


def test_expansion_is_local_on_a_sparse_graph():
    """On criterion 8's sparse graph shape, mass re-pushed from expanded
    vertices lets the admission test prune: most stratified queries expand
    well under the whole graph, and every answer keeps coverage and its
    certificate."""
    g = synth_graph(SynthConfig(n=6000, avg_deg=5.0, timestamps_per_edge=2,
                                horizon=40, seed=7))
    fractions = []
    for q in stratified_queries(g, 12):
        ctx = QueryContext.single(q)
        approx = local_search(g, ctx)
        exact = exact_community(g, ctx)
        assert exact.members <= approx.explored
        assert exact.beta <= approx.epsilon * approx.beta_lower * (1 + 1e-12) + 1e-15
        fractions.append(len(approx.explored) / g.n)
    assert float(np.median(fractions)) <= 0.6, fractions


def test_expansion_is_local_at_low_occurrence_scale():
    """On a 20k-vertex graph of perfbench's low-occurrence shape, popping the
    most settled mass first keeps the expansion to a tenth of the graph for the
    median stratified query, with coverage and the certificate intact."""
    g = synth_graph(SynthConfig(n=20000, avg_deg=5.0, timestamps_per_edge=2,
                                horizon=40, seed=1))
    fractions = []
    for q in stratified_queries(g, 12):
        ctx = QueryContext.single(q)
        approx = local_search(g, ctx)
        exact = exact_community(g, ctx)
        assert exact.members <= approx.explored
        assert exact.beta <= approx.epsilon * approx.beta_lower * (1 + 1e-12) + 1e-15
        fractions.append(len(approx.explored) / g.n)
    assert float(np.median(fractions)) <= 0.10, fractions


def counted_propagate(counter):
    """``propagate`` that adds each push (one ``on_lower`` call) to counter[0]."""
    def wrapped(state, sids, graph, on_lower=None, force=False):
        def counted(vertex, delta):
            counter[0] += 1
            on_lower(vertex, delta)
        propagate(state, sids, graph, counted, force)
    return wrapped


def test_re_push_work_stays_near_the_reference(monkeypatch):
    """The work credit caps re-pushing by the expansion's own reads: on a dense
    high-occurrence graph the pushes stay within 1.25x of the reference's,
    which pushes each vertex once, and the stats count every push."""
    g = synth_graph(SynthConfig(n=400, avg_deg=10.0, timestamps_per_edge=8,
                                horizon=1000, seed=1))
    reference, counted = [0], [0]
    monkeypatch.setattr(tests.oracle, "propagate", counted_propagate(reference))
    monkeypatch.setattr(tpcore.local, "propagate", counted_propagate(counted))
    pushes = repushes = 0
    for q in stratified_queries(g, 12):
        ctx = QueryContext.single(q)
        reference_expand(g, ctx)
        stats = local_search(g, ctx).stats
        pushes += stats["pushes"]
        repushes += stats["repushes"]
    assert pushes == counted[0]
    assert 0 < repushes < pushes <= 1.25 * reference[0], (pushes, reference[0])


# ---- hand-over to the exact search ------------------------------------------------

@pytest.fixture(scope="module")
def query_sets_graph():
    """A graph of perfbench's ``query-sets`` shape: 2,000 vertices, two timestamps per edge."""
    return synth_graph(SynthConfig(n=2000, avg_deg=6.0, timestamps_per_edge=2,
                                   horizon=40, seed=1))


def stratified_pairs(g, count):
    """Each stratified query with its smallest-id neighbour."""
    return [QueryContext((q, min(g.adj[q]))) for q in stratified_queries(g, count)]


def test_a_reads_bound_expansion_hands_over_to_the_exact_search(query_sets_graph):
    """On the ``query-sets`` shape the expansion reaches the whole graph while
    moving little mass, so its reads outrun its pushes and most pairs hand
    over.  A handed-over answer is the exact search's on the drained push:
    ``exact_community``'s members and beta, epsilon 1, and an explored set,
    the expansion plus the flood's region, that covers the members."""
    g = query_sets_graph
    handovers = 0
    for ctx in stratified_pairs(g, 24):
        approx = local_search(g, ctx)
        stats = approx.stats
        exact = exact_community(g, ctx)
        assert exact.members <= approx.explored
        assert stats["explored"] == len(approx.explored)
        if stats["handover"]:
            handovers += 1
            assert stats["reads"] >= (tpcore.local.READS_PER_PUSH * stats["pushes"]
                                      + 2 * g.m // tpcore.local.SCAN_STATES_PER_READ
                                      + tpcore.local.HANDOVER_FLOOR)
            assert (approx.fallback, approx.epsilon, approx.epsilon_trace) == (True, 1.0, (1.0,))
            assert approx.members == exact.members
            assert approx.beta_lower == pytest.approx(exact.beta, rel=1e-12, abs=0.0)
            assert (stats["universe"], stats["peel_bound"]) == (exact.stats["region"],
                                                                approx.beta)
    assert handovers >= 18, handovers


def test_expand_then_reduce_equals_local_search_on_a_hand_over(query_sets_graph):
    """The flag travels in the push state, so the two stages called apart
    answer as ``local_search`` does, on a pair whose explored set is the
    expansion plus flood vertices it never popped."""
    g = query_sets_graph
    for ctx in stratified_pairs(g, 24):
        expanded, state = expand(g, ctx)
        apart = reduce_stage(expanded, state, g, ctx)
        if state.stats["handover"] and set(expanded) < apart.explored:
            break
    else:
        pytest.fail("no hand-over whose flood left the expanded set")
    whole = local_search(g, ctx)
    assert (apart.members, apart.beta_lower, apart.epsilon, apart.fallback, apart.explored,
            apart.stats) == (whole.members, whole.beta_lower, whole.epsilon, whole.fallback,
                             whole.explored, whole.stats)


def test_a_hand_over_waits_for_the_queries_to_join():
    """A hub query's own pop reads its 300 neighbours' rows, far more than
    three per push, but the second query lies apart from it: the expansion
    may not stop before the expanded set joins both (stopping there would
    read the queries as disconnected), and then it hands over."""
    rng = random.Random(5)
    triples = synth_triples(SynthConfig(n=400, avg_deg=10.0, timestamps_per_edge=2,
                                        horizon=40, seed=3))
    triples += [("h", f"v{i}", rng.randint(1, 40)) for i in rng.sample(range(400), 300)]
    g = TemporalGraph.from_triples(triples)
    hub = g.index["h"]
    ctx = QueryContext((hub, next(v for v in range(g.n) if v != hub and v not in g.adj[hub])))
    approx = local_search(g, ctx)
    exact = exact_community(g, ctx)
    assert approx.stats["handover"] and approx.stats["explored"] >= 3
    assert approx.members == exact.members <= approx.explored


def test_a_push_bound_expansion_does_not_hand_over():
    """On the ``high-occ`` shape every pop moves mass, so the pushes keep
    ahead of the reads and no query hands over."""
    g = synth_graph(SynthConfig(n=400, avg_deg=10.0, timestamps_per_edge=8,
                                horizon=1000, seed=1))
    stats = [expand(g, QueryContext.single(q))[1].stats for q in stratified_queries(g, 12)]
    assert [s["handover"] for s in stats] == [False] * 12
    assert all(s["reads"] < tpcore.local.READS_PER_PUSH * s["pushes"] for s in stats)


def test_the_floor_keeps_small_expansions_on_the_certified_path():
    """Expansions that read fewer than ``HANDOVER_FLOOR`` adjacency entries
    never hand over, though on most of these small graphs the reads end at
    more than three per push plus the scan share, which would hand over
    without the floor."""
    rng = random.Random(2929)
    outran = 0
    for i in range(60):
        g = random_temporal_graph(rng, n_max=60, m_max=200, t_max=(1, 3, 25)[i % 3])
        stats = expand(g, QueryContext.single(rng.randrange(g.n)))[1].stats
        assert stats["reads"] < tpcore.local.HANDOVER_FLOOR
        assert stats["handover"] is False
        outran += stats["reads"] >= (tpcore.local.READS_PER_PUSH * stats["pushes"]
                                     + 2 * g.m // tpcore.local.SCAN_STATES_PER_READ)
    assert outran >= 30, outran


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
    """Bounds bracket the exact degree at every expansion step (fp noise aside),
    for single queries and for query sets on tie-heavy horizons."""
    rng = random.Random(4)
    cases = [(g, QueryContext.single(rng.randrange(g.n)))
             for g in (random_temporal_graph(rng, n_max=18, m_max=60, t_max=15)
                       for _ in range(30))]
    cases += query_set_contexts(rng, 30, n_max=18, m_max=60)
    repushes = 0
    for g, ctx in cases:
        exact = power_iteration_pagerank(g, ctx)
        rho = [proximity_degree(exact, g, range(g.n), u) for u in range(g.n)]

        def check(state, expanded, visited, beta_hat):
            for u in range(g.n):
                lo, hi = degree_bounds(state, g, range(g.n), u)
                assert lo <= rho[u] + 1e-9
                assert rho[u] <= hi + 1e-9

        repushes += expand(g, ctx, inspect=check)[1].stats["repushes"]
    assert repushes > 0  # the checks saw re-pushed mass


# ---- reducing stage ------------------------------------------------------------------

def drained_state(graph, ctx):
    expanded, state = expand(graph, ctx)
    drain(state, graph)
    return expanded, state


def test_reduce_tri_fallback(tri):
    """On drained bounds the lower-bound peel certifies a positive degree, so
    no fallback is needed.  The bounds are the scores q 0, a 1/2, b 1/2 and
    nothing is pending; the peel's rounds are a at 1/2, b at 0, q at 0, so its
    largest round degree is beta_lower itself and epsilon is 1."""
    ctx = ctx_for(tri)
    expanded, state = drained_state(tri, ctx)
    res = reduce_stage(expanded, state, tri, ctx)
    assert labels(tri, res.members) == ["a", "b", "q"]
    assert res.epsilon == pytest.approx(1.0, abs=1e-12)
    assert res.beta_lower == pytest.approx(0.5, abs=1e-12)
    assert not res.fallback


def test_reduce_chain3_fallback(chain3):
    ctx = ctx_for(chain3)
    expanded, state = drained_state(chain3, ctx)
    res = reduce_stage(expanded, state, chain3, ctx)
    assert labels(chain3, res.members) == ["a", "b", "q"]
    assert res.epsilon == pytest.approx(1.0, abs=1e-12)
    assert res.beta_lower == pytest.approx(0.2, abs=1e-12)
    assert not res.fallback


def test_reduce_singleton(tri):
    """An all-zero state certifies nothing, so the reduction falls back to the
    exact search on the drained (still zero) scores, which takes the query's
    whole component at beta 0: a fallback answer no longer depends on a
    hand-built ``expanded``."""
    ctx = ctx_for(tri)
    state = PushState.fresh(tri, ctx.alpha)
    res = reduce_stage([tri.index["q"]], state, tri, ctx)
    assert labels(tri, res.members) == ["a", "b", "q"]
    assert (res.epsilon, res.fallback) == (1.0, True)
    assert res.beta_lower == 0.0


def test_reduce_of_a_hand_built_state_reports_no_expansion(tri):
    """A state that never went through ``expand`` carries no push counters, so
    the result's stats hold only what the reduction itself knows."""
    ctx = ctx_for(tri)
    state = PushState.fresh(tri, ctx.alpha)
    state.lower[:] = [0.25, 0.25, 0.5]
    res = reduce_stage(list(range(tri.n)), state, tri, ctx)
    assert res.stats == {"explored": 3, "epsilon_trace": [res.epsilon], "universe": 3,
                         "peel_bound": 0.5}


def test_reduce_keeps_rounds_before_a_middle_split():
    """Queries a and b meet only through x.  With these lower bounds the peel
    removes the leaf l at degree 1, then x at degree 2, which splits the
    queries.  The answer is the set before x falls, with beta_lower 2 (x's
    degree).  The peel goes on past the split, p1 at 4, p2 at 1, then a at 0:
    its largest round, 4, is the least degree of a set holding both queries
    though not joining them, so epsilon is 4 / 2."""
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
    assert (res.epsilon, res.epsilon_trace, res.fallback) == (2.0, (2.0,), False)
    assert res.stats["peel_bound"] == 4.0
    assert res.beta_lower == 2.0  # x's degree: a + b
    assert not tests.oracle.joins(g, res.members - {g.index["x"]}, ctx.queries)


def test_reduce_query_outside_set(tri):
    from tpcore import QueryNotInSet
    ctx = ctx_for(tri)
    state = PushState.fresh(tri, ctx.alpha)
    with pytest.raises(QueryNotInSet):
        reduce_stage([tri.index["a"], tri.index["b"]], state, tri, ctx)


@pytest.mark.parametrize("bad", [-1, 4])
def test_reduce_names_a_query_id_outside_the_set(bad):
    """On the path a-b-c-d expanded from d, the last vertex, the error names
    the id itself: -1 is not d, and n is no vertex at all."""
    from tpcore import QueryNotInSet
    g = TemporalGraph.from_triples([("a", "b", 1), ("b", "c", 2), ("c", "d", 3)])
    assert (g.n, g.labels[-1]) == (4, "d")
    expanded, state = expand(g, QueryContext.single(g.n - 1))
    with pytest.raises(QueryNotInSet, match=rf"^query vertex id {bad} not in the expanded set$"):
        reduce_stage(expanded, state, g, QueryContext((bad,)))


def check_reduce(g, ctx):
    """Expand and reduce; check the stage-two invariants and return (result, state).

    The certificate, in exact arithmetic: epsilon * beta_lower covers the
    peel's bound plus the pending residue (up to the drift of the cached
    residue total), and that upper bound is never looser than the least
    lower-bound degree of a query over the expanded set plus the residue.
    For one query the peel's bound is beta_lower, so epsilon is 1 + P / beta_lower.
    """
    expanded, state = expand(g, ctx)
    explored = set(expanded)
    temp = min(math.fsum(state.lower[v] for v in g.adj[q] if v in explored)
               for q in ctx.queries) + state.residue_total
    pending = state.residue_total
    res = reduce_stage(expanded, state, g, ctx)
    members = res.members
    assert set(ctx.queries) <= members <= explored
    assert g.connected_component(members, ctx.queries[0]) == members
    assert res.epsilon >= 1.0
    assert res.epsilon_trace == (res.epsilon,)
    if res.fallback:
        assert res.epsilon == 1.0
        exact = exact_community(g, ctx)
        assert members == exact.members
        assert res.beta_lower == pytest.approx(exact.beta, rel=1e-12, abs=0.0)
    else:
        bound = res.stats["peel_bound"]
        upper = Fraction(bound) + sum(map(Fraction, state.residue))
        assert Fraction(res.epsilon) * Fraction(res.beta_lower) * (1 + Fraction(1, 10**12)) >= upper
        assert bound + pending <= math.nextafter(temp, math.inf)
        if len(ctx.queries) == 1:
            assert res.epsilon == pytest.approx(1 + pending / res.beta_lower, rel=1e-15)
    assert all(proximity_degree(state.lower, g, members, u) >= res.beta_lower
               for u in members)
    return res, state


def test_reduce_certifies_one_peel():
    """Single queries and query sets at alpha 0.2 and 0.5: epsilon * beta_lower
    covers the peel's bound plus the residue, every member's degree on the bounds reaches
    beta_lower, and the answer is connected and holds every query."""
    rng = random.Random(1616)
    cases = [(g, QueryContext.single(rng.randrange(g.n)))
             for g in (random_temporal_graph(rng, n_max=40, m_max=150, t_max=(1, 3, 25)[i % 3])
                       for i in range(60))]
    cases += query_set_contexts(rng, 60, n_max=30, m_max=100)
    fallbacks = 0
    for i, (g, ctx) in enumerate(cases):
        res, _ = check_reduce(g, QueryContext(ctx.queries, (0.2, 0.5)[i % 2]))
        fallbacks += res.fallback
    assert fallbacks < len(cases) // 10


def test_reduce_falls_back_to_the_exact_search_when_the_mass_does_not_join_the_queries():
    """Path a-x-w-y-c, queries (a, c): no walk reaches w in time, so the
    vertices holding mass split the queries, and the reduction falls back to
    the exact search on the drained scores, which takes w back.  Nothing was
    pending, so the scores are the bounds a 0.2, x 0.3, w 0, y 0.3, c 0.2, and
    the whole path is the answer at x's degree 0.2, with epsilon 1."""
    g = TemporalGraph.from_triples([("a", "x", 2), ("x", "w", 1), ("w", "y", 1),
                                    ("y", "c", 2), ("a", "x", 3), ("c", "y", 3)])
    ctx = QueryContext((g.index["a"], g.index["c"]))
    res, state = check_reduce(g, ctx)
    assert state.lower[g.index["w"]] == 0.0
    assert labels(g, res.members) == ["a", "c", "w", "x", "y"]
    assert res.fallback
    assert res.beta_lower == pytest.approx(0.2, abs=1e-15)
    assert res.epsilon == pytest.approx(1.0, abs=1e-15)


# Graphs at alpha 0.5 whose lower degrees are sums of simple fractions: the
# kept set's minimum degree (2/5, 1/3) is also its largest round, and with the
# pending residue (1/5, 1/6) it gives epsilon 3/2 in real arithmetic; since the
# degree is a sum of rounded fractions, a threshold test decided in floats
# keeps or drops those vertices by rounding.
THRESHOLD_TIES = [
    ("v0", 1.5, [("v2", "v5", 2), ("v1", "v7", 1), ("v2", "v0", 2), ("v5", "v0", 1),
                 ("v3", "v2", 2), ("v5", "v0", 1), ("v7", "v3", 1), ("v0", "v5", 2),
                 ("v1", "v5", 1), ("v6", "v4", 1), ("v3", "v5", 2), ("v0", "v3", 1),
                 ("v7", "v1", 1), ("v2", "v4", 2), ("v4", "v0", 1), ("v5", "v7", 2)]),
    ("v4", 1.5, [("v2", "v0", 1), ("v3", "v7", 2), ("v2", "v7", 2), ("v2", "v5", 2),
                 ("v5", "v1", 2), ("v2", "v1", 2), ("v1", "v0", 2), ("v2", "v0", 1),
                 ("v1", "v3", 1), ("v7", "v4", 1), ("v3", "v1", 2), ("v4", "v2", 2),
                 ("v4", "v7", 1), ("v4", "v7", 1), ("v4", "v3", 2), ("v5", "v0", 1),
                 ("v2", "v6", 1), ("v4", "v5", 2), ("v2", "v4", 1), ("v0", "v5", 2),
                 ("v1", "v4", 2)]),
]


@pytest.mark.parametrize("q, epsilon, triples", THRESHOLD_TIES)
def test_reduce_peel_is_exact_at_a_threshold_tie(q, epsilon, triples):
    """beta_lower is the whole-graph reference peel's best degree on the same
    lower bounds, bit for bit."""
    g = TemporalGraph.from_triples(triples)
    ctx = QueryContext.single(g.index[q], 0.5)
    res, state = check_reduce(g, ctx)
    assert not res.fallback
    assert res.explored == frozenset(range(g.n))
    _, beta = tests.oracle.reference_peel(g, np.array(state.lower), ctx.queries)
    assert res.beta_lower == beta
    assert res.epsilon == pytest.approx(epsilon, rel=1e-15)
    exact = exact_community(g, ctx)
    assert exact.beta <= res.epsilon * res.beta_lower


# ---- end to end -----------------------------------------------------------------------

def test_local_search_tri(tri):
    res = local_search(tri, ctx_for(tri))
    assert labels(tri, res.members) == ["a", "b", "q"]
    assert res.epsilon == pytest.approx(1.0, abs=1e-12)
    exact = exact_community(tri, ctx_for(tri))
    assert exact.beta / res.beta_lower == pytest.approx(1.0, abs=1e-9)


def test_local_search_chain3(chain3):
    res = local_search(chain3, ctx_for(chain3))
    assert labels(chain3, res.members) == ["a", "b", "q"]
    assert res.epsilon == pytest.approx(1.0, abs=1e-12)


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


# Graphs whose lower-bound degrees fall to 0 by float decrements that leave
# about 1e-17 behind: a reduction deciding on such degrees once certified
# beta_lower 0 with epsilon about 1.8e16 here, while the exact optimum is
# positive.
ZERO_LEVEL_DRIFT = [
    (0.2, "v7", [("v5", "v3", 2), ("v2", "v7", 2), ("v7", "v5", 2), ("v0", "v7", 3),
                 ("v0", "v4", 1), ("v1", "v0", 2), ("v5", "v7", 1), ("v2", "v1", 1)]),
    (0.9, "v5", [("v7", "v1", 2), ("v5", "v1", 1), ("v1", "v5", 2), ("v7", "v1", 1),
                 ("v4", "v0", 2), ("v5", "v4", 1), ("v0", "v1", 1), ("v1", "v5", 1),
                 ("v7", "v4", 1), ("v4", "v5", 1), ("v5", "v1", 2), ("v3", "v4", 2),
                 ("v2", "v7", 2), ("v0", "v7", 2)]),
]


@pytest.mark.parametrize("alpha, q, triples", ZERO_LEVEL_DRIFT)
def test_certificate_holds_after_zero_level_drift(alpha, q, triples):
    g = TemporalGraph.from_triples(triples)
    ctx = QueryContext.single(g.index[q], alpha)
    approx = local_search(g, ctx)
    exact = exact_community(g, ctx)
    assert exact.beta > 0.0
    assert approx.beta_lower > 0.0
    assert exact.beta <= approx.epsilon * approx.beta_lower * (1 + 1e-12) + 1e-15

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


@pytest.fixture(scope="module")
def two_paths():
    """Two components, each a path of 1,000 vertices: l0 - ... - l999 and r0 - ... - r999."""
    return TemporalGraph.from_triples([(f"{side}{i}", f"{side}{i + 1}", i % 40 + 1)
                                       for side in "lr" for i in range(999)])


# a pair split across the paths, and a triple with two queries joined and one apart
SPLIT_SETS = [("l500", "r500"), ("l10", "l11", "r990")]


def reduce_everything(g, ctx):
    return reduce_stage(list(range(g.n)), seed_state(g, ctx), g, ctx)


@pytest.mark.parametrize("labs", SPLIT_SETS, ids=["pair", "triple"])
@pytest.mark.parametrize("solve", [exact_community, local_search, expand, reduce_everything])
def test_split_query_sets_raise(two_paths, solve, labs):
    """Each search finds the split itself: egr's flood and als's expansion run
    out before they take every query, and so does the flood of the exact search
    that reduce_stage falls back to when its peel of the mass splits the queries."""
    with pytest.raises(QueriesDisconnected):
        solve(two_paths, QueryContext(tuple(two_paths.index[lab] for lab in labs)))


@pytest.mark.parametrize("labs", SPLIT_SETS + [("l10", "l20")], ids=["pair", "triple", "cut"])
def test_peel_returns_none_when_the_universe_splits_the_queries(two_paths, labs):
    """The whole graph splits the queries of ``SPLIT_SETS``; dropping l15 from
    the universe splits l10 from l20, which the graph joins."""
    g = two_paths
    queries = tuple(g.index[lab] for lab in labs)
    values = temporal_pagerank(g, QueryContext(queries[:1])).per_vertex
    universe = [u for u in range(g.n) if g.labels[u] != "l15"]
    assert _peel(g, values, queries, universe) is None
    assert (_peel(g, values, queries, range(g.n)) is None) == (labs in SPLIT_SETS)


def test_peel_bound_is_the_largest_min_degree_of_a_query_superset():
    """On random graphs of at most 10 vertices, tie-heavy horizons and random
    values (a third of them 0), the peel's third value is the largest least
    degree over the subsets of the universe holding the queries, connectivity
    ignored and taken in exact arithmetic, rounded up to a float."""
    rng = random.Random(2626)
    checked = 0
    while checked < 150:
        g = random_temporal_graph(rng, n_max=10, m_max=25, t_max=1 + checked % 2)
        q = rng.randrange(g.n)
        comp = sorted(g.connected_component(range(g.n), q))
        size = 1 if checked % 3 == 0 else 1 + rng.randint(1, 2)
        if len(comp) < size:
            continue
        queries = (q, *rng.sample([v for v in comp if v != q], size - 1))
        values = [rng.choice((0.0, 0.1, 1 / 3, 0.5, rng.random())) for _ in range(g.n)]
        universe = sorted(set(queries).union(v for v in range(g.n) if rng.random() < 0.8))
        peeled = _peel(g, values, queries, universe)
        if peeled is None:
            continue
        others = [v for v in universe if v not in queries]
        best = Fraction(0)
        for mask in range(1 << len(others)):
            space = set(queries).union(v for i, v in enumerate(others) if mask >> i & 1)
            best = max(best, min(sum(Fraction(values[v]) for v in g.adj[u] if v in space)
                                 for u in space))
        bound = peeled[2]
        assert best <= Fraction(bound) < best + Fraction(math.ulp(bound))
        assert Fraction(math.nextafter(bound, -math.inf)) < best
        checked += 1


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
        ctx = QueryContext((q, *rng.sample(others, min(len(others), 1 + checked % 2))))
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


def test_query_set_estimate_waits_for_the_queries_to_join():
    """Path b-a-x-y-z-c, queries (a, b, c).  Before the expansion reaches c,
    the expanded set holds no community with every query, so its minimum
    degree bounds nothing; pruning by it left c out of the answer."""
    g = TemporalGraph.from_triples([("a", "b", 1), ("x", "a", 1), ("z", "y", 1),
                                    ("y", "x", 2), ("c", "z", 2)])
    ctx = QueryContext((g.index["a"], g.index["b"], g.index["c"]))
    approx = local_search(g, ctx)
    exact = exact_community(g, ctx)
    assert set(ctx.queries) <= approx.members
    assert exact.members <= approx.explored
    assert exact.beta <= approx.epsilon * approx.beta_lower * (1 + 1e-12) + 1e-15


def test_query_set_estimate_is_zero_until_the_expanded_set_joins_the_queries():
    """Sets of 2-3 queries from one component: at every ``inspect`` call at
    which the expanded set does not join every query, the estimate is 0."""
    rng = random.Random(24)
    apart = 0
    for g, ctx in query_set_contexts(rng, 80, n_max=20, m_max=40):
        def inspect(state, expanded, visited, beta_hat):
            nonlocal apart
            if not tests.oracle.joins(g, expanded, ctx.queries):
                assert beta_hat == 0.0, (expanded, ctx.queries)
                apart += 1
        expand(g, ctx, inspect)
    assert apart


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
