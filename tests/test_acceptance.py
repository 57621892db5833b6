"""Acceptance gate: every criterion at its stated tolerance, one verdict line each.

Exact comparisons are stated against the mathematically exact quantities;
where two floating-point evaluations of the same real number meet (oracle
truncation at 1e-12, exactly-rounded sums vs incremental ones), the checks
carry the documented absolute slack of 1e-9 or tighter.
"""
import math
import random
import time

import numpy as np

from tpcore import (QueryContext, TemporalGraph, brute_force_search,
                    community_report, exact_community, exact_community_multi,
                    expand, local_search, local_search_multi,
                    min_proximity_degree, power_iteration_pagerank,
                    proximity_degree, temporal_pagerank, temporal_pagerank_multi)
from tpcore.synth import SynthConfig, synth_graph
from tests.conftest import CHAIN3, TRI, CountedReads, random_temporal_graph
from tests.oracle import degree_bounds

ALPHA = 0.2


def verdict(num: int, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def fixture(triples):
    return TemporalGraph.from_triples(triples)


def test_criterion_1_and_2_oracle_equivalence_and_mass():
    rng = random.Random(101)
    worst_gap = 0.0
    worst_mass = 0.0
    started = time.perf_counter()
    for _ in range(200):
        g = random_temporal_graph(rng, n_max=30, m_max=200, t_max=50)
        ctx = QueryContext.single(rng.randrange(g.n), ALPHA)
        stream = temporal_pagerank(g, ctx)
        oracle = power_iteration_pagerank(g, ctx)
        worst_gap = max(worst_gap, float(np.abs(stream.values - oracle.values).max()))
        worst_mass = max(worst_mass, abs(math.fsum(stream.per_vertex) - 1.0),
                         abs(math.fsum(oracle.per_vertex) - 1.0))
    elapsed = time.perf_counter() - started
    verdict(1, worst_gap <= 1e-8 and elapsed < 60.0,
            f"max |stream - power iteration| = {worst_gap:.2e} over 200 graphs "
            f"(limit 1e-8), {elapsed:.1f}s (limit 60s)")
    verdict(2, worst_mass <= 1e-9,
            f"max |sum(scores) - 1| = {worst_mass:.2e} (limit 1e-9)")


def test_criterion_3_fixture_goldens():
    expectations = [
        (CHAIN3, {"q": 0.0, "a": 0.2, "b": 0.8}, 0.2),
        (TRI, {"q": 0.0, "a": 0.5, "b": 0.5}, 0.5),
    ]
    worst = 0.0
    for triples, want_scores, want_beta in expectations:
        g = fixture(triples)
        ctx = QueryContext.single(g.index["q"], ALPHA)
        scores = temporal_pagerank(g, ctx)
        for lab, want in want_scores.items():
            worst = max(worst, abs(scores.per_vertex[g.index[lab]] - want))
        worst = max(worst, abs(exact_community(g, ctx).beta - want_beta))
    verdict(3, worst <= 1e-9,
            f"chain/triangle score and beta goldens, max error {worst:.2e} (limit 1e-9)")


def test_criterion_4_exact_search_matches_brute_force():
    rng = random.Random(404)
    # query sets come from their own stream so the single-query inputs stay put
    set_rng = random.Random(4040)
    mismatches = 0
    for _ in range(100):
        g = random_temporal_graph(rng, n_max=9, m_max=30, t_max=12)
        q = rng.randrange(g.n)
        others = sorted(g.connected_component(range(g.n), q) - {q})
        size = min(set_rng.choice((1, 2, 3)), len(others) + 1)
        for queries in ((q,), (q, *set_rng.sample(others, size - 1))):
            ctx = QueryContext(queries, ALPHA)
            greedy = exact_community(g, ctx)
            oracle = brute_force_search(g, ctx)
            if greedy.members != oracle.members or abs(greedy.beta - oracle.beta) > 1e-12:
                mismatches += 1
    verdict(4, mismatches == 0,
            f"{mismatches} mismatches vs brute force over 100 graphs, each with one "
            "query and a set of 1-3 queries from its component "
            "(beta within 1e-12, identical membership)")


def test_criterion_5_degree_bound_sandwich():
    rng = random.Random(505)
    violations = 0
    steps = 0
    for _ in range(100):
        g = random_temporal_graph(rng, n_max=30, m_max=120, t_max=25)
        ctx = QueryContext.single(rng.randrange(g.n), ALPHA)
        exact = power_iteration_pagerank(g, ctx)
        rho = [proximity_degree(exact, g, range(g.n), u) for u in range(g.n)]

        def check(state, expanded, visited, beta_hat):
            nonlocal violations, steps
            steps += 1
            for u in range(g.n):
                lo, hi = degree_bounds(state, g, range(g.n), u)
                if lo > rho[u] + 1e-9 or rho[u] > hi + 1e-9:
                    violations += 1

        expand(g, ctx, inspect=check)
    verdict(5, violations == 0,
            f"{violations} bound violations across {steps} expansion steps "
            "on 100 graphs (fp slack 1e-9)")


def _guarantee_corpus():
    rng = random.Random(606)
    for _ in range(100):
        g = random_temporal_graph(rng, n_max=200, m_max=600, t_max=50)
        yield g, QueryContext.single(rng.randrange(g.n), ALPHA)


def test_criterion_6_and_7_approximation_guarantee_and_coverage():
    bad_guarantee = 0
    bad_coverage = 0
    ratios = []
    fractions = []
    recalls = []
    for g, ctx in _guarantee_corpus():
        exact = exact_community(g, ctx)
        approx = local_search(g, ctx)
        bound_ok = (exact.beta
                    <= approx.epsilon * approx.beta_lower * (1 + 1e-12) + 1e-15)
        if approx.beta_lower > 0:
            ratio = exact.beta / approx.beta_lower
        else:
            ratio = 1.0 if exact.beta == 0.0 else float("inf")
        ratios.append(ratio)
        if not bound_ok or not (1 - 1e-9 <= ratio <= approx.epsilon + 1e-9):
            bad_guarantee += 1
        if not exact.members <= approx.explored:
            bad_coverage += 1
        fractions.append(len(approx.explored) / g.n)
        recalls.append(len(exact.members & approx.members) / len(exact.members))
    dist = np.percentile(ratios, [0, 50, 90, 100])
    mean_recall = float(np.mean(recalls))
    verdict(6, bad_guarantee == 0 and mean_recall >= 0.9,
            f"{bad_guarantee} guarantee violations over 100 graphs; true ratio "
            f"distribution min/median/p90/max = "
            f"{dist[0]:.3f}/{dist[1]:.3f}/{dist[2]:.3f}/{dist[3]:.3f}; "
            f"mean recall vs exact = {mean_recall:.3f} (soft floor 0.9)")
    verdict(7, bad_coverage == 0,
            f"{bad_coverage} coverage violations; mean expanded fraction |C|/n = "
            f"{np.mean(fractions):.3f}")


def test_criterion_8_near_linear_scaling():
    started = time.perf_counter()

    def batch(graph, queries, fn):
        # warm once (also fills the transition denominator cache), then take
        # the fastest of five passes to shed scheduler noise
        for q in queries[:5]:
            fn(graph, QueryContext.single(q, ALPHA))
        best = None
        for _ in range(5):
            t0 = time.perf_counter()
            for q in queries:
                fn(graph, QueryContext.single(q, ALPHA))
            dt = time.perf_counter() - t0
            best = dt if best is None else min(best, dt)
        return best

    times = {}
    for scale, n in ((1, 1500), (2, 3000), (4, 6000)):
        g = synth_graph(SynthConfig(n=n, avg_deg=5.0, timestamps_per_edge=2,
                                    horizon=40, seed=11))
        queries = random.Random(99).sample(range(g.n), 40)
        times[scale] = (batch(g, queries, temporal_pagerank),
                        batch(g, queries, exact_community))
    ratios = [times[b][i] / times[a][i] for a, b in ((1, 2), (2, 4)) for i in (0, 1)]
    elapsed = time.perf_counter() - started
    verdict(8, max(ratios) <= 2.5 and elapsed < 300.0,
            f"per-doubling time ratios (score/search at 2x and 4x) = "
            f"{', '.join(f'{r:.2f}' for r in ratios)} (limit 2.5), "
            f"{elapsed:.0f}s total (limit 300s)")


def test_criterion_8_exact_search_peels_a_local_region():
    """Work-counter companion of criterion 8: on its n = 6000 graph and
    queries, the exact search peels only a small region around each query,
    whatever the host's speed."""
    g = synth_graph(SynthConfig(n=6000, avg_deg=5.0, timestamps_per_edge=2,
                                horizon=40, seed=11))
    queries = random.Random(99).sample(range(g.n), 40)
    regions = [exact_community(g, QueryContext.single(q, ALPHA)).stats["region"]
               for q in queries]
    verdict(8, max(regions) <= 100,
            f"largest peeled region {max(regions)} of {g.n} vertices (limit 100)")


def test_criterion_8_score_pass_work_scales_linearly():
    """Work-counter companion of criterion 8: the successor updates of the
    score pass, which reads one row entry of ``inc_states`` per update, for
    its 40 queries at n = 1500, 3000 and 6000, whatever the host's speed."""
    updates = []
    for n in (1500, 3000, 6000):
        g = synth_graph(SynthConfig(n=n, avg_deg=5.0, timestamps_per_edge=2,
                                    horizon=40, seed=11))
        reads = [0]
        g.inc_states = [CountedReads(row, reads) for row in g.inc_states]
        for q in random.Random(99).sample(range(g.n), 40):
            temporal_pagerank(g, QueryContext.single(q, ALPHA))
        updates.append(reads[0])
    ratios = [b / a for a, b in zip(updates, updates[1:])]
    verdict(8, max(ratios) <= 2.5,
            f"successor updates {', '.join(map(str, updates))}; per-doubling ratios "
            f"{', '.join(f'{r:.2f}' for r in ratios)} (limit 2.5)")


def test_criterion_9_multi_query_singleton_reduction():
    rng = random.Random(909)
    broken = 0
    for _ in range(20):
        g = random_temporal_graph(rng, n_max=25, m_max=80, t_max=20)
        ctx = QueryContext.single(rng.randrange(g.n), ALPHA)
        if not np.array_equal(temporal_pagerank(g, ctx).values,
                              temporal_pagerank_multi(g, ctx).values):
            broken += 1
        single = exact_community(g, ctx)
        multi = exact_community_multi(g, ctx)
        if single.members != multi.members or single.beta != multi.beta:
            broken += 1
        a_single = local_search(g, ctx)
        a_multi = local_search_multi(g, ctx)
        if (a_single.members != a_multi.members
                or a_single.epsilon != a_multi.epsilon
                or a_single.beta_lower != a_multi.beta_lower
                or a_single.epsilon_trace != a_multi.epsilon_trace):
            broken += 1
    verdict(9, broken == 0,
            f"{broken} bit-level differences between single and |S|=1 multi paths "
            "over 20 graphs x 3 algorithms")


def test_criterion_10_metric_fixtures():
    tri = fixture(TRI)
    chain = fixture(CHAIN3)
    tri_ctx = QueryContext.single(tri.index["q"], ALPHA)
    chain_ctx = QueryContext.single(chain.index["q"], ALPHA)

    def report(g, subset):  # td and tc do not read the scores
        return community_report(g, [0.0] * g.n, subset)

    checks = [
        ("TD(tri, V) = 0.5", report(tri, range(tri.n)).td == 0.5),
        ("TC(tri, V) = 0", report(tri, range(tri.n)).tc == 0.0),
        ("TC(chain, {q,a}) = 1",
         report(chain, {chain.index["q"], chain.index["a"]}).tc == 1.0),
    ]
    for g, ctx in ((tri, tri_ctx), (chain, chain_ctx)):
        res = exact_community(g, ctx)
        checks.append((f"MD == beta on {g.labels}",
                       min_proximity_degree(res.scores, g, res.members) == res.beta))
    ok = all(passed for _, passed in checks)
    failed = [name for name, passed in checks if not passed]
    verdict(10, ok, "all metric fixtures exact" if ok else f"failed: {failed}")
