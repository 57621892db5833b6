import gc
import io
import marshal
import os
import random
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given

import tpcore
from tpcore import (EmptyGraph, MalformedLine, QueryContext, QueryNotInSet, SynthConfig,
                    TemporalGraph, load_edge_stream, parse_edge_stream,
                    power_iteration_pagerank, synth_triples, temporal_pagerank)
from tpcore.cli import stratified_queries
from tpcore.graph import format_edge_stream
from tests import oracle
from tests.conftest import graph_strategy, random_temporal_graph
from tests.oracle import OrderedEdge


def dump_edge_stream(graph, sink):
    """Write the graph back out in stream (time-sorted) order."""
    sink.write(format_edge_stream(oracle.triple(graph, e) for e in range(graph.m)))


def dumps_edge_stream(graph):
    buf = io.StringIO()
    dump_edge_stream(graph, buf)
    return buf.getvalue()


def edge(graph, u_lab, v_lab, t):
    """The ordered edge <u, v, t> of a stored triple, in either storage order."""
    u, v = graph.index[u_lab], graph.index[v_lab]
    for e, (a, b, tt) in enumerate(oracle.edge_list(graph)):
        if tt == t and {a, b} == {u, v}:
            return OrderedEdge(e, a == u)
    raise AssertionError("edge not found")


# ---- loader ----------------------------------------------------------------

def test_load_tri_counts():
    g = parse_edge_stream(["q a 1", "q b 1", "a b 2"])
    assert (g.n, g.m, g.m_static, g.t_max_occurrence) == (3, 3, 3, 2)


def test_duplicate_triples_dropped_with_count():
    g = parse_edge_stream(["q a 1", "q a 1"])
    assert g.m == 1
    assert g.report.duplicates == 1


def test_reversed_duplicate_is_same_edge():
    g = parse_edge_stream(["q a 1", "a q 1"])
    assert g.m == 1
    assert g.report.duplicates == 1


def test_self_loops_dropped_with_count():
    g = parse_edge_stream(["q q 3", "q a 1"])
    assert g.m == 1
    assert g.report.self_loops == 1


def test_malformed_field_count():
    with pytest.raises(MalformedLine) as exc:
        parse_edge_stream(["q a 1", "q a"])
    assert exc.value.line_no == 2


def test_malformed_timestamp():
    with pytest.raises(MalformedLine):
        parse_edge_stream(["q a x"])
    with pytest.raises(MalformedLine):
        parse_edge_stream(["q a -3"])
    with pytest.raises(MalformedLine):
        parse_edge_stream([f"q a {2**63}"])


def test_empty_graph():
    with pytest.raises(EmptyGraph):
        parse_edge_stream(["# only a comment", "", "   "])


def test_comments_and_blank_lines_ignored():
    g = parse_edge_stream(["# header", "", "q a 1", "  ", "# mid", "a b 2"])
    assert g.m == 2


def test_unsorted_input_is_sorted():
    g = parse_edge_stream(["a b 5", "q a 1"])
    assert [t for _, _, t in oracle.edge_list(g)] == [1, 5]
    # unsorted triples are sorted too, so the walk c -> b at 1, b -> a at 5
    # is not cut short: b keeps the stop share and a the rest (power
    # iteration stops a few 1e-12 short of the mass)
    g = TemporalGraph.from_triples([("a", "b", 5), ("b", "c", 1)])
    ctx = QueryContext.single(g.index["c"])
    for score in (temporal_pagerank, power_iteration_pagerank):
        got = score(g, ctx)
        assert {lab: got.per_vertex[g.index[lab]] for lab in "abc"} == pytest.approx(
            {"a": 0.8, "b": 0.2, "c": 0.0}, abs=1e-10)


def test_labels_numbered_by_first_appearance_in_the_sorted_stream():
    g = parse_edge_stream(["c d 5", "b c 1", "a b 1"])
    assert g.labels == ["b", "c", "a", "d"]
    assert oracle.edge_list(g) == [(0, 1, 1), (2, 0, 1), (1, 3, 5)]


def test_triples_pass_the_line_checks():
    with pytest.raises(MalformedLine) as exc:
        TemporalGraph.from_triples([("q", "a", 1), ("q", "b", -1)])
    assert exc.value.line_no == 2
    with pytest.raises(MalformedLine):
        TemporalGraph.from_triples([("q", "a")])
    g = TemporalGraph.from_triples([("q", "a", "3"), ("a", "q", 3), ("b", "b", 1)])
    assert oracle.edge_list(g) == [(0, 1, 3)]
    assert (g.report.duplicates, g.report.self_loops) == (1, 1)


def test_round_trip_identical():
    g = parse_edge_stream(["b c 7", "a b 5", "q a 1", "q c 5"])
    g2 = parse_edge_stream(io.StringIO(dumps_edge_stream(g)))
    assert oracle.same_graph(g, g2)
    assert g.labels == g2.labels


def restored(graph):
    return TemporalGraph.unpack(graph.pack())


def test_pack_round_trip_restores_every_field():
    """Every attribute the constructor sets comes back equal, so a field added
    to the constructor but left out of the pack fails here."""
    rng = random.Random(11)
    graphs = [random_temporal_graph(rng) for _ in range(100)] + [
        TemporalGraph.from_triples([("q", "a", 3), ("a", "q", 3), ("b", "b", 1), ("q", "a", 3)]),
        parse_edge_stream([f"b c {2**63 - 1}", "a b 0", f"a c {2**63 - 8}", "c d 5",
                           f"c b {2**63 - 1}", "d d 4"]),
    ]
    for g in graphs:
        back = restored(g)
        assert type(back) is TemporalGraph
        assert vars(back).keys() == vars(g).keys()
        for name, value in vars(g).items():
            assert getattr(back, name) == value, name
    assert (back.report.duplicates, back.report.self_loops) == (1, 1)
    assert (graphs[-2].report.duplicates, graphs[-2].report.self_loops) == (2, 1)


def test_unpack_restores_the_stored_state_denom():
    """A restored graph holds the table as it was packed, partly or wholly
    filled, and goes on filling it as a graph that was never packed does."""
    g = random_temporal_graph(random.Random(5), n_max=15, m_max=60)
    temporal_pagerank(g, QueryContext.single(0))
    partial = g.state_denom.tolist()
    assert any(partial) and not all(partial)
    back = restored(g)
    assert back.state_denom.typecode == "d" and back.state_denom.tolist() == partial
    temporal_pagerank(back, QueryContext.single(1))
    temporal_pagerank(g, QueryContext.single(1))
    assert back.state_denom == g.state_denom
    g.fill_denominators()
    assert restored(g).state_denom == g.state_denom


def test_fill_denominators_holds_the_graph_denominators():
    """Every non-dangling state's entry is ``denominator`` of its arrival, bit
    for bit, also where several states arrive at one (vertex, time) and where
    timestamps lie within 8 of 2**63 - 1; a dangling state's stays 0.0."""
    rng = random.Random(43)
    filled = shared = 0
    for top in (2**63 - 1, 50):
        for _ in range(150):
            g = TemporalGraph.from_triples(messy_triples(rng, top))
            g.fill_denominators()
            assert len(g.state_denom) == 2 * g.m
            arrivals = [oracle.arrival(g, s) for s in range(2 * g.m)]
            for s, (u, t) in enumerate(arrivals):
                if oracle.vertex_dangling(g, u, t):
                    assert g.state_denom[s] == 0.0
                else:
                    assert g.state_denom[s] == g.denominator(u, t)
                    filled += 1
                    shared += arrivals.count((u, t)) > 1
    assert filled > 1000 and shared > 500


def test_unpack_rejects_what_pack_did_not_write():
    blob = random_temporal_graph(random.Random(2)).pack()
    for bad in (blob[:len(blob) // 2], b"", b"not a graph", marshal.dumps(("other", {})),
                marshal.dumps(7)):
        with pytest.raises((ValueError, EOFError, TypeError)):
            TemporalGraph.unpack(bad)
    layout, byteorder, fields = marshal.loads(blob)
    for name, bad in (("adj", fields["adj"][:-1]),
                      ("state_denom", fields["state_denom"][:-8]),
                      ("state_denom", fields["state_denom"] * 2)):
        with pytest.raises(ValueError, match="shapes"):
            TemporalGraph.unpack(marshal.dumps((layout, byteorder, {**fields, name: bad})))
    with pytest.raises(ValueError):  # not a whole number of float64s
        TemporalGraph.unpack(marshal.dumps(
            (layout, byteorder, {**fields, "state_denom": fields["state_denom"][:-3]})))
    other = "big" if byteorder == "little" else "little"
    with pytest.raises(ValueError, match="endian"):
        TemporalGraph.unpack(marshal.dumps((layout, other, fields)))
    # a field missing or one too many: every field name is checked before any is read
    reports = [{}, {"duplicates": 0}, {**fields["report"], "lines": 9}, [0, 0]]
    for bad in ([{}, list(fields.items()), {**fields, "index": {}}]
                + [{k: v for k, v in fields.items() if k != name} for name in fields]
                + [{**fields, "report": report} for report in reports]):
        with pytest.raises(ValueError, match="fields"):
            TemporalGraph.unpack(marshal.dumps((layout, byteorder, bad)))


@pytest.mark.parametrize("enabled", [True, False])
def test_loading_leaves_the_collector_as_it_was(enabled, tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("q a 1\na b 2\n")
    was = gc.isenabled()
    try:
        gc.enable() if enabled else gc.disable()
        load_edge_stream(str(path))
        assert gc.isenabled() == enabled
        TemporalGraph.from_triples([("q", "a", 1)])
        assert gc.isenabled() == enabled
        with pytest.raises(MalformedLine):
            parse_edge_stream(["q a 1", "q a"])
        assert gc.isenabled() == enabled
    finally:
        gc.enable() if was else gc.disable()


def test_loading_pauses_the_collector():
    """The collector is paused from the first record read on.  The constructor
    pauses it; ``parse_edge_stream``'s lazy ``map`` calls ``iter`` on its source
    before that, which reads nothing, and takes the first line inside it."""
    seen = []

    class Spy(list):
        def __iter__(self):
            seen.append(gc.isenabled())
            return super().__iter__()

    def records(items):
        seen.append(gc.isenabled())  # runs when the first record is taken
        yield from items

    assert gc.isenabled()
    TemporalGraph.from_triples(Spy([("q", "a", 1)]))
    TemporalGraph.from_triples(records([("q", "a", 1)]))
    parse_edge_stream(records(["q a 1"]))
    assert seen == [False, False, False]
    assert gc.isenabled()


# ---- structure invariants ----------------------------------------------------

@given(graph_strategy())
def test_incidence_and_adjacency_invariants(g):
    stream = oracle.edge_list(g)
    assert all(stream[i][2] <= stream[i + 1][2] for i in range(g.m - 1))
    assert sum(len(ts) for ts in g.inc_times) == 2 * g.m
    for u in range(g.n):
        for v in g.adj[u]:
            assert u in g.adj[v]
    assert g.t_max_occurrence == max(len(set(ts)) for ts in g.inc_times)


def check_layout(g):
    want = oracle.reference_layout(g)
    assert g.t_max_occurrence == max(want.pop("occurrence"))
    assert oracle.library_layout(g) == want


def test_layout_matches_per_edge_build():
    rng = random.Random(41)
    for _ in range(200):
        check_layout(random_temporal_graph(rng, n_max=15, m_max=60, t_max=8))


def test_layout_at_the_timestamp_limits():
    top = 2**63 - 1
    g = parse_edge_stream([f"b c {top}", "a b 0", f"a c {top}", "c d 0", f"b d {top}"])
    check_layout(g)
    assert [t for _, _, t in oracle.edge_list(g)] == [0, 0, top, top, top]
    assert g.inc_times[g.index["b"]] == [0, top, top]
    assert [ts[-1] for ts in g.inc_times] == [top] * 4
    assert oracle.reference_layout(g)["occurrence"] == [2, 2, 2, 2]
    assert g.denominator(g.index["b"], 0) == 2.0 / top
    assert oracle.same_graph(parse_edge_stream(io.StringIO(dumps_edge_stream(g))), g)


def test_out_states_follow_the_stream():
    g = parse_edge_stream(["q a 1", "q b 1", "a b 2"])
    q, a, b = (g.index[x] for x in "qab")
    assert (g.inc_states[q], g.inc_states[a], g.inc_states[b]) == ([0, 2], [1, 4], [3, 5])
    assert [oracle.arrival(g, s) for s in range(6)] == [
        (a, 1), (q, 1), (b, 1), (q, 1), (b, 2), (a, 2)]


def messy_triples(rng, top):
    """Random triples with repeats, reversed repeats and self-loops; timestamps
    are small or within 8 of ``top``."""
    n = rng.randint(2, 10)
    triples = []
    for _ in range(rng.randint(1, 40)):
        u, v = rng.randrange(n), rng.randrange(n)
        t = rng.randint(0, 8) if rng.random() < 0.5 else top - rng.randint(0, 8)
        triples.append((f"v{u}", f"v{v}", t))
        if rng.random() < 0.2:
            triples.append(rng.choice([(f"v{u}", f"v{v}", t), (f"v{v}", f"v{u}", t)]))
    triples.append(("v0", "v1", rng.randint(0, top)))  # at least one edge survives
    return triples


def test_per_state_lists_match_the_cleaned_stream():
    rng = random.Random(13)
    for top in (2**63 - 1, 50):
        for _ in range(150):
            triples = messy_triples(rng, top)
            g = TemporalGraph.from_triples(triples)
            kept = {}
            for u, v, t in triples:  # first copy wins, self-loops go
                if u != v:
                    kept.setdefault((min(u, v), max(u, v), t), (u, v, t))
            want = sorted(kept.values(), key=lambda e: e[2])
            assert [oracle.triple(g, e) for e in range(g.m)] == want
            assert len(g.state_tail) == len(g.state_time) == 2 * g.m
            assert g.state_time[0::2] == g.state_time[1::2]  # a state and its reverse
            assert g.state_denom.typecode == "d"  # a float64 per state, 0.0 until computed
            assert g.state_denom.tolist() == [0.0] * (2 * g.m)


def test_load_peak_stays_near_what_the_graph_keeps():
    """A deterministic check of the load's memory: the build frees its
    intermediates as it goes, so the traced peak of a 25k-edge load stays
    within 1.5x of what the finished graph holds."""
    lines = format_edge_stream(synth_triples(SynthConfig(
        n=5000, avg_deg=5.0, timestamps_per_edge=2, horizon=40, seed=3))).splitlines()
    was_tracing = tracemalloc.is_tracing()
    if not was_tracing:
        tracemalloc.start()
    tracemalloc.reset_peak()
    before = tracemalloc.get_traced_memory()[0]
    g = parse_edge_stream(lines)
    kept, peak = tracemalloc.get_traced_memory()
    if not was_tracing:
        tracemalloc.stop()
    assert g.m > 20_000
    assert peak - before <= 1.5 * (kept - before), (peak - before, kept - before)


# run in a fresh interpreter, whose heap holds no garbage of earlier tests
GAPS = """
for rows in (g.inc_states, g.inc_times):
    gaps = [id(b) - id(a) for row in rows for a, b in zip(row, row[1:])]
    print(sum(0 < d <= 64 for d in gaps) / len(gaps))
"""
ROW_INT_GAPS = """
from tpcore import SynthConfig, TemporalGraph, synth_triples
g = TemporalGraph((u, v, t + 1000) for u, v, t in synth_triples(
    SynthConfig(n=3000, avg_deg=5.0, timestamps_per_edge=2, horizon=1000, seed=3)))
""" + GAPS


def row_int_gaps(script):
    src = str(Path(tpcore.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return tuple(map(float, proc.stdout.split()))


def test_row_ints_sit_next_to_each_other():
    """The ints of every ``inc_states`` and ``inc_times`` row are made fresh in
    row order before the build frees the ints of its buckets, so on CPython
    each entry's object follows the previous one in memory (the score pass
    reads them in row order).  Timestamps above 256 are not the interpreter's
    shared small ints, so each one is an object of its own."""
    states, times = row_int_gaps(ROW_INT_GAPS)
    assert states >= 0.9 and times >= 0.9, (states, times)


def test_restored_row_ints_sit_next_to_each_other(tmp_path):
    """A fresh process that restores a packed graph, as a cache hit does, gets
    the layout of a build: marshal makes each row's ints in row order."""
    path = tmp_path / "g.graph"
    path.write_bytes(TemporalGraph((u, v, t + 1000) for u, v, t in synth_triples(
        SynthConfig(n=3000, avg_deg=5.0, timestamps_per_edge=2, horizon=1000, seed=3))).pack())
    states, times = row_int_gaps("from tpcore import TemporalGraph\n"
                                 f"g = TemporalGraph.unpack(open({str(path)!r}, 'rb').read())"
                                 + GAPS)
    assert states >= 0.9 and times >= 0.9, (states, times)


# ---- ordered edges and transitions -------------------------------------------

def test_successors_tri(tri):
    qa = edge(tri, "q", "a", 1)
    assert oracle.successors(tri, qa) == [edge(tri, "a", "b", 2)]
    ab = edge(tri, "a", "b", 2)
    assert oracle.successors(tri, ab) == []
    assert oracle.dangling(tri, ab)
    qb = edge(tri, "q", "b", 1)
    # the equal-time state <b, q, 1> is excluded: strictly later times only
    assert oracle.successors(tri, qb) == [edge(tri, "b", "a", 2)]


def test_successors_empty_iff_dangling(tri, chain3):
    for g in (tri, chain3):
        for e in oracle.ordered_edges(g):
            assert (oracle.successors(g, e) == []) == oracle.dangling(g, e)


def test_transition_prob_tri(tri):
    qa = edge(tri, "q", "a", 1)
    ab = edge(tri, "a", "b", 2)
    assert oracle.transition_prob(tri, qa, ab) == 1.0
    assert oracle.transition_prob(tri, ab, ab) == 1.0  # dangling self-loop
    assert oracle.transition_prob(tri, ab, qa) == 0.0
    assert oracle.transition_prob(tri, qa, edge(tri, "q", "b", 1)) == 0.0


def test_transition_prob_linear_decay_gaps():
    # successors at gaps 1 and 3: (1/1)/(1/1+1/3) and (1/3)/(1/1+1/3)
    g = TemporalGraph.from_triples([("x", "u", 1), ("u", "a", 2), ("u", "b", 4)])
    xu = edge(g, "x", "u", 1)
    assert oracle.transition_prob(g, xu, edge(g, "u", "a", 2)) == pytest.approx(0.75, abs=1e-15)
    assert oracle.transition_prob(g, xu, edge(g, "u", "b", 4)) == pytest.approx(0.25, abs=1e-15)


@given(graph_strategy())
def test_two_opposing_states_per_edge(g):
    states = oracle.ordered_edges(g)
    assert len(states) == 2 * g.m
    for e in range(g.m):
        fwd, rev = states[2 * e], states[2 * e + 1]
        assert oracle.head(g, fwd) == oracle.tail(g, rev)
        assert oracle.tail(g, fwd) == oracle.head(g, rev)
        assert oracle.time(g, fwd) == oracle.time(g, rev)


@given(graph_strategy())
def test_row_stochasticity(g):
    states = oracle.ordered_edges(g)
    for e in states:
        if oracle.dangling(g, e):
            assert oracle.transition_prob(g, e, e) == 1.0
            continue
        total = sum(oracle.transition_prob(g, e, s) for s in oracle.successors(g, e))
        assert total == pytest.approx(1.0, abs=1e-12)


def test_denominator_memo_matches_direct():
    rng = random.Random(7)
    probes = 0
    while probes < 1000:
        g = random_temporal_graph(rng, n_max=10, m_max=30, t_max=15)
        for _ in range(min(50, 1000 - probes)):
            u = rng.randrange(g.n)
            t0 = rng.randint(0, 16)
            direct = sum(1.0 / (t - t0) for t in g.inc_times[u] if t > t0)
            first = g.denominator(u, t0)
            assert first == pytest.approx(direct, abs=1e-12)
            # denominator is deterministic: a repeated call returns the same
            # float (the push's per-state memo of it is checked in test_pagerank)
            assert g.denominator(u, t0) == first
            probes += 1


# ---- de-temporal operations ---------------------------------------------------

def test_connected_component(tri, chain3):
    q, a, b = (tri.index[x] for x in "qab")
    assert tri.connected_component({q, a, b}, q) == {q, a, b}
    cq, ca, cb = (chain3.index[x] for x in "qab")
    assert chain3.connected_component({cq, cb}, cq) == {cq}
    assert chain3.connected_component({cq}, cq) == {cq}
    with pytest.raises(QueryNotInSet):
        chain3.connected_component({ca, cb}, cq)


def test_last_connected_round_matches_a_scan():
    """The largest k at which one component of universe - removal_log[:k]
    holds every query, found by scanning k with ``oracle.joins``; -1 when the
    whole universe does not join them, and len(removal_log) for one query."""
    rng = random.Random(24)
    outcomes = set()
    for _ in range(400):
        g = random_temporal_graph(rng, n_max=10, m_max=12)
        universe = rng.sample(range(g.n), rng.randint(1, g.n))
        queries = rng.sample(universe, min(len(universe), rng.randint(1, 3)))
        rest = [u for u in universe if u not in queries]
        log = rng.sample(rest, rng.randint(0, len(rest)))
        got = g.last_connected_round(universe, log, queries)
        if len(queries) == 1:
            assert got == len(log)
            outcomes.add("single")
            continue
        want = max([k for k in range(len(log) + 1)
                    if oracle.joins(g, set(universe) - set(log[:k]), queries)], default=-1)
        assert got == want, (universe, log, queries)
        outcomes.add("-1" if want < 0 else "all" if want == len(log) else "some")
    assert outcomes == {"single", "-1", "all", "some"}


def test_temporal_occurrence(tri, chain3):
    """A vertex's occurrence counts the distinct timestamps on its edges: the
    graph keeps the largest, and ``tpcore bench --stratified`` ranks by it."""
    assert tri.t_max_occurrence == chain3.t_max_occurrence == 2
    q, a, b = (chain3.index[x] for x in "qab")  # occurrences 1, 2, 1
    assert stratified_queries(chain3, 3) == [q, b, a]
