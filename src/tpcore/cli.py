"""Command-line front end: query, bench, gen, stats.

Exit codes: 0 success, 2 malformed input or invalid parameters, 3 unknown
query label, 4 algorithm-level errors (QueriesDisconnected, TooLarge, ...).
JSON responses keep a stable key set; text mode reports the same numbers.

A graph file's built graph is cached on disk in ``$XDG_CACHE_HOME/tpcore``
(``~/.cache/tpcore`` when unset), keyed by the SHA-256 of the file's bytes and
by the pack layout, marshal format and interpreter.  An entry also holds
every transition denominator, filled on the miss that writes it, so that a hit
scores warm.  ``query --json`` reports the ``"cache"`` status.  The library
never caches.

Each run is a fresh process, so start-up counts in every command: the module
imports only what an ``egr`` query runs, the other paths import their own
modules (``local``, ``synth``, ``csv``) when they run, and a command runs with
the cyclic collector paused, which would otherwise scan a restored graph.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import marshal
import os
import sys
import time

from .community import brute_force_search, exact_community
from .errors import (CommunitySearchError, EmptyGraph, MalformedLine, UnknownLabel)
from .graph import (PACK_LAYOUT, TemporalGraph, _collector_paused, format_edge_stream,
                    read_edge_stream)
from .metrics import community_report
from .pagerank import DEFAULT_ALPHA, QueryContext, temporal_pagerank

ALGORITHMS = ("egr", "als", "brute")

BENCH_HEADER = ["query", "occurrence", "egr_s", "egr_beta", "egr_size",
                "als_s", "als_beta_lower", "als_epsilon", "als_true_ratio",
                "als_fallback", "als_size", "explored_fraction",
                "precision", "recall"]


def _fail(code: int, name: str, message: str, as_json: bool) -> int:
    print(f"error: {name}: {message}", file=sys.stderr)
    if as_json:
        print(json.dumps({"error": name, "message": message}))
    return code


def _open_out(path: str):
    """The ``--out`` stream: stdout for "-", else the file (OSError if it cannot be opened)."""
    if path == "-":
        return contextlib.nullcontext(sys.stdout)
    return open(path, "w", encoding="utf-8", newline="")


def _cached_graph(data: bytes) -> tuple[TemporalGraph, str]:
    """The graph of edge-stream bytes, restored from the cache ("hit") or built
    and stored ("miss"), or built when the cache cannot be written ("off")."""
    folder = os.path.join(os.environ.get("XDG_CACHE_HOME") or os.path.expanduser("~/.cache"),
                          "tpcore")
    entry = os.path.join(folder, f"{hashlib.sha256(data).hexdigest()}-{PACK_LAYOUT}-marshal"
                                 f"{marshal.version}-{sys.implementation.cache_tag}.graph")
    try:
        with open(entry, "rb") as fh:
            return TemporalGraph.unpack(fh.read()), "hit"
    except (OSError, ValueError, EOFError, TypeError):
        pass  # no entry, or a damaged one: build the graph and overwrite it
    graph = read_edge_stream(io.BytesIO(data))  # the hashed bytes, never a second read
    tmp = f"{entry}.{os.getpid()}.tmp"
    try:
        os.makedirs(folder, exist_ok=True)
        with open(tmp, "wb") as fh:
            graph.fill_denominators()  # so that every hit scores warm
            fh.write(graph.pack())
        os.replace(tmp, entry)  # atomic: a concurrent run reads all of an entry or none
    except OSError:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        return graph, "off"
    return graph, "miss"


def _load(path: str, as_json: bool) -> tuple[TemporalGraph, str] | int:
    try:
        with open(path, "rb") as fh:
            data = fh.read()
        graph, cache = _cached_graph(data)
    except (MalformedLine, EmptyGraph, OSError) as exc:
        return _fail(2, type(exc).__name__, str(exc), as_json)
    if graph.report.duplicates or graph.report.self_loops:
        print(f"warning: dropped {graph.report.duplicates} duplicate and "
              f"{graph.report.self_loops} self-loop edges", file=sys.stderr)
    return graph, cache


def _resolve_labels(graph: TemporalGraph, labels: list[str]) -> list[int]:
    ids = []
    for lab in labels:
        u = graph.index.get(lab)
        if u is None:
            raise UnknownLabel(lab)
        ids.append(u)
    return ids


def _true_ratio(beta_exact: float, beta_lower: float) -> float:
    if beta_exact == 0.0 and beta_lower == 0.0:
        return 1.0
    return beta_exact / beta_lower


def cmd_query(args: argparse.Namespace) -> int:
    if not 0.0 < args.alpha < 1.0:
        return _fail(2, "InvalidParameter", f"alpha must be in (0, 1), got {args.alpha}",
                     args.json)

    t0 = time.perf_counter()
    if isinstance(loaded := _load(args.graph, args.json), int):
        return loaded
    graph, cache = loaded
    load_s = time.perf_counter() - t0

    try:
        ids = _resolve_labels(graph, args.queries)
    except UnknownLabel as exc:
        return _fail(3, "UnknownLabel", str(exc), args.json)
    ctx = QueryContext(tuple(ids), args.alpha)
    if args.alg == "als":
        from .local import local_search as solve
    else:
        solve = {"egr": exact_community, "brute": brute_force_search}[args.alg]
    try:
        result = solve(graph, ctx)
    except CommunitySearchError as exc:
        return _fail(4, type(exc).__name__, str(exc), args.json)

    response: dict = {
        "algorithm": args.alg,
        "query": args.queries,
        "alpha": args.alpha,
        "graph": {"n": graph.n, "m": graph.m, "m_static": graph.m_static,
                  "t_max_occurrence": graph.t_max_occurrence},
        "cache": cache,
        "beta": result.beta,
    }
    if args.alg == "als":
        response["epsilon"] = result.epsilon
        response["fallback"] = result.fallback
        response["explored_fraction"] = len(result.explored) / graph.n

    t1 = time.perf_counter()
    # md reports the true minimum degree, so als also pays a full score pass
    scores = result.scores or temporal_pagerank(graph, ctx)
    response["community"] = result.labels(graph)
    response["metrics"] = community_report(graph, scores, result.members).to_dict()
    response["timings"] = {"load_s": load_s, **result.timings,
                           "metrics_s": time.perf_counter() - t1}
    response["stats"] = result.stats

    if args.json:
        print(json.dumps(response))
    else:
        print(f"algorithm: {response['algorithm']}")
        print(f"query: {' '.join(response['query'])}  alpha: {response['alpha']!r}")
        print(f"community ({len(response['community'])}): "
              + " ".join(response["community"]))
        print(f"beta: {response['beta']!r}")
        if "epsilon" in response:
            print(f"epsilon: {response['epsilon']!r}  fallback: {response['fallback']}")
            print(f"explored_fraction: {response['explored_fraction']!r}")
        m = response["metrics"]
        print(f"metrics: td={m['td']!r} tc={m['tc']!r} md={m['md']!r} "
              f"size={m['size']} internal_times={m['internal_times']}")
        t = response["timings"]
        print(f"timings: load={t['load_s']:.4f}s (cache {response['cache']}) "
              f"score={t['score_s']:.4f}s search={t['search_s']:.4f}s "
              f"metrics={t['metrics_s']:.4f}s")
    return 0


def cmd_gen(args: argparse.Namespace) -> int:
    from .synth import SynthConfig, synth_triples
    cfg = SynthConfig(args.n, args.avg_deg, args.tpe, args.horizon, args.seed)
    try:
        triples = synth_triples(cfg)
    except ValueError as exc:
        return _fail(2, "InvalidParameter", str(exc), False)
    try:
        with _open_out(args.out) as sink:
            sink.write(format_edge_stream(triples))
    except OSError as exc:
        return _fail(2, type(exc).__name__, str(exc), False)
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    if isinstance(loaded := _load(args.graph, args.json), int):
        return loaded
    graph = loaded[0]
    stats = {
        "n": graph.n,
        "m": graph.m,
        "m_static": graph.m_static,
        "t_max_occurrence": graph.t_max_occurrence,
        "t_min": graph.state_time[0],  # the stream is sorted by time
        "t_max": graph.state_time[-1],
        "dropped_duplicates": graph.report.duplicates,
        "dropped_self_loops": graph.report.self_loops,
    }
    if args.json:
        print(json.dumps(stats))
    else:
        for key, value in stats.items():
            print(f"{key}: {value}")
    return 0


def stratified_queries(graph: TemporalGraph, count: int) -> list[int]:
    """``count`` vertices, the middle one of each equal slice of the vertices
    ranked by (temporal occurrence, id), the occurrence of u being the number
    of distinct timestamps on its edges."""
    order = sorted(range(graph.n), key=lambda u: (len(set(graph.inc_times[u])), u))
    return [order[int((i + 0.5) * len(order) / count)] for i in range(count)]


def cmd_bench(args: argparse.Namespace) -> int:
    import csv
    import random

    from .local import local_search
    algs = [a.strip() for a in args.algs.split(",") if a.strip()]
    bad = [a for a in algs if a not in ("egr", "als")]
    if bad or not algs:
        return _fail(2, "InvalidParameter", f"--algs must list egr and/or als, got {args.algs}",
                     False)
    if not 0.0 < args.alpha < 1.0:
        return _fail(2, "InvalidParameter", f"alpha must be in (0, 1), got {args.alpha}",
                     False)
    if args.samples < 1:
        return _fail(2, "InvalidParameter", "--samples must be positive", False)
    if isinstance(loaded := _load(args.graph, False), int):
        return loaded
    graph = loaded[0]

    count = args.samples
    if count > graph.n:
        print(f"warning: clamping samples from {count} to {graph.n}", file=sys.stderr)
        count = graph.n
    if args.stratified:
        picks = stratified_queries(graph, count)
    else:
        rng = random.Random(args.seed)
        picks = sorted(rng.sample(range(graph.n), count))

    if args.out != "-":
        try:  # fail before any query, without truncating what the file holds
            open(args.out, "a", encoding="utf-8").close()
        except OSError as exc:
            return _fail(2, type(exc).__name__, str(exc), False)
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(BENCH_HEADER)
    for q in picks:
        ctx = QueryContext.single(q, args.alpha)
        row: dict[str, object] = {key: "" for key in BENCH_HEADER}
        row["query"] = graph.labels[q]
        row["occurrence"] = len(set(graph.inc_times[q]))
        exact = approx = None
        if "egr" in algs:
            t0 = time.perf_counter()
            exact = exact_community(graph, ctx)
            row["egr_s"] = f"{time.perf_counter() - t0:.6f}"
            row["egr_beta"] = repr(exact.beta)
            row["egr_size"] = len(exact.members)
        if "als" in algs:
            t0 = time.perf_counter()
            approx = local_search(graph, ctx)
            row["als_s"] = f"{time.perf_counter() - t0:.6f}"
            row["als_beta_lower"] = repr(approx.beta_lower)
            row["als_epsilon"] = repr(approx.epsilon)
            row["als_fallback"] = int(approx.fallback)
            row["als_size"] = len(approx.members)
            row["explored_fraction"] = repr(len(approx.explored) / graph.n)
        if exact is not None and approx is not None:
            row["als_true_ratio"] = repr(_true_ratio(exact.beta, approx.beta_lower))
            overlap = len(exact.members & approx.members)
            row["precision"] = repr(overlap / len(approx.members))
            row["recall"] = repr(overlap / len(exact.members))
        writer.writerow([row[key] for key in BENCH_HEADER])
    try:
        with _open_out(args.out) as sink:
            sink.write(buf.getvalue())
    except OSError as exc:
        return _fail(2, type(exc).__name__, str(exc), False)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="tpcore",
                                     description="Temporal community search")
    sub = parser.add_subparsers(dest="command", required=True)

    p_query = sub.add_parser("query", help="search the community of query vertices")
    p_query.add_argument("--graph", required=True, help="edge-stream file")
    p_query.add_argument("--q", dest="queries", action="append", required=True,
                         help="query vertex label (repeatable)")
    p_query.add_argument("--alg", choices=ALGORITHMS, default="egr")
    p_query.add_argument("--alpha", type=float, default=DEFAULT_ALPHA)
    p_query.add_argument("--json", action="store_true", help="JSON on stdout")
    p_query.set_defaults(func=cmd_query)

    p_gen = sub.add_parser("gen", help="generate a synthetic temporal graph")
    p_gen.add_argument("--n", type=int, required=True)
    p_gen.add_argument("--avg-deg", type=float, required=True)
    p_gen.add_argument("--tpe", type=int, required=True,
                       help="timestamps per static edge")
    p_gen.add_argument("--horizon", type=int, required=True)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out", default="-")
    p_gen.set_defaults(func=cmd_gen)

    p_stats = sub.add_parser("stats", help="summarize an edge-stream file")
    p_stats.add_argument("--graph", required=True)
    p_stats.add_argument("--json", action="store_true")
    p_stats.set_defaults(func=cmd_stats)

    p_bench = sub.add_parser("bench", help="run algorithms over sampled queries")
    p_bench.add_argument("--graph", required=True)
    p_bench.add_argument("--samples", type=int, default=50)
    p_bench.add_argument("--algs", default="egr,als")
    p_bench.add_argument("--alpha", type=float, default=DEFAULT_ALPHA)
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--stratified", action="store_true",
                         help="sample by temporal-occurrence rank")
    p_bench.add_argument("--out", default="-")
    p_bench.set_defaults(func=cmd_bench)
    return parser


@_collector_paused()
def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
