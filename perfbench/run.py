"""Layered benchmark of tpcore's exact (egr) and approximate (als) community search.

    python3 perfbench/run.py --workload low-occ --seed 1 --seconds 10 --trace 0

One closed-loop process asks one query at a time: library calls in-process,
with command-line runs as child processes, one after another, spread between
them.  Times are
CPU seconds of the process doing the work (``time.process_time`` here, child
``rusage`` for the command line): every layer is single-threaded and does no
I/O while querying, so on an idle machine CPU time equals wall time, and it
leaves out the time a busy machine keeps the process descheduled.  A shared
host also changes how much work a CPU second does, by a third within seconds,
so every timed block is scaled by a yardstick, a fixed pure-Python job timed
just before and just after it in the same process (see ``yardstick.py``).
The last line of standard output is one JSON object; see README.md for the
metrics.
"""
from __future__ import annotations

import os

# single-threaded numpy everywhere, so CPU time is the time of one core
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from contextlib import contextmanager  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import checkers  # noqa: E402
import inputs  # noqa: E402
from yardstick import REF_S, Yardstick, child_script, parse_child  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "work"
ALPHA = 0.2
SETUP_LOADS = 3         # at least this many loads per run; setup_s is their median
SETUP_CPU_S = 1.0       # and more until their scaled CPU seconds reach this
CHILD_TIMEOUT_S = 120.0
TOL = 1e-9              # betas, degrees and score sums
SCORE_TOL = 1e-8        # per-vertex scores against the independent propagation
CERT_TOL = 1e-12        # certificate comparisons, in absolute score units
CLI_ENTRY = child_script("from tpcore.cli import main\ncode = main()")
CLI_STARTUP = child_script("import tpcore.cli\ncode = 0")
YARD_REUSE_S = 0.1      # a yardstick taken this recently (wall seconds) still counts


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    return "ratio" if name.endswith(("_fraction", "_epsilon")) else "count"


class Tracer:
    """Times a block in CPU and wall seconds; when on, keeps a span per block.

    A block's scaled time (``rec["s"]``) is its CPU seconds times
    ``yardstick.REF_S`` over the mean of the yardstick taken just before and
    just after it: CPU seconds at the speed at which the yardstick takes
    ``REF_S``.  Back-to-back blocks share the yardstick between them.

    Spans hold name, start and end (wall seconds from the run's start), CPU
    seconds at start and end, the enclosing span and the query id.  They stay
    in memory until ``write``.
    """

    def __init__(self, on: bool):
        self.spans: list[dict] | None = [] if on else None
        self.origin = time.perf_counter()
        self.stack: list[int] = []
        self.next_id = 0
        self.yard = Yardstick()
        self.last_yard: tuple[float, float] | None = None  # (CPU seconds, wall time taken)

    @contextmanager
    def span(self, name: str, query: int | None = None, scaled: bool = True):
        """Every block starts from an emptied garbage collector, so a call does
        not pay for the collections its predecessors left pending."""
        gc.collect()
        before = self.yardstick(reuse=True) if scaled else None
        rec: dict = {}
        sid = self.next_id
        self.next_id += 1
        self.stack.append(sid)
        w0 = time.perf_counter()
        c0 = time.process_time()
        try:
            yield rec
        finally:
            c1 = time.process_time()
            w1 = time.perf_counter()
            self.stack.pop()
            rec["cpu"] = c1 - c0
            rec["wall"] = w1 - w0
            if scaled:
                rec["yard"] = (before + self.yardstick()) / 2
                rec["scale"] = REF_S / rec["yard"]
                rec["s"] = rec["cpu"] * rec["scale"]
            if self.spans is not None:
                self.spans.append({
                    "id": sid, "name": name, "parent": self.stack[-1] if self.stack else None,
                    "query": query, "start": w0 - self.origin, "end": w1 - self.origin,
                    "cpu_start": c0, "cpu_end": c1, **{k: v for k, v in rec.items()
                                                       if k not in ("cpu", "wall")}})

    def yardstick(self, reuse: bool = False) -> float:
        """CPU seconds of one yardstick job; with ``reuse``, those of the last
        one if it ended moments ago."""
        if (reuse and self.last_yard is not None
                and time.perf_counter() - self.last_yard[1] < YARD_REUSE_S):
            return self.last_yard[0]
        cpu = self.yard.measure()
        self.last_yard = (cpu, time.perf_counter())
        return cpu

    def write(self, path: Path) -> None:
        path.write_text(json.dumps({"spans": self.spans}))


def run_child(argv: list[str]) -> tuple[subprocess.CompletedProcess, float, float]:
    """Run a Python child to completion; return it with its CPU and wall seconds."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((str(SRC), str(HERE))),
               PYTHONHASHSEED="0")
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    w0 = time.perf_counter()
    proc = subprocess.run([sys.executable, *argv], cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT_S)
    wall = time.perf_counter() - w0
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    return proc, cpu, wall


def child_scaled(proc: subprocess.CompletedProcess, cpu: float) -> tuple[float, float]:
    """A yardstick child's scaled CPU seconds, and the CPU seconds its own
    yardstick used, which the scaled figure leaves out."""
    before, after, own = parse_child(proc.stderr)
    return (cpu - own) * REF_S / ((before + after) / 2), own


@dataclass
class Query:
    """One query tuple and what its first round answered."""

    labels: tuple[str, ...]
    egr: object = None
    als: object = None
    cli: dict = field(default_factory=dict)


class Bench:
    """One run of one workload: inputs, set-up, the measured rounds and the checks."""

    def __init__(self, workload: inputs.Workload, seed: int, trace: bool, tp):
        self.workload = workload
        self.seed = seed
        self.trace = trace
        self.tp = tp
        self.tracer = Tracer(trace)
        self.samples: dict[str, list[float]] = {}
        self.problems: list[str] = []
        self.rounds = 0
        self.ops_per_round = 0
        self.failing_ops_per_round = 0

    # ---- bookkeeping ------------------------------------------------------

    def add(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    def expect(self, ok: bool, what: str) -> None:
        if not ok:
            self.problems.append(what)

    # ---- inputs and set-up ------------------------------------------------

    def prepare(self) -> None:
        """Generate (or reuse) and verify the seeded input in a child process,
        so the generator's memory does not count towards this process's peak."""
        directory = WORK / "inputs"
        proc, _, _ = run_child([str(HERE / "inputs.py"), "write", self.workload.name,
                                str(self.seed), str(directory)])
        if proc.returncode != 0:
            raise RuntimeError(f"input generation failed:\n{proc.stderr}")
        self.path = directory / f"{self.workload.name}-{self.seed}.txt"
        picks = json.loads(self.path.with_suffix(".queries.json").read_text())
        self.queries = [Query(tuple(p)) for p in picks]
        self.pinned_path = None
        if max(self.workload.set_sizes) > 1:
            self.pinned_path = directory / "pinned.txt"
            self.pinned_path.write_text(inputs.format_triples(inputs.PINNED_TRIPLES))

    def setup(self) -> None:
        """Load the input several times; the traced run also times, for the
        first SETUP_LOADS loads, the build from pre-parsed triples and the
        first score on the fresh graph."""
        tp = self.tp
        triples = inputs.parse_triples(self.path.read_text(encoding="utf-8")) \
            if self.trace else None
        i = 0
        while i < SETUP_LOADS or sum(self.samples["setup_s"]) < SETUP_CPU_S:
            self.graph = graph = None  # drop the previous copy before loading the next
            with self.tracer.span("graph.load") as s:
                graph = tp.load_edge_stream(str(self.path))
            self.add("setup_s", s["s"])
            self.add("cpu.setup_s", s["cpu"])
            self.add("wall.setup_s", s["wall"])
            if self.trace and i < SETUP_LOADS:
                with self.tracer.span("graph.build") as s:
                    tp.TemporalGraph.from_triples(triples)
                self.add("graph.build_s", s["s"])
                ctx = self.context(graph, self.queries[self.egr_picks()[i]].labels)
                with self.tracer.span("pagerank.score_cold") as s:
                    tp.temporal_pagerank_multi(graph, ctx)
                self.add("pagerank.score_cold_s", s["s"])
            self.graph = graph
            i += 1
        if self.pinned_path is not None:
            self.pinned = tp.load_edge_stream(str(self.pinned_path))

    def context(self, graph, labels):
        return self.tp.QueryContext(tuple(graph.index[lab] for lab in labels), ALPHA)

    # ---- the measured loop ------------------------------------------------

    def warm_up(self) -> None:
        ctx = self.context(self.graph, self.queries[self.egr_picks()[0]].labels)
        self.tp.exact_community_multi(self.graph, ctx)
        self.tp.local_search_multi(self.graph, ctx)

    def run_round(self) -> None:
        """Every query through the library, one at a time, with the
        command-line runs spread evenly between them, so that they sample the
        whole round and not only its end."""
        egr = set(self.egr_picks())
        cli = self.cli_picks()
        slots = {int((j + 0.5) * len(self.queries) / len(cli)): qi for j, qi in enumerate(cli)}
        for qi, q in enumerate(self.queries):
            self.library_query(qi, q, qi in egr)
            if qi in slots:
                self.cli_query(slots[qi], self.queries[slots[qi]])
        if self.trace:
            with self.tracer.span("cli.startup", scaled=False) as s:
                proc, cpu, _ = run_child(["-c", CLI_STARTUP])
                s["child_cpu"] = cpu
            self.expect(proc.returncode == 0, "importing tpcore.cli failed")
            if proc.returncode == 0:
                self.add("cli.startup_s", child_scaled(proc, cpu)[0])
        if self.pinned_path is not None:
            self.pinned_query()

    def egr_picks(self) -> list[int]:
        """The queries also asked of egr: the middle one of every egr_every,
        so that they are stratified like the whole list."""
        every = self.workload.egr_every
        return list(range(every // 2, len(self.queries), every))

    def cli_picks(self) -> list[int]:
        """The egr queries at two thirds of the occurrence ranking: above the
        light vertices whose expansion can stop early, below the heaviest,
        whose score pass varies most."""
        egr, count = self.egr_picks(), self.workload.cli_queries
        first = round(2 * len(egr) / 3) - count // 2
        return egr[first:first + count]

    def library_query(self, qi: int, q: Query, with_egr: bool) -> None:
        tp, g, tr = self.tp, self.graph, self.tracer
        ctx = self.context(g, q.labels)
        egr, egr_scale = None, None
        if with_egr:
            with tr.span("egr", qi) as s:
                egr = tp.exact_community_multi(g, ctx)
            self.add("egr_query_s", s["s"])
            self.add("cpu.egr_query_s", s["cpu"])
            self.add("wall.egr_query_s", s["wall"])
            egr_scale = s["scale"]
        with tr.span("als", qi) as s:
            als = tp.local_search_multi(g, ctx)
        self.add("als_query_s", s["s"])
        self.add("cpu.als_query_s", s["cpu"])
        self.add("wall.als_query_s", s["wall"])
        self.add("als_epsilon", als.epsilon)
        if q.als is None:
            q.egr, q.als = egr, als
        else:
            self.expect(egr is None or (egr.members == q.egr.members
                                        and egr.beta == q.egr.beta),
                        f"egr {q.labels}: answer changed between rounds")
            self.expect(als.members == q.als.members and als.epsilon == q.als.epsilon
                        and als.beta_lower == q.als.beta_lower,
                        f"als {q.labels}: answer changed between rounds")
        if self.trace:
            self.layers(qi, q, ctx, egr, egr_scale, als)

    def layers(self, qi: int, q: Query, ctx, egr, egr_scale, als) -> None:
        """Per-layer calls of the traced run, each timed from outside."""
        tp, g, tr = self.tp, self.graph, self.tracer
        if egr is not None:
            # the peel's own wall-clock figure, scaled like the egr call around it
            self.add("community.peel_s", egr.timings["search_s"] * egr_scale)
            self.add("community.size", len(egr.members))
            with tr.span("pagerank.score", qi) as s:
                scores = tp.temporal_pagerank_multi(g, ctx)
            self.add("pagerank.score_s", s["s"])
            self.add("wall.pagerank.score_s", s["wall"])
            self.expect(bool((scores.values == egr.scores.values).all()),
                        f"scores {q.labels}: standalone pass differs from egr's")
            with tr.span("metrics.report", qi) as s:
                report = tp.community_report(g, egr.scores, egr.members)
            self.add("metrics.report_s", s["s"])
            self.expect(report.size == len(egr.members) and abs(report.md - egr.beta) <= TOL,
                        f"report {q.labels}: md/size disagree with the egr answer")
        with tr.span("local.expand", qi) as s:
            expanded, state = tp.expand(g, ctx)
        self.add("local.expand_s", s["s"])
        self.add("wall.local.expand_s", s["wall"])
        with tr.span("local.reduce", qi) as s:
            reduced = tp.reduce_stage(expanded, state, g, ctx)
        self.add("local.reduce_s", s["s"])
        self.expect(reduced.members == als.members and reduced.epsilon == als.epsilon,
                    f"als {q.labels}: expand+reduce differs from local_search_multi")
        self.add("local.explored_fraction", len(als.explored) / g.n)
        self.add("local.kept_fraction", len(als.members) / len(expanded))
        self.add("local.reduce_rounds", len(als.epsilon_trace))

    def cli_query(self, qi: int, q: Query) -> None:
        for alg in ("egr", "als"):
            argv = ["-c", CLI_ENTRY, "query", "--graph", str(self.path), "--alg", alg, "--json"]
            for lab in q.labels:
                argv += ["--q", lab]
            with self.tracer.span(f"cli.{alg}", qi, scaled=False) as s:
                proc, cpu, wall = run_child(argv)
                s["child_cpu"] = cpu
            if proc.returncode != 0:
                self.expect(False, f"cli {alg} {q.labels}: exit {proc.returncode}: "
                                   f"{proc.stderr.strip()[-300:]}")
                continue
            scaled, own = child_scaled(proc, cpu)
            self.add(f"cli_{alg}_s", scaled)
            self.add(f"cpu.cli_{alg}_s", cpu - own)
            self.add(f"wall.cli_{alg}_s", wall)
            out = json.loads(proc.stdout)
            if alg in q.cli:
                self.expect(out["community"] == q.cli[alg]["community"]
                            and out["beta"] == q.cli[alg]["beta"],
                            f"cli {alg} {q.labels}: answer changed between rounds")
            else:
                q.cli[alg] = out

    def pinned_query(self) -> None:
        ctx = self.context(self.pinned, inputs.PINNED_QUERIES)
        with self.tracer.span("als.pinned", scaled=False):
            als = self.tp.local_search_multi(self.pinned, ctx)
        if not hasattr(self, "pinned_als"):
            self.pinned_als = als
        else:
            self.expect(als.members == self.pinned_als.members
                        and als.beta_lower == self.pinned_als.beta_lower,
                        "pinned als: answer changed between rounds")

    def loop(self, seconds: float) -> None:
        """Whole rounds, each the same operations, until ``seconds`` of wall time pass."""
        start = time.perf_counter()
        while self.rounds == 0 or time.perf_counter() - start < seconds:
            with self.tracer.span("round", scaled=False):
                self.run_round()
            self.rounds += 1
        self.ops_per_round = (len(self.queries) + len(self.egr_picks())
                              + 2 * self.workload.cli_queries + (self.pinned_path is not None))

    # ---- checks against the independent oracles ----------------------------

    def check(self) -> None:
        g = self.graph
        ref = checkers.Graph(inputs.parse_triples(self.path.read_text(encoding="utf-8")))
        self.expect((g.n, g.m, g.m_static, g.t_max_occurrence)
                    == (ref.n, ref.m, ref.m_static, ref.t_occ),
                    "graph: n/m/m_static/T_occ differ from the independent count")
        self.shape = {"n": ref.n, "m": ref.m, "m_static": ref.m_static, "T_occ": ref.t_occ}
        perm = ref.ids(g.labels)
        walk = checkers.Walk(ref)
        for q in self.queries:
            ids = ref.ids(q.labels)
            truth = walk.scores(ids, ALPHA)
            exact = checkers.peel(ref, truth, ids)
            if q.egr is not None:
                self.check_egr(q, ref, perm, ids, truth, exact)
            if not self.check_als(q.labels, q.als, ref, perm, ids, truth, exact):
                self.failing_ops_per_round += 1
            self.check_cli(q, ref, perm, truth)
        if self.pinned_path is not None:
            ref = checkers.Graph(inputs.PINNED_TRIPLES)
            ids = ref.ids(inputs.PINNED_QUERIES)
            truth = checkers.scores(ref, ids, ALPHA)
            if not self.check_als(inputs.PINNED_QUERIES, self.pinned_als, ref,
                                  ref.ids(self.pinned.labels), ids, truth,
                                  checkers.peel(ref, truth, ids)):
                self.failing_ops_per_round += 1

    def check_egr(self, q: Query, ref, perm, ids, truth, exact) -> None:
        mine = q.egr.scores.values
        self.expect(bool((mine >= 0).all()) and abs(mine.sum() - 1.0) <= TOL,
                    f"scores {q.labels}: negative or not summing to 1")
        err = float(abs(truth[perm] - mine).max())
        self.expect(err <= SCORE_TOL, f"scores {q.labels}: off by {err:.2e}")
        members = frozenset(perm[u] for u in q.egr.members)
        self.expect(members == exact[0] and abs(q.egr.beta - exact[1]) <= TOL,
                    f"egr {q.labels}: differs from the independent peel")
        self.expect(checkers.connected(ref, members, ids),
                    f"egr {q.labels}: answer not connected or missing a query")

    def check_als(self, labels, als, ref, perm, ids, truth, exact) -> bool:
        """Check an approximate answer; return whether its certificate holds
        against the true scores (the operation fails if not)."""
        members = frozenset(perm[u] for u in als.members)
        self.expect(checkers.connected(ref, members, ids),
                    f"als {labels}: answer not connected or missing a query")
        self.expect(exact[0] <= {perm[u] for u in als.explored},
                    f"als {labels}: exact answer not covered by the explored set")
        self.expect(als.epsilon >= 1.0, f"als {labels}: epsilon below 1")
        certified = self.certified(als, exact[1], checkers.min_degree(ref, truth, members))
        if not certified:
            print(f"als {labels}: certificate fails against the mean scores", file=sys.stderr)
        return certified

    def check_cli(self, q: Query, ref, perm, truth) -> None:
        g = self.graph
        for alg, out in q.cli.items():
            answer = q.egr if alg == "egr" else q.als
            self.expect(out["community"] == answer.labels(g)
                        and out["graph"] == {"n": g.n, "m": g.m, "m_static": g.m_static,
                                             "t_max_occurrence": g.t_max_occurrence},
                        f"cli {alg} {q.labels}: community or graph differs from library")
            beta = answer.beta if alg == "egr" else answer.beta_lower
            self.expect(out["beta"] == beta, f"cli {alg} {q.labels}: beta differs")
            if alg == "als":
                self.expect(out["epsilon"] == answer.epsilon,
                            f"cli als {q.labels}: epsilon differs")
            md = checkers.min_degree(ref, truth, frozenset(perm[u] for u in answer.members))
            self.expect(abs(out["metrics"]["md"] - md) <= TOL
                        and out["metrics"]["size"] == len(answer.members),
                        f"cli {alg} {q.labels}: metrics differ from recomputation")

    @staticmethod
    def certified(als, exact_beta: float, true_min_degree: float) -> bool:
        """beta_lower bounds the answer's true minimum degree, and epsilon * beta_lower
        bounds the exact optimum."""
        return (als.beta_lower <= true_min_degree + CERT_TOL
                and exact_beta <= als.epsilon * als.beta_lower + CERT_TOL)

    # ---- report -------------------------------------------------------------

    def metrics(self) -> dict[str, dict]:
        names = ["setup_s", "egr_query_s", "als_query_s", "cli_egr_s", "cli_als_s",
                 "als_epsilon"]
        if self.trace:
            names = [n for n in self.samples if n.startswith(("graph.", "pagerank.",
                                                              "community.", "local.",
                                                              "metrics.", "cli.", "wall.",
                                                              "cpu."))]
        out = {}
        for name in names:
            # the certified ratio of one query ranges over a factor of ten and
            # moves in steps of two (the reduction halves it), so the median of
            # a run's queries jumps between seeds; their geometric mean moves less
            value = (statistics.geometric_mean if name == "als_epsilon"
                     else statistics.median)(self.samples[name])
            out[name] = {"value": value, "unit": unit_of(name)}
        if self.trace:
            out["graph.load_s"] = {"value": statistics.median(self.samples["setup_s"]),
                                   "unit": "s"}
            for name in ("egr_query_s", "als_query_s", "cli_egr_s", "cli_als_s"):
                out[f"trace.{name}"] = {"value": statistics.median(self.samples[name]),
                                        "unit": "s"}
            out["trace.spans"] = {"value": len(self.tracer.spans), "unit": "count"}
            out["yardstick_s"] = {"value": statistics.median(self.tracer.yard.times),
                                  "unit": "s"}
        else:
            out["peak_rss_mb"] = {"value": self.peak_rss_mb, "unit": "MB"}
        return out


def import_tpcore():
    """Import the checkout's own tpcore, never an installed copy."""
    if not (SRC / "tpcore" / "__init__.py").is_file():
        raise SystemExit(f"error: {SRC / 'tpcore'} not found; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import tpcore
    if Path(tpcore.__file__).resolve().parent != (SRC / "tpcore").resolve():
        raise SystemExit(f"error: imported tpcore from {tpcore.__file__}, not {SRC}")
    return tpcore


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(inputs.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    tp = import_tpcore()

    bench = Bench(inputs.WORKLOADS[args.workload], args.seed, bool(args.trace), tp)
    phases = {}
    start = time.perf_counter()
    bench.prepare()
    checked = checkers.self_test()
    bench.setup()
    bench.warm_up()
    phases["before_loop"] = time.perf_counter() - start
    bench.loop(args.seconds)
    bench.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    phases["loop"] = time.perf_counter() - start - phases["before_loop"]
    bench.check()
    phases["check"] = time.perf_counter() - start - phases["before_loop"] - phases["loop"]
    if args.trace:
        bench.tracer.write(WORK / f"trace-{args.workload}-{args.seed}.json")
    for problem in bench.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {bench.shape}, {bench.rounds} rounds, "
          f"queries {[q.labels for q in bench.queries]}, "
          f"{checked} oracle self-test cases passed, wall seconds "
          f"{ {k: round(v, 1) for k, v in phases.items()} }", file=sys.stderr)
    result = {
        "correct": not bench.problems,
        "attempted": bench.rounds * bench.ops_per_round,
        "failed": bench.rounds * bench.failing_ops_per_round,
        "metrics": bench.metrics(),
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
