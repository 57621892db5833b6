#!/usr/bin/env python3
"""Check that another checkout's tpcore gives the same answers as this one.

Runs this checkout's src/ and ``other-src`` (the src/ directory of another
checkout) in one child process each, on the perfbench inputs and on the
queries that ``perfbench/inputs.pick_queries`` picks for them, at perfbench's
alpha.  Every query is asked of both solvers.  Two answers agree when, for
``exact_community``, the per-vertex scores, members, ``beta`` and ``stats``
are equal, and for ``local_search`` the members, ``epsilon``, ``beta_lower``,
``fallback``, ``explored`` and ``stats`` are; floats must be equal bit for
bit.  Each child also runs its checkout's ``tpcore.cli.main`` with
``query --json --alg egr`` and ``--alg als`` on the first 4 picks of each
input, with a graph cache of its own (cache keys do not name the checkout, so
a shared cache would hand the second checkout the first one's entries); two
outputs agree when the exit codes and everything but ``timings`` and
``cache``, the order of the keys included, are equal.  Prints the number of differing answers and command-line
outputs per workload and seed, and exits 1 if any differ.

    python3 scripts/compare_answers.py <other-src> [--workload NAME ...] [--seed N ...]
"""
import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
import inputs  # noqa: E402
from run import ALPHA  # noqa: E402

# the number of picks per input that the command line is run on
CLI_PICKS = 4

# reads [[edge file, [query labels, ...]], ...] on stdin, prints one
# [answers, command-line outputs] pair per file; argv[1] is the src/ directory
# to import tpcore from
CHILD = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
import tpcore
from tpcore.cli import main
out = []
for path, picks in json.load(sys.stdin):
    g = tpcore.load_edge_stream(path)
    answers = []
    for labels in picks:
        ctx = tpcore.QueryContext(tuple(g.index[lab] for lab in labels), %r)
        egr = tpcore.exact_community(g, ctx)
        als = tpcore.local_search(g, ctx)
        answers.append({
            "egr": [egr.scores.per_vertex, egr.labels(g), egr.beta, egr.stats],
            "als": [als.labels(g), als.epsilon, als.beta_lower, als.fallback,
                    sorted(g.labels[u] for u in als.explored), als.stats]})
    del g
    outputs = []
    for labels in picks[:%d]:
        for alg in ("egr", "als"):
            argv = ["query", "--graph", path, "--alg", alg, "--alpha", %r, "--json"]
            for lab in labels:
                argv += ["--q", lab]
            with contextlib.redirect_stdout(io.StringIO()) as text:
                code = main(argv)
            payload = json.loads(text.getvalue())
            # as text, so that the order of the keys is compared too
            outputs.append([code, json.dumps({key: value for key, value in payload.items()
                                              if key not in ("timings", "cache")})])
    out.append([answers, outputs])
print(json.dumps(out))
""" % (ALPHA, CLI_PICKS, repr(ALPHA))


def answers(src: Path, jobs: list, cache: Path) -> list:
    proc = subprocess.run([sys.executable, "-c", CHILD, str(src)], input=json.dumps(jobs),
                          capture_output=True, text=True,
                          env=dict(os.environ, XDG_CACHE_HOME=str(cache)))
    if proc.returncode != 0:
        raise SystemExit(f"error: the child importing {src} exited {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("other_src", type=Path, help="the src/ directory of the other checkout")
    ap.add_argument("--workload", nargs="+", choices=sorted(inputs.WORKLOADS),
                    default=sorted(inputs.WORKLOADS))
    ap.add_argument("--seed", nargs="+", type=int, default=[1])
    args = ap.parse_args()
    if not (args.other_src / "tpcore" / "__init__.py").is_file():
        ap.error(f"{args.other_src} holds no tpcore package")

    runs = [(name, seed) for name in args.workload for seed in args.seed]
    with tempfile.TemporaryDirectory() as tmp:
        jobs = []
        for name, seed in runs:
            workload = inputs.WORKLOADS[name]
            triples = inputs.generate(workload.shape, seed)
            path = Path(tmp) / f"{name}-{seed}.txt"
            path.write_text(inputs.format_triples(triples), encoding="utf-8")
            jobs.append([str(path), inputs.pick_queries(workload, triples, seed)])
            del triples
        mine = answers(ROOT / "src", jobs, Path(tmp) / "cache-this")
        theirs = answers(args.other_src, jobs, Path(tmp) / "cache-other")
    differing = 0
    for (name, seed), (_, picks), (a, a_cli), (b, b_cli) in zip(runs, jobs, mine, theirs):
        diff = [labels for labels, x, y in zip(picks, a, b) if x != y]
        cli_picks = [(labels, alg) for labels in picks[:CLI_PICKS] for alg in ("egr", "als")]
        cli_diff = [pick for pick, x, y in zip(cli_picks, a_cli, b_cli) if x != y]
        differing += len(diff) + len(cli_diff)
        print(f"{name} seed {seed}: {len(diff)} of {len(picks)} answers differ"
              + (f", first {diff[0]}" if diff else "")
              + f"; {len(cli_diff)} of {len(cli_picks)} CLI outputs differ"
              + (f", first {cli_diff[0]}" if cli_diff else ""))
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
