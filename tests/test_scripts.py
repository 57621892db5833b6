"""The experiment scripts still run against the library, on tiny inputs, and
the library keeps every name the benchmark harness calls."""
import importlib.util
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("argv", [
    ["scripts/scaling_experiment.py", "--base-n", "200", "--doublings", "1",
     "--queries", "3", "--repeats", "1"],
    ["scripts/approximation_quality.py", "--graphs", "5", "--n-max", "20", "--m-max", "40"],
])
def test_script_runs(argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, *argv], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_record_assembles_perfbench_lines():
    """The recorder's file layout, from a canned perfbench output; perfbench itself
    does not run here."""
    rec = load_script("bench_record")
    line = {"correct": True, "attempted": 93, "failed": 0,
            "metrics": {"egr_query_s": {"value": 0.0116, "unit": "s"}}}
    stdout = "progress goes to stderr, but tolerate noise\n" + json.dumps(line) + "\n\n"
    parsed = rec.last_json_line(stdout)
    assert parsed == line
    record = rec.assemble("x", "abc123", {"low-occ": {"trace0": parsed, "trace1": parsed}})
    assert list(record) == ["label", "commit", "cpu_count", "python", "seed", "seconds",
                            "src_lines", "workloads"]
    assert record["commit"] == "abc123" and record["cpu_count"] == os.cpu_count()
    assert record["python"] == platform.python_version()
    assert (record["seed"], record["seconds"]) == (1, 10.0)
    modules = record["src_lines"]["modules"]
    assert "graph.py" in modules and "__init__.py" in modules
    package = ROOT / "src" / "tpcore"
    assert modules == {p.name: len(p.read_text().splitlines()) for p in package.glob("*.py")}
    assert record["src_lines"]["total"] == sum(modules.values())
    assert record["workloads"]["low-occ"]["trace0"]["metrics"]["egr_query_s"]["value"] == 0.0116
    assert json.loads(json.dumps(record)) == record
    with pytest.raises(ValueError):
        rec.last_json_line("\n")


def test_names_perfbench_calls_still_exist(tmp_path):
    """perfbench/ cannot change with the library, so each name it calls or
    reads (ROADMAP, "What perfbench pins") must stay, with the same shape."""
    import numpy as np

    import tpcore
    from tpcore.cli import main

    path = tmp_path / "g.txt"
    path.write_text("q a 1\nq b 1\na b 2\n")
    g = tpcore.load_edge_stream(str(path))
    assert (g.n, g.m, g.m_static, g.t_max_occurrence) == (3, 3, 3, 2)
    assert tpcore.TemporalGraph.from_triples([("q", "a", 1)]).labels == ["q", "a"]
    ctx = tpcore.QueryContext(tuple(g.index[lab] for lab in ("q", "a")), 0.2)
    egr = tpcore.exact_community_multi(g, ctx)
    als = tpcore.local_search_multi(g, ctx)
    scores = tpcore.temporal_pagerank_multi(g, ctx)
    assert isinstance(scores.values, np.ndarray)
    assert (scores.values == egr.scores.values).all()
    expanded, state = tpcore.expand(g, ctx)
    reduced = tpcore.reduce_stage(expanded, state, g, ctx)
    assert (reduced.members, reduced.epsilon) == (als.members, als.epsilon)
    for res in (egr, als):
        assert res.timings["search_s"] >= 0.0 and res.labels(g) == ["a", "b", "q"]
    assert egr.beta > 0.0 and als.beta_lower > 0.0 and als.fallback in (False, True)
    assert len(als.explored) == g.n and len(als.epsilon_trace) == 1
    report = tpcore.community_report(g, egr.scores, egr.members)
    assert (report.size, report.md) == (len(egr.members), egr.beta)
    assert callable(main)  # perfbench runs it in a child process
    # the self-test's oracles
    assert tpcore.power_iteration_pagerank(g, ctx).values.shape == (g.n,)
    assert tpcore.brute_force_search(g, ctx).members == egr.members


def test_compare_answers_finds_none_differing_against_its_own_checkout():
    proc = subprocess.run([sys.executable, "scripts/compare_answers.py", str(ROOT / "src"),
                           "--workload", "query-sets", "--seed", "1"],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == ("query-sets seed 1: 0 of 72 answers differ; "
                           "0 of 8 CLI outputs differ\n")


def test_compare_answers_reports_a_cli_that_prints_one_more_key(tmp_path):
    """A checkout whose library answers agree but whose ``query --json`` adds a
    key differs in every command-line output, and the script exits 1."""
    src = tmp_path / "src"
    shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
    cli = src / "tpcore" / "cli.py"
    text = cli.read_text()
    line = '    response["stats"] = result.stats\n'
    assert text.count(line) == 1
    cli.write_text(text.replace(line, line + '    response["extra"] = 1\n'))
    proc = subprocess.run([sys.executable, "scripts/compare_answers.py", str(src),
                           "--workload", "query-sets", "--seed", "1"],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 1, proc.stderr
    assert proc.stdout.startswith("query-sets seed 1: 0 of 72 answers differ; "
                                  "8 of 8 CLI outputs differ, first ")
