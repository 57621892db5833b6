import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

import tpcore
from tpcore import TemporalGraph
from tpcore.cli import BENCH_HEADER, _cached_graph, main

TRI_TEXT = "q a 1\nq b 1\na b 2\n"
CHAIN3_TEXT = "q a 1\na b 2\n"

RESPONSE_SCHEMA = {
    "type": "object",
    "required": ["algorithm", "query", "alpha", "community", "beta",
                 "metrics", "timings", "graph", "cache", "stats"],
    "properties": {
        "algorithm": {"enum": ["egr", "als", "baseline", "brute"]},
        "query": {"type": "array", "items": {"type": "string"}},
        "alpha": {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1},
        "community": {"type": "array", "items": {"type": "string"}},
        "beta": {"type": "number", "minimum": 0},
        "epsilon": {"type": "number", "minimum": 1},
        "fallback": {"type": "boolean"},
        "explored_fraction": {"type": "number", "minimum": 0, "maximum": 1},
        "k": {"type": "integer", "minimum": 0},
        "metrics": {
            "type": "object",
            "required": ["td", "tc", "md", "size", "internal_times"],
            "properties": {"td": {"type": "number"}, "tc": {"type": "number"},
                           "md": {"type": "number"}, "size": {"type": "integer"},
                           "internal_times": {"type": "integer"}},
        },
        "timings": {
            "type": "object",
            "required": ["load_s", "score_s", "search_s", "metrics_s"],
            "additionalProperties": {"type": "number", "minimum": 0},
        },
        "graph": {"type": "object",
                  "required": ["n", "m", "m_static", "t_max_occurrence"]},
        "cache": {"enum": ["hit", "miss", "off"],
                  "description": "the graph was restored from the cache, built and "
                                 "stored, or built with the cache unusable"},
        "stats": {
            "type": "object",
            "properties": {"bound": {"type": "number", "minimum": 0},
                           "bound_set": {"type": "integer", "minimum": 1,
                                         "description": "size of the flood prefix whose "
                                                        "peel gave the bound"},
                           "region": {"type": "integer", "minimum": 1,
                                      "description": "size of the flood's final universe"},
                           "explored": {"type": "integer", "minimum": 1},
                           "epsilon_trace": {"type": "array",
                                             "items": {"type": "number", "minimum": 1}},
                           "pushes": {"type": "integer", "minimum": 0,
                                      "description": "state pushes of the expansion"},
                           "repushes": {"type": "integer", "minimum": 0,
                                        "description": "those of the pushes that moved "
                                                       "mass stranded on an expanded "
                                                       "vertex"},
                           "residue": {"type": "number", "minimum": 0,
                                       "description": "residue pending when the "
                                                      "expansion stopped"},
                           "estimate": {"type": "number", "minimum": 0,
                                        "description": "the expansion's final "
                                                       "minimum-degree estimate"},
                           "universe": {"type": "integer", "minimum": 1,
                                        "description": "size of the universe of the "
                                                       "reduce peel giving the answer"}},
            "additionalProperties": False,
        },
    },
    # an als response reports its expansion's work
    "if": {"properties": {"algorithm": {"const": "als"}}},
    "then": {"properties": {"stats": {"required": ["explored", "epsilon_trace",
                                                   "pushes", "repushes", "residue",
                                                   "estimate", "universe"]}}},
}


@pytest.fixture
def tri_file(tmp_path):
    path = tmp_path / "tri.txt"
    path.write_text(TRI_TEXT)
    return str(path)


@pytest.fixture
def chain3_file(tmp_path):
    path = tmp_path / "chain3.txt"
    path.write_text(CHAIN3_TEXT)
    return str(path)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


# ---- query -----------------------------------------------------------------------

# run in a fresh interpreter, since this one has numpy loaded already
NO_NUMPY_QUERY = """
import sys
import tpcore.cli
assert "numpy" not in sys.modules, "importing tpcore.cli imported numpy"
code = tpcore.cli.main(["query", "--graph", sys.argv[1], "--q", "q", "--alg", sys.argv[2],
                        "--json"])
assert "numpy" not in sys.modules, "the query imported numpy"
sys.exit(code)
"""


@pytest.mark.parametrize("alg", ["egr", "als"])
def test_query_never_imports_numpy(tri_file, alg):
    src = str(Path(tpcore.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-c", NO_NUMPY_QUERY, tri_file, alg],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["community"] == ["a", "b", "q"]


def test_query_egr_json(capsys, tri_file):
    code, out, _ = run(capsys, ["query", "--graph", tri_file, "--q", "q",
                                "--alg", "egr", "--alpha", "0.2", "--json"])
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, RESPONSE_SCHEMA)
    assert payload["community"] == ["a", "b", "q"]
    assert payload["beta"] == pytest.approx(0.5, abs=1e-9)


def test_query_als_json(capsys, tri_file):
    code, out, _ = run(capsys, ["query", "--graph", tri_file, "--q", "q",
                                "--alg", "als", "--json"])
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, RESPONSE_SCHEMA)
    assert payload["community"] == ["a", "b", "q"]
    assert payload["epsilon"] == pytest.approx(2.0)
    assert payload["fallback"] is False
    assert payload["explored_fraction"] == 1.0


@pytest.mark.parametrize("alg", ["egr", "als", "baseline", "brute"])
def test_query_times_metrics_for_every_algorithm(capsys, tri_file, alg):
    code, out, _ = run(capsys, ["query", "--graph", tri_file, "--q", "q",
                                "--alg", alg, "--k", "1", "--json"])
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, RESPONSE_SCHEMA)
    assert set(payload["timings"]) == {"load_s", "score_s", "search_s", "metrics_s"}


@pytest.mark.parametrize("alg, keys", [
    ("egr", ["bound", "bound_set", "region"]),
    ("als", ["explored", "epsilon_trace", "pushes", "repushes", "residue", "estimate",
             "universe"]),
    ("baseline", []),
    ("brute", []),
])
def test_query_json_stats_follow_the_existing_keys(capsys, tri_file, alg, keys):
    code, out, _ = run(capsys, ["query", "--graph", tri_file, "--q", "q",
                                "--alg", alg, "--k", "1", "--json"])
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, RESPONSE_SCHEMA)
    extra = {"als": ["epsilon", "fallback", "explored_fraction"], "baseline": ["k"]}
    assert list(payload) == (["algorithm", "query", "alpha", "graph", "cache", "beta"]
                             + extra.get(alg, [])
                             + ["community", "metrics", "timings", "stats"])
    assert list(payload["stats"]) == keys


def test_query_brute_json(capsys, tri_file):
    code, out, _ = run(capsys, ["query", "--graph", tri_file, "--q", "q",
                                "--alg", "brute", "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["community"] == ["a", "b", "q"]


def test_query_brute_times_its_score_pass(capsys, tri_file):
    code, out, _ = run(capsys, ["query", "--graph", tri_file, "--q", "q",
                                "--alg", "brute", "--json"])
    assert code == 0
    assert json.loads(out)["timings"]["score_s"] > 0.0


def test_query_multi(capsys, tri_file):
    code, out, _ = run(capsys, ["query", "--graph", tri_file, "--q", "q",
                                "--q", "a", "--alg", "egr", "--json"])
    assert code == 0
    assert json.loads(out)["community"] == ["a", "b", "q"]


def test_query_baseline_nocore_exit4(capsys, tri_file):
    code, out, err = run(capsys, ["query", "--graph", tri_file, "--q", "q",
                                  "--alg", "baseline", "--k", "3", "--json"])
    assert code == 4
    assert "NoCore" in err
    assert json.loads(out)["error"] == "NoCore"


def test_query_baseline_takes_a_repeated_query_once(capsys, tri_file):
    args = ["query", "--graph", tri_file, "--alg", "baseline", "--k", "1", "--json"]
    code, once, _ = run(capsys, args + ["--q", "q"])
    assert code == 0
    code, twice, _ = run(capsys, args + ["--q", "q", "--q", "q"])
    assert code == 0
    assert json.loads(twice)["community"] == json.loads(once)["community"]
    code, _, err = run(capsys, args + ["--q", "q", "--q", "a"])
    assert code == 2
    assert "single query vertex" in err


def test_query_baseline_requires_k(capsys, tri_file):
    code, _, err = run(capsys, ["query", "--graph", tri_file, "--q", "q",
                                "--alg", "baseline"])
    assert code == 2
    assert "requires --k" in err


@pytest.mark.parametrize("alg", ["egr", "als", "brute"])
def test_query_split_query_set_exit4(capsys, tmp_path, alg):
    path = tmp_path / "split.txt"
    path.write_text("a b 1\nb c 2\nx y 1\ny z 3\n")
    code, out, err = run(capsys, ["query", "--graph", str(path), "--q", "a", "--q", "x",
                                  "--alg", alg, "--json"])
    assert code == 4
    assert json.loads(out)["error"] == "QueriesDisconnected"
    assert "Traceback" not in err


def test_query_unknown_label_exit3(capsys, tri_file):
    code, _, err = run(capsys, ["query", "--graph", tri_file, "--q", "zebra"])
    assert code == 3
    assert "zebra" in err


def test_query_malformed_file_exit2(capsys, tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("q a\n")
    code, _, err = run(capsys, ["query", "--graph", str(bad), "--q", "q"])
    assert code == 2
    assert "MalformedLine" in err


def test_query_non_utf8_file_exit2_json(capsys, tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"q a 1\n\xffb c 2\n")
    code, out, err = run(capsys, ["query", "--graph", str(bad), "--q", "q", "--json"])
    assert code == 2
    payload = json.loads(out)
    assert set(payload) == {"error", "message"}
    assert payload["error"] == "MalformedLine"
    assert payload["message"].startswith("line 2: not valid UTF-8")
    assert "Traceback" not in err


def test_query_bad_alpha_exit2(capsys, tri_file):
    code, _, _ = run(capsys, ["query", "--graph", tri_file, "--q", "q",
                              "--alpha", "1.5"])
    assert code == 2


def test_text_and_json_report_identical_numbers(capsys, tri_file):
    args = ["query", "--graph", tri_file, "--q", "q", "--alg", "egr"]
    code, text_out, _ = run(capsys, args)
    assert code == 0
    code, json_out, _ = run(capsys, args + ["--json"])
    payload = json.loads(json_out)
    assert f"beta: {payload['beta']!r}" in text_out
    assert f"td={payload['metrics']['td']!r}" in text_out


# ---- graph cache ------------------------------------------------------------------

def cached_query(capsys, path, *extra):
    code, out, err = run(capsys, ["query", "--graph", str(path), "--q", "q", "--json", *extra])
    payload = json.loads(out)
    if code == 0:
        jsonschema.validate(payload, RESPONSE_SCHEMA)
    return code, payload, err


def answer(payload):
    """A response without the keys that may differ between a hit and a miss."""
    return {k: v for k, v in payload.items() if k not in ("timings", "cache")}


def entries(cache_dir):
    return sorted((cache_dir / "tpcore").glob("*")) if (cache_dir / "tpcore").exists() else []


@pytest.mark.parametrize("alg", ["egr", "als", "baseline", "brute"])
def test_query_restores_the_built_graph_on_the_next_run(capsys, tmp_path, monkeypatch, alg):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    path = tmp_path / "g.txt"
    path.write_text(TRI_TEXT + "a q 1\nb b 4\n")  # a duplicate and a self-loop
    first = cached_query(capsys, path, "--alg", alg, "--k", "1")
    second = cached_query(capsys, path, "--alg", alg, "--k", "1")
    assert (first[1]["cache"], second[1]["cache"]) == ("miss", "hit")
    assert answer(first[1]) == answer(second[1])
    assert first[2] == second[2] and "dropped 1 duplicate and 1 self-loop" in second[2]
    assert len(entries(tmp_path / "cache")) == 1


def test_query_rebuilds_after_the_file_changes(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    path = tmp_path / "g.txt"
    path.write_text(TRI_TEXT)
    before = cached_query(capsys, path)[1]
    path.write_text(TRI_TEXT.replace("a b 2", "a c 2"))  # one byte edited
    after = cached_query(capsys, path)[1]
    assert after["cache"] == "miss"
    assert before["community"] == ["a", "b", "q"] and after["community"] == ["a", "c", "q"]
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "fresh"))
    assert answer(cached_query(capsys, path)[1]) == answer(after)


@pytest.mark.parametrize("damage", [lambda b: b[:len(b) // 2], lambda b: b"garbage",
                                    lambda b: b""])
def test_query_rebuilds_a_damaged_entry(capsys, tmp_path, monkeypatch, damage):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    path = tmp_path / "g.txt"
    path.write_text(TRI_TEXT)
    first = cached_query(capsys, path)[1]
    [entry] = entries(tmp_path / "cache")
    entry.write_bytes(damage(entry.read_bytes()))
    rebuilt = cached_query(capsys, path)[1]
    assert rebuilt["cache"] == "miss" and answer(rebuilt) == answer(first)
    assert cached_query(capsys, path)[1]["cache"] == "hit"
    assert entries(tmp_path / "cache") == [entry]


def test_query_runs_without_a_usable_cache(capsys, tmp_path, monkeypatch, tri_file):
    blocker = tmp_path / "not-a-directory"
    blocker.write_text("")
    monkeypatch.setenv("XDG_CACHE_HOME", str(blocker))
    code, payload, _ = cached_query(capsys, tri_file)
    assert code == 0 and payload["cache"] == "off"
    assert payload["community"] == ["a", "b", "q"]
    # an uncached run computes its own denominators and answers as a filled entry does
    path = tmp_path / "g.txt"
    path.write_text(CHAIN3_TEXT + TRI_TEXT + "b c 3\nq c 4\nc a 5\n")
    for alg in ("egr", "als"):
        monkeypatch.setenv("XDG_CACHE_HOME", str(blocker))
        off = cached_query(capsys, path, "--alg", alg)[1]
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
        cached_query(capsys, path, "--alg", alg)
        hit = cached_query(capsys, path, "--alg", alg)[1]
        assert (off["cache"], hit["cache"]) == ("off", "hit") and answer(off) == answer(hit)


def test_only_a_stored_entry_fills_the_denominators(tmp_path, monkeypatch):
    """A miss fills every denominator before it stores the entry, a hit
    restores them, and a run that cannot store an entry computes none."""
    data = (CHAIN3_TEXT + TRI_TEXT + "b c 3\nq c 4\nq a 4\n").encode()
    fresh = TemporalGraph.from_triples(line.split() for line in data.decode().splitlines())
    fresh.fill_denominators()
    assert any(fresh.state_denom)
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    for status in ("miss", "hit"):
        graph, cache = _cached_graph(data)
        assert cache == status and graph.state_denom == fresh.state_denom
    blocker = tmp_path / "not-a-directory"
    blocker.write_text("")
    monkeypatch.setenv("XDG_CACHE_HOME", str(blocker))
    graph, cache = _cached_graph(data)
    assert cache == "off" and not any(graph.state_denom)


@pytest.mark.parametrize("content", [b"q a\n", b"q a 1\n\xffb c 2\n", b""])
def test_query_caches_nothing_for_bad_input(capsys, tmp_path, monkeypatch, content):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    bad = tmp_path / "bad.txt"
    bad.write_bytes(content)
    code, payload, _ = cached_query(capsys, bad)
    assert code == 2 and set(payload) == {"error", "message"}
    assert entries(tmp_path / "cache") == []


# ---- gen --------------------------------------------------------------------------

def test_gen_deterministic_and_clean(capsys, tmp_path):
    a, b = str(tmp_path / "a.txt"), str(tmp_path / "b.txt")
    for out in (a, b):
        code, _, _ = run(capsys, ["gen", "--n", "100", "--avg-deg", "4",
                                  "--tpe", "2", "--horizon", "50",
                                  "--seed", "7", "--out", out])
        assert code == 0
    assert Path(a).read_bytes() == Path(b).read_bytes()
    from tpcore import load_edge_stream
    g = load_edge_stream(a)
    assert g.report.duplicates == 0 and g.report.self_loops == 0


def test_gen_edge_count_expectation(capsys, tmp_path):
    n, avg_deg, tpe = 100, 4, 2
    expected = n * avg_deg / 2 * tpe
    for seed in range(10):
        out = str(tmp_path / f"g{seed}.txt")
        code, _, _ = run(capsys, ["gen", "--n", str(n), "--avg-deg", str(avg_deg),
                                  "--tpe", str(tpe), "--horizon", "50",
                                  "--seed", str(seed), "--out", out])
        assert code == 0
        from tpcore import load_edge_stream
        m = load_edge_stream(out).m
        assert abs(m - expected) <= 0.2 * expected


def test_gen_unwritable_out_exit2(capsys, tmp_path):
    code, _, err = run(capsys, ["gen", "--n", "10", "--avg-deg", "3", "--tpe", "1",
                                "--horizon", "5", "--out", str(tmp_path / "no" / "g.txt")])
    assert code == 2
    assert "FileNotFoundError" in err


def test_gen_invalid_params_exit2(capsys):
    code, _, _ = run(capsys, ["gen", "--n", "10", "--avg-deg", "3",
                              "--tpe", "5", "--horizon", "3"])
    assert code == 2


# ---- stats ------------------------------------------------------------------------

def test_stats_tri(capsys, tri_file):
    code, out, _ = run(capsys, ["stats", "--graph", tri_file, "--json"])
    assert code == 0
    payload = json.loads(out)
    assert (payload["n"], payload["m"], payload["m_static"]) == (3, 3, 3)
    assert payload["t_max_occurrence"] == 2
    assert (payload["t_min"], payload["t_max"]) == (1, 2)


def test_stats_chain3(capsys, chain3_file):
    code, out, _ = run(capsys, ["stats", "--graph", chain3_file, "--json"])
    payload = json.loads(out)
    assert (payload["n"], payload["m"], payload["m_static"]) == (3, 2, 2)


def test_stats_empty_exit2(capsys, tmp_path):
    empty = tmp_path / "empty.txt"
    empty.write_text("")
    code, _, err = run(capsys, ["stats", "--graph", str(empty)])
    assert code == 2
    assert "EmptyGraph" in err


def test_stats_non_utf8_file_exit2(capsys, tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"\xffq a 1\n")
    code, _, err = run(capsys, ["stats", "--graph", str(bad)])
    assert code == 2
    assert "MalformedLine" in err and "line 1: not valid UTF-8" in err


# ---- bench -------------------------------------------------------------------------

def parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0] == BENCH_HEADER
    return [dict(zip(rows[0], r)) for r in rows[1:]]


def test_bench_chain3(capsys, chain3_file):
    code, out, err = run(capsys, ["bench", "--graph", chain3_file,
                                  "--samples", "50", "--algs", "egr,als",
                                  "--seed", "1"])
    assert code == 0
    assert "clamping samples" in err
    rows = parse_csv(out)
    assert len(rows) == 3
    for row in rows:
        eps = float(row["als_epsilon"])
        ratio = float(row["als_true_ratio"])
        assert 1.0 - 1e-9 <= ratio <= eps + 1e-9
        assert 0.0 <= float(row["precision"]) <= 1.0
        assert 0.0 <= float(row["recall"]) <= 1.0


def test_bench_deterministic(capsys, chain3_file):
    """Same seed, same rows; wall-clock columns are measurements, not outputs."""
    argv = ["bench", "--graph", chain3_file, "--samples", "2", "--seed", "9"]
    code, out1, _ = run(capsys, argv)
    assert code == 0
    _, out2, _ = run(capsys, argv)
    timing_cols = {"egr_s", "als_s"}
    strip = lambda text: [{k: v for k, v in row.items() if k not in timing_cols}
                          for row in parse_csv(text)]
    assert strip(out1) == strip(out2)


def test_bench_single_algorithm(capsys, chain3_file):
    code, out, _ = run(capsys, ["bench", "--graph", chain3_file,
                                "--samples", "1", "--algs", "egr"])
    assert code == 0
    row = parse_csv(out)[0]
    assert row["egr_beta"] != ""
    assert row["als_epsilon"] == "" and row["als_true_ratio"] == ""


def test_bench_stratified(capsys, chain3_file):
    code, out, _ = run(capsys, ["bench", "--graph", chain3_file,
                                "--samples", "2", "--stratified"])
    assert code == 0
    assert len(parse_csv(out)) == 2


def test_bench_bad_algs_exit2(capsys, chain3_file):
    code, _, _ = run(capsys, ["bench", "--graph", chain3_file, "--algs", "magic"])
    assert code == 2


def test_bench_unwritable_out_exit2_before_any_query(capsys, chain3_file, tmp_path,
                                                      monkeypatch):
    import tpcore.cli
    monkeypatch.setattr(tpcore.cli, "exact_community", None)  # a query would crash
    code, out, err = run(capsys, ["bench", "--graph", chain3_file, "--samples", "1",
                                  "--out", str(tmp_path / "no" / "b.csv")])
    assert code == 2
    assert "FileNotFoundError" in err and out == ""


def test_bench_failing_query_leaves_existing_out_as_it_was(chain3_file, tmp_path, monkeypatch):
    import tpcore.cli

    def broken(graph, ctx):
        raise RuntimeError("interrupted")

    monkeypatch.setattr(tpcore.cli, "exact_community", broken)
    out = tmp_path / "b.csv"
    out.write_text("previous run\n")
    with pytest.raises(RuntimeError):
        main(["bench", "--graph", chain3_file, "--samples", "1", "--out", str(out)])
    assert out.read_text() == "previous run\n"
