import csv
import io
import json

import jsonschema
import pytest

from tpcore.cli import BENCH_HEADER, main

TRI_TEXT = "q a 1\nq b 1\na b 2\n"
CHAIN3_TEXT = "q a 1\na b 2\n"

RESPONSE_SCHEMA = {
    "type": "object",
    "required": ["algorithm", "query", "alpha", "community", "beta",
                 "metrics", "timings", "graph"],
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
    },
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
    assert payload["fallback"] is True
    assert payload["explored_fraction"] == 1.0


@pytest.mark.parametrize("alg", ["egr", "als", "baseline", "brute"])
def test_query_times_metrics_for_every_algorithm(capsys, tri_file, alg):
    code, out, _ = run(capsys, ["query", "--graph", tri_file, "--q", "q",
                                "--alg", alg, "--k", "1", "--json"])
    assert code == 0
    payload = json.loads(out)
    jsonschema.validate(payload, RESPONSE_SCHEMA)
    assert set(payload["timings"]) == {"load_s", "score_s", "search_s", "metrics_s"}


def test_query_brute_json(capsys, tri_file):
    code, out, _ = run(capsys, ["query", "--graph", tri_file, "--q", "q",
                                "--alg", "brute", "--json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["community"] == ["a", "b", "q"]


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


def test_query_baseline_requires_k(capsys, tri_file):
    code, _, err = run(capsys, ["query", "--graph", tri_file, "--q", "q",
                                "--alg", "baseline"])
    assert code == 2
    assert "requires --k" in err


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


# ---- gen --------------------------------------------------------------------------

def test_gen_deterministic_and_clean(capsys, tmp_path):
    a, b = str(tmp_path / "a.txt"), str(tmp_path / "b.txt")
    for out in (a, b):
        code, _, _ = run(capsys, ["gen", "--n", "100", "--avg-deg", "4",
                                  "--tpe", "2", "--horizon", "50",
                                  "--seed", "7", "--out", out])
        assert code == 0
    assert open(a, "rb").read() == open(b, "rb").read()
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
