"""The package's public names and its small record types."""
import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tpcore
from tpcore import QueryContext, SynthConfig
from tpcore.graph import LoadReport

PUBLIC = [
    "ApproxResult", "CommunityResult", "CommunitySearchError", "EmptyGraph",
    "MalformedLine", "MetricReport", "NotConverged",
    "PushState", "QueriesDisconnected", "QueryContext",
    "QueryNotInSet", "ScoreVector", "SynthConfig", "TemporalGraph",
    "TooLarge", "UnknownLabel", "brute_force_search",
    "community_report", "drain", "exact_community",
    "exact_community_multi", "expand",
    "load_edge_stream", "local_search", "local_search_multi",
    "min_proximity_degree", "parse_edge_stream", "power_iteration_pagerank",
    "propagate", "proximity_degree", "reduce_stage", "synth_graph",
    "synth_triples", "temporal_pagerank", "temporal_pagerank_multi",
]


def fresh_interpreter(script: str) -> subprocess.CompletedProcess:
    src = str(Path(tpcore.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    return subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=60)


def test_every_public_name_resolves():
    assert tpcore.__all__ == PUBLIC
    for name in PUBLIC:
        value = getattr(tpcore, name)
        assert value.__name__ == name or value.__name__ + "_multi" == name
        assert value.__module__.startswith("tpcore.")
    namespace: dict = {}
    exec("from tpcore import *", namespace)
    assert {name: namespace[name] for name in PUBLIC} == {
        name: getattr(tpcore, name) for name in PUBLIC}


def test_dir_lists_the_public_names_and_unknown_names_raise():
    assert set(PUBLIC) <= set(dir(tpcore))
    with pytest.raises(AttributeError, match="no_such_name"):
        tpcore.no_such_name
    assert not hasattr(tpcore, "_peel")  # private names of a module stay there


def test_importing_the_package_loads_no_module_of_it():
    proc = fresh_interpreter(
        "import sys\nimport tpcore\n"
        "print(sorted(m for m in sys.modules if m.startswith('tpcore.')))\n"
        "tpcore.QueryContext\n"
        "print('tpcore.pagerank' in sys.modules, 'tpcore.local' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["[]", "True False"]


def test_query_context_is_an_immutable_value():
    ctx = QueryContext((3, 1, 3, 2), 0.3)
    assert ctx.queries == (3, 1, 2) and ctx.alpha == 0.3
    assert ctx == QueryContext((3, 1, 2), alpha=0.3) == QueryContext([3, 1, 2], 0.3)
    assert hash(ctx) == hash(QueryContext((3, 1, 2), 0.3))
    assert ctx != QueryContext((1, 3, 2), 0.3) and ctx != QueryContext((3, 1, 2), 0.2)
    assert len({ctx, QueryContext((3, 1, 2), 0.3), QueryContext.single(3)}) == 2
    assert QueryContext.single(5) == QueryContext((5,)) == QueryContext(queries=(5,))
    with pytest.raises(AttributeError):
        ctx.queries = (4,)
    with pytest.raises(AttributeError):
        ctx.alpha = 0.5
    with pytest.raises(AttributeError):
        ctx.extra = 1
    assert ctx == QueryContext((3, 1, 2), 0.3)
    # the tuple's own constructors check and deduplicate as the class does
    assert ctx._replace(queries=(2, 2, 1)) == QueryContext((2, 1), 0.3)
    with pytest.raises(ValueError):
        ctx._replace(alpha=1.5)
    with pytest.raises(ValueError):
        QueryContext._make([(), 0.2])


def test_synth_config_is_immutable():
    cfg = SynthConfig(10, 2.0, 1, 5, 7)
    assert cfg == SynthConfig(n=10, avg_deg=2.0, timestamps_per_edge=1, horizon=5, seed=7)
    for name in ("n", "avg_deg", "timestamps_per_edge", "horizon", "seed"):
        with pytest.raises(AttributeError):
            setattr(cfg, name, 1)
    assert cfg.n == 10 and cfg.seed == 7


def test_load_report_compares_by_value():
    assert LoadReport() == LoadReport(0, 0) == LoadReport(duplicates=0, self_loops=0)
    assert LoadReport(1, 2) != LoadReport(2, 1)
    assert LoadReport(1, 2) != (1, 2)
    assert vars(LoadReport(1, 2)) == {"duplicates": 1, "self_loops": 2}


@pytest.mark.parametrize("solve", [
    tpcore.exact_community, tpcore.local_search, tpcore.brute_force_search],
    ids=["egr", "als", "brute"])
def test_every_solver_returns_the_one_result_record(tri, solve):
    res = solve(tri, QueryContext.single(tri.index["q"]))
    assert isinstance(res, tpcore.CommunityResult)
    assert res.labels(tri) == ["a", "b", "q"] and isinstance(res.beta, float)
    assert set(res.timings) == {"score_s", "search_s"}
    assert isinstance(res.stats, dict)


def test_the_local_result_keeps_its_certificate_names(tri):
    als = tpcore.local_search(tri, QueryContext.single(tri.index["q"]))
    assert isinstance(als, tpcore.ApproxResult) and als.algorithm == "als"
    assert als.beta_lower == als.beta and als.scores is None
    assert als.stats is als.stats  # a stored dict, not one rebuilt per read
    assert list(als.stats) == ["explored", "epsilon_trace", "pushes", "repushes",
                               "residue", "estimate", "universe", "peel_bound"]
    assert als.stats["epsilon_trace"] == list(als.epsilon_trace) == [als.epsilon]


def test_every_import_of_the_package_is_used():
    """Each name a module of the package imports is read somewhere in that module."""
    unused = []
    for path in sorted(Path(tpcore.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                bound = [alias.asname or alias.name.partition(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound = [alias.asname or alias.name for alias in node.names]
            else:
                continue
            unused += [f"{path.name}:{node.lineno} {name}" for name in bound if name not in read]
    assert unused == []
