"""Temporal community search via time-respecting personalized PageRank.

Each public name is imported from its module on first access (PEP 562), so
that ``import tpcore.cli`` loads only the modules a command runs.
"""

import importlib

# the module that defines each public name
_HOME = {name: module for module, names in {
    "community": "CommunityResult brute_force_search exact_community exact_community_multi "
                 "min_proximity_degree proximity_degree",
    "errors": "CommunitySearchError EmptyGraph MalformedLine NotConverged "
              "QueriesDisconnected QueryNotInSet TooLarge UnknownLabel",
    "graph": "TemporalGraph load_edge_stream parse_edge_stream",
    "local": "ApproxResult expand local_search local_search_multi reduce_stage",
    "metrics": "MetricReport community_report",
    "pagerank": "PushState QueryContext ScoreVector drain power_iteration_pagerank propagate "
                "temporal_pagerank temporal_pagerank_multi",
    "synth": "SynthConfig synth_graph synth_triples",
}.items() for name in names.split()}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value  # later lookups find it without this hook
    return value


def __dir__() -> list[str]:
    return sorted(globals().keys() | _HOME.keys())
