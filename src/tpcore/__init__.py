"""Temporal community search via time-respecting personalized PageRank."""

from .community import (CommunityResult, brute_force_search, exact_community,
                        exact_community_multi, kcore_baseline,
                        min_proximity_degree, proximity_degree)
from .errors import (CommunitySearchError, EmptyGraph, MalformedLine, NoCore,
                     NotConverged, QueriesDisconnected, QueryNotInSet, TooLarge,
                     UnknownLabel)
from .graph import TemporalGraph, load_edge_stream, parse_edge_stream
from .local import (ApproxResult, expand, local_search, local_search_multi,
                    reduce_stage)
from .metrics import (MetricReport, community_report, temporal_conductance,
                      temporal_density)
from .pagerank import (PushState, QueryContext, ScoreVector, drain,
                       power_iteration_pagerank, propagate, temporal_pagerank,
                       temporal_pagerank_multi)
from .synth import SynthConfig, synth_graph, synth_triples

__all__ = [
    "ApproxResult", "CommunityResult", "CommunitySearchError", "EmptyGraph",
    "MalformedLine", "MetricReport", "NoCore", "NotConverged",
    "PushState", "QueriesDisconnected", "QueryContext",
    "QueryNotInSet", "ScoreVector", "SynthConfig", "TemporalGraph",
    "TooLarge", "UnknownLabel", "brute_force_search",
    "community_report", "drain", "exact_community",
    "exact_community_multi", "expand", "kcore_baseline",
    "load_edge_stream", "local_search", "local_search_multi",
    "min_proximity_degree", "parse_edge_stream", "power_iteration_pagerank",
    "propagate", "proximity_degree", "reduce_stage", "synth_graph",
    "synth_triples", "temporal_conductance", "temporal_density",
    "temporal_pagerank", "temporal_pagerank_multi",
]
