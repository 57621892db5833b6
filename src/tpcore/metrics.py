"""Community quality metrics: temporal density, temporal conductance, min degree.

Degenerate denominators (singleton sets, no internal edges, empty cut) all map
to 0, the neutral reading of each formula.
"""
from __future__ import annotations

from typing import Iterable, NamedTuple

from .community import min_proximity_degree
from .graph import TemporalGraph


class _Incidence(NamedTuple):
    internal: int     # temporal edges with both endpoints in the set
    cut: int          # temporal edges with exactly one endpoint in the set
    volume: int       # temporal-edge incidences of the set's vertices
    times: set[int]   # distinct timestamps of the internal edges


def _incidence(graph: TemporalGraph, members: set[int]) -> _Incidence:
    """Count the set's edges over its own out-states, in O(volume) time."""
    doubled = cut = volume = 0
    times: set[int] = set()
    state_tail = graph.state_tail
    for u in members:
        states = graph.inc_states[u]
        volume += len(states)
        for s, t in zip(states, graph.inc_times[u]):
            if state_tail[s] in members:
                doubled += 1
                times.add(t)
            else:
                cut += 1
    return _Incidence(doubled // 2, cut, volume, times)


def _density(size: int, inc: _Incidence) -> float:
    """2 |internal edges| / (|S| (|S|-1) |distinct internal times|), in [0, 1]."""
    if size <= 1 or inc.internal == 0:
        return 0.0
    return 2.0 * inc.internal / (size * (size - 1) * len(inc.times))


def _conductance(graph: TemporalGraph, inc: _Incidence) -> float:
    """Cut size over the smaller temporal volume (edge incidences), in [0, 1]."""
    if inc.cut == 0:
        return 0.0
    return inc.cut / min(inc.volume, 2 * graph.m - inc.volume)


class MetricReport(NamedTuple):
    td: float
    tc: float
    md: float
    size: int
    internal_times: int

    def to_dict(self) -> dict:
        return self._asdict()


def community_report(graph: TemporalGraph, scores, subset: Iterable[int]) -> MetricReport:
    members = set(subset)
    inc = _incidence(graph, members)
    return MetricReport(
        td=_density(len(members), inc),
        tc=_conductance(graph, inc),
        md=min_proximity_degree(scores, graph, members),
        size=len(members),
        internal_times=len(inc.times),
    )
