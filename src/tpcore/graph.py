"""Temporal graph model: edge stream, per-vertex incidence, transition denominators.

A temporal graph is an undirected multigraph whose edges carry integer
timestamps; (u, v, t1) and (u, v, t2) are distinct edges when t1 != t2.
Edges are stored as a stream sorted non-decreasing by timestamp.  The random
walk underlying the proximity scores moves over *ordered* temporal edges: the
two directed copies of each stored edge, where state 2e runs from edge_u[e]
to edge_v[e] and state 2e+1 runs back.  From a state the walk may continue
along any edge leaving its tail at a strictly later time; a state with no
such continuation is dangling and is modelled with a probability-1 self-loop.
"""
from __future__ import annotations

import io
from bisect import bisect_right
from dataclasses import dataclass
from typing import Iterable, Sequence, TextIO

import numpy as np

from .errors import EmptyGraph, MalformedLine, QueryNotInSet


@dataclass
class LoadReport:
    """Counts of lines dropped while cleaning an edge stream."""

    duplicates: int = 0
    self_loops: int = 0


class TemporalGraph:
    """Immutable temporal graph with per-vertex time-sorted incidence.

    Construction is single-threaded; after __init__ the only change is the
    memo of transition denominators, whose entries never change once written,
    so the instance is safe to share across concurrent queries.
    """

    def __init__(self, labels: Sequence[str], edges: Sequence[tuple[int, int, int]],
                 report: LoadReport | None = None):
        self.labels: list[str] = list(labels)
        self.index: dict[str, int] = {lab: i for i, lab in enumerate(self.labels)}
        self.n = len(self.labels)
        self.m = len(edges)
        self.edge_list: list[tuple[int, int, int]] = [(int(u), int(v), int(t))
                                                      for u, v, t in edges]
        self.edge_u = np.fromiter((e[0] for e in self.edge_list), dtype=np.int64, count=self.m)
        self.edge_v = np.fromiter((e[1] for e in self.edge_list), dtype=np.int64, count=self.m)
        self.edge_t = np.fromiter((e[2] for e in self.edge_list), dtype=np.int64, count=self.m)
        self.report = report or LoadReport()

        inc: list[list[tuple[int, int, int]]] = [[] for _ in range(self.n)]
        adj: list[set[int]] = [set() for _ in range(self.n)]
        for e, (u, v, t) in enumerate(self.edge_list):
            inc[u].append((t, e, v))
            inc[v].append((t, e, u))
            adj[u].add(v)
            adj[v].add(u)
        # stream order is already time-sorted, so per-vertex lists are too;
        # keep python lists of times for bisect plus parallel arrays
        self.inc_times: list[list[int]] = [[t for t, _, _ in lst] for lst in inc]
        self.inc_edges: list[list[int]] = [[e for _, e, _ in lst] for lst in inc]
        self.adj: list[list[int]] = [sorted(s) for s in adj]
        self.degree = np.fromiter((len(a) for a in self.adj), dtype=np.int64, count=self.n)
        self.m_static = int(self.degree.sum()) // 2
        self.max_time = [ts[-1] if ts else -1 for ts in self.inc_times]
        self.occurrence = np.fromiter((len(set(ts)) for ts in self.inc_times),
                                      dtype=np.int64, count=self.n)
        self.t_max_occurrence = int(self.occurrence.max()) if self.n else 0
        self._denom: dict[tuple[int, int], float] = {}

    # ---- construction ----------------------------------------------------

    @classmethod
    def from_triples(cls, triples: Iterable[tuple[str, str, int]]) -> "TemporalGraph":
        """Build a graph from (u_label, v_label, t) triples.

        Self-loops and exact duplicates (up to endpoint order) are dropped and
        counted; the stream is sorted stably by timestamp; dense vertex ids are
        assigned by first appearance in the sorted stream.
        """
        report = LoadReport()
        seen: set[tuple[str, str, int]] = set()
        cleaned: list[tuple[str, str, int]] = []
        for u, v, t in triples:
            if u == v:
                report.self_loops += 1
                continue
            key = (u, v, t) if u <= v else (v, u, t)
            if key in seen:
                report.duplicates += 1
                continue
            seen.add(key)
            cleaned.append((u, v, t))
        if not cleaned:
            raise EmptyGraph("no temporal edges after cleaning")
        cleaned.sort(key=lambda e: e[2])  # stable: input order preserved within a timestamp
        index: dict[str, int] = {}
        labels: list[str] = []

        def vid(lab: str) -> int:
            if lab not in index:
                index[lab] = len(labels)
                labels.append(lab)
            return index[lab]

        edges = [(vid(u), vid(v), t) for u, v, t in cleaned]
        return cls(labels, edges, report)

    # ---- transitions -----------------------------------------------------

    def vertex_dangling(self, u: int, t: int) -> bool:
        """True iff u has no incident edge strictly later than t."""
        return t >= self.max_time[u]

    def denominator(self, u: int, t0: int) -> float:
        """Normalizer of the walk leaving u after time t0, memoized lazily.

        A continuation at time t > t0 has weight decay(t - t0) = 1/(t - t0);
        the denominator sums that weight over u's incident edges.
        """
        key = (u, t0)
        val = self._denom.get(key)
        if val is None:
            times = self.inc_times[u]
            lo = bisect_right(times, t0)
            val = float(np.reciprocal(np.asarray(times[lo:], dtype=np.float64) - t0).sum())
            self._denom[key] = val
        return val

    # ---- de-temporal operations --------------------------------------------

    def temporal_occurrence(self, u: int) -> int:
        """Number of distinct timestamps among edges incident to u."""
        return int(self.occurrence[u])

    def connected_component(self, subset: Iterable[int], q: int) -> set[int]:
        """Vertex set of the component of the induced de-temporal subgraph containing q."""
        members = subset if isinstance(subset, (set, frozenset)) else set(subset)
        if q not in members:
            raise QueryNotInSet(f"vertex {q} not in the candidate set")
        seen = {q}
        frontier = [q]
        while frontier:
            u = frontier.pop()
            for v in self.adj[u]:
                if v in members and v not in seen:
                    seen.add(v)
                    frontier.append(v)
        return seen

    def co_connected(self, subset: Iterable[int], queries: Sequence[int]) -> bool:
        """True iff one component of the induced subgraph holds every query vertex."""
        members = subset if isinstance(subset, (set, frozenset)) else set(subset)
        if any(q not in members for q in queries):
            return False
        comp = self.connected_component(members, queries[0])
        return all(q in comp for q in queries)

    # ---- misc ----------------------------------------------------------------

    def vertex(self, label: str) -> int | None:
        return self.index.get(label)

    def triple(self, e: int) -> tuple[str, str, int]:
        return (self.labels[int(self.edge_u[e])], self.labels[int(self.edge_v[e])],
                int(self.edge_t[e]))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TemporalGraph):
            return NotImplemented
        return (self.labels == other.labels
                and np.array_equal(self.edge_u, other.edge_u)
                and np.array_equal(self.edge_v, other.edge_v)
                and np.array_equal(self.edge_t, other.edge_t))

    def __repr__(self) -> str:
        return (f"TemporalGraph(n={self.n}, m={self.m}, m_static={self.m_static}, "
                f"t_max_occurrence={self.t_max_occurrence})")


# ---- edge-stream text format ---------------------------------------------

def parse_edge_stream(source: TextIO | Iterable[str]) -> TemporalGraph:
    """Parse "u v t" lines into a TemporalGraph.

    Blank lines and '#'-prefixed comments are ignored.  Input need not be
    sorted.  Raises MalformedLine (with line number) on bad records and
    EmptyGraph when nothing survives cleaning.
    """
    triples: list[tuple[str, str, int]] = []
    for line_no, raw in enumerate(source, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 3:
            raise MalformedLine(line_no, line, "expected 3 whitespace-separated fields")
        try:
            t = int(parts[2])
        except ValueError:
            raise MalformedLine(line_no, line, "timestamp is not an integer") from None
        if t < 0:
            raise MalformedLine(line_no, line, "timestamp is negative")
        if t > 2**63 - 1:
            raise MalformedLine(line_no, line, "timestamp exceeds the 64-bit range")
        triples.append((parts[0], parts[1], t))
    return TemporalGraph.from_triples(triples)


def load_edge_stream(path: str) -> TemporalGraph:
    """Load a temporal graph from an edge-stream text file."""
    with open(path, "r", encoding="utf-8") as fh:
        return parse_edge_stream(fh)


def dump_edge_stream(graph: TemporalGraph, sink: TextIO) -> None:
    """Write the graph back out in stream (time-sorted) order."""
    for e in range(graph.m):
        u, v, t = graph.triple(e)
        sink.write(f"{u} {v} {t}\n")


def dumps_edge_stream(graph: TemporalGraph) -> str:
    buf = io.StringIO()
    dump_edge_stream(graph, buf)
    return buf.getvalue()
