"""Temporal graph model: edge stream, per-vertex out-state incidence, denominators.

A temporal graph is an undirected multigraph whose edges carry integer
timestamps; (u, v, t1) and (u, v, t2) are distinct edges when t1 != t2.
``edge_list`` holds the edges as a stream of (u, v, t) sorted non-decreasing
by timestamp.  The random walk underlying the proximity scores moves over
*out-states*, the two directed copies of each edge: out-state s belongs to
edge s >> 1, runs from u to v when s is even and from v to u when s is odd,
and its reverse is s ^ 1.  So state ids follow the time-sorted stream.  Each
vertex u keeps, in stream order, ``inc_states[u]``, the out-states leaving u,
and ``inc_times[u]``, their timestamps; ``adj[u]`` lists its neighbours.
From a state the walk may continue along any out-state leaving its arrival
vertex at a strictly later time; a state with no such continuation is
dangling and is modelled with a probability-1 self-loop.

The layout is built with numpy and stored as Python lists, because the
algorithms loop over it one element at a time.
"""
from __future__ import annotations

import gc
import io
import math
from bisect import bisect_right
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterable, Sequence, TextIO

import numpy as np

from .errors import EmptyGraph, MalformedLine, QueryNotInSet


@dataclass
class LoadReport:
    """Counts of lines dropped while cleaning an edge stream."""

    duplicates: int = 0
    self_loops: int = 0


@contextmanager
def _collector_paused():
    """Pause the cyclic garbage collector, restoring its state on the way out.

    Loading allocates millions of tuples and lists and none of them can form a
    cycle, yet the allocations keep triggering collections that scan them all.
    Used as a decorator, each call gets a fresh pause.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def _split(flat: list, cuts: list[int]) -> list[list]:
    """Cut ``flat`` into consecutive slices ending at the cumulative ``cuts``."""
    return [flat[a:b] for a, b in zip([0] + cuts[:-1], cuts)]


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
        self.n = n = len(self.labels)
        self.m = len(edges)
        self.edge_list: list[tuple[int, int, int]] = list(edges)
        self.report = report or LoadReport()

        cols = np.array(self.edge_list, dtype=np.int64).reshape(self.m, 3)
        ends = cols[:, :2].ravel()  # ends[s]: the vertex out-state s leaves
        # a stable sort groups the states by that vertex, each group in stream order
        order = np.argsort(ends, kind="stable")
        grouped = ends[order]
        times = cols[order >> 1, 2]
        cuts = np.bincount(ends, minlength=n).cumsum().tolist()
        self.inc_states: list[list[int]] = _split(order.tolist(), cuts)
        self.inc_times: list[list[int]] = _split(times.tolist(), cuts)
        pairs = np.unique(ends * n + cols[:, 1::-1].ravel())
        self.adj: list[list[int]] = _split(
            (pairs % n).tolist(), np.bincount(pairs // n, minlength=n).cumsum().tolist())
        self.m_static = len(pairs) // 2
        fresh = np.ones(len(grouped), dtype=bool)
        fresh[1:] = (grouped[1:] != grouped[:-1]) | (times[1:] != times[:-1])
        self.occurrence = np.bincount(grouped[fresh], minlength=n)
        self.t_max_occurrence = int(self.occurrence.max()) if n else 0
        self._denom: dict[tuple[int, int], float] = {}

    # ---- construction ----------------------------------------------------

    @classmethod
    @_collector_paused()
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
        edges = [(index.setdefault(u, len(index)), index.setdefault(v, len(index)), t)
                 for u, v, t in cleaned]
        return cls(list(index), edges, report)

    # ---- transitions -----------------------------------------------------

    def arrival(self, s: int) -> tuple[int, int]:
        """(vertex, time) at which out-state ``s`` arrives."""
        u, v, t = self.edge_list[s >> 1]
        return (u, t) if s & 1 else (v, t)

    def denominator(self, u: int, t0: int) -> float:
        """Normalizer of the walk leaving u after time t0, memoized lazily.

        A continuation at time t > t0 has weight decay(t - t0) = 1/(t - t0);
        the denominator sums that weight over u's incident edges.
        """
        key = (u, t0)
        val = self._denom.get(key)
        if val is None:
            times = self.inc_times[u]
            # subtract as Python ints: near 2**63 float64 cannot tell adjacent timestamps apart
            val = math.fsum([1.0 / (t - t0) for t in times[bisect_right(times, t0):]])
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
        """True iff one component of the induced subgraph holds every query vertex.

        A breadth-first search from the first query stops as soon as it has
        reached them all, so nearby queries cost a few rows, not the
        component.  A ``range`` subset is tested for membership as it is.
        """
        members = subset if isinstance(subset, (set, frozenset, range)) else set(subset)
        if any(q not in members for q in queries):
            return False
        missing = set(queries).difference(queries[:1])
        order = [queries[0]]
        seen = {queries[0]}
        for u in order:  # grows while it is read: a breadth-first queue
            if not missing:
                break
            for v in self.adj[u]:
                if v in members and v not in seen:
                    seen.add(v)
                    order.append(v)
                    missing.discard(v)
        return not missing

    def last_connected_round(self, universe: Iterable[int], removal_log: Sequence[int],
                             queries: Sequence[int]) -> int:
        """Largest k such that one component of universe - removal_log[:k] holds every query.

        Replays the removals backwards into a union-find: the vertices never
        removed go in first, then removal_log[k] for k from the end down, each
        joined to its neighbours already present.  Removals only ever split
        components, so the first k at which the queries share a root is the
        answer; -1 if not even the whole universe joins them.
        """
        k = len(removal_log)
        if len(queries) == 1:
            return k  # one query always shares its own component; skip the replay
        parent = {u: u for u in universe}
        present = set(parent) - set(removal_log)

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        def join(u: int) -> None:
            present.add(u)
            for v in self.adj[u]:
                if v in present:
                    parent[find(u)] = find(v)

        for u in list(present):
            join(u)
        while len({find(q) for q in queries}) > 1:
            if k == 0:
                return -1
            k -= 1
            join(removal_log[k])
        return k

    # ---- misc ----------------------------------------------------------------

    def vertex(self, label: str) -> int | None:
        return self.index.get(label)

    def triple(self, e: int) -> tuple[str, str, int]:
        u, v, t = self.edge_list[e]
        return self.labels[u], self.labels[v], t

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TemporalGraph):
            return NotImplemented
        return self.labels == other.labels and self.edge_list == other.edge_list

    def __repr__(self) -> str:
        return (f"TemporalGraph(n={self.n}, m={self.m}, m_static={self.m_static}, "
                f"t_max_occurrence={self.t_max_occurrence})")


# ---- edge-stream text format ---------------------------------------------

@_collector_paused()
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
    """Load a temporal graph from a UTF-8 edge-stream text file.

    A byte sequence that is not UTF-8 raises MalformedLine naming the first
    line that holds one.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_edge_stream(fh)
    except UnicodeDecodeError:
        # text mode decodes in chunks, so find the offending line in a second pass
        with open(path, "rb") as fh:
            for line_no, raw in enumerate(fh, start=1):
                try:
                    raw.decode("utf-8")
                except UnicodeDecodeError as exc:
                    line = raw.decode("utf-8", "replace").strip()
                    raise MalformedLine(line_no, line,
                                        f"not valid UTF-8 ({exc.reason})") from None
        raise


def format_edge_stream(triples: Iterable[tuple[str, str, int]]) -> str:
    """The "u v t" lines of ``triples``, in the given order."""
    return "".join(f"{u} {v} {t}\n" for u, v, t in triples)


def dump_edge_stream(graph: TemporalGraph, sink: TextIO) -> None:
    """Write the graph back out in stream (time-sorted) order."""
    sink.write(format_edge_stream(graph.triple(e) for e in range(graph.m)))


def dumps_edge_stream(graph: TemporalGraph) -> str:
    buf = io.StringIO()
    dump_edge_stream(graph, buf)
    return buf.getvalue()
