"""Temporal graph model: edge stream, per-vertex out-state incidence, denominators.

A temporal graph is an undirected multigraph whose edges carry integer
timestamps; (u, v, t1) and (u, v, t2) are distinct edges when t1 != t2.
The edges form a stream of (u, v, t) sorted non-decreasing by timestamp.  The
random walk underlying the proximity scores moves over *out-states*, the two
directed copies of each edge: out-state s belongs to edge s >> 1, runs from u
to v when s is even and from v to u when s is odd, and its reverse is s ^ 1.
So state ids follow the time-sorted stream.  ``state_tail[s]`` is the vertex
out-state s arrives at and ``state_time[s]`` its time; these two lists are the
only copy of the stream.  Each vertex u keeps, in stream order,
``inc_states[u]``, the out-states leaving u, and ``inc_times[u]``, their
timestamps; ``adj[u]`` lists its neighbours.
From a state the walk may continue along any out-state leaving its arrival
vertex at a strictly later time; a state with no such continuation is
dangling and is modelled with a probability-1 self-loop.

``TemporalGraph(records)`` is the one way to build a graph: it checks and
cleans "u v t" records (lines split on whitespace, or label triples), sorts
the kept edges stably by time and numbers the vertices by first appearance in
the sorted stream.  So the stream is always sorted and every vertex has at
least one out-state.

The layout is built with the standard library and stored as Python lists,
because the algorithms loop over it one element at a time.  Every pass over
the stream after the per-line checks runs at C level (``map``, ``zip``, slice
assignment, ``array``).  The ints of the ``inc_states`` and ``inc_times`` rows
are made afresh, in row order, by ``array.tolist``, so that a row's int
objects sit next to each other in memory as the loops read them.  Each build
intermediate is dropped once consumed, which bounds the load's peak memory.
"""
from __future__ import annotations

import gc
import io
import marshal
import math
import sys
from array import array
from bisect import bisect_right
from collections import defaultdict, deque
from contextlib import contextmanager
from itertools import accumulate, chain
from operator import itemgetter
from typing import BinaryIO, Iterable, Sequence, TextIO

from .errors import EmptyGraph, MalformedLine, QueryNotInSet

# the largest timestamp: rows hold them as signed 64-bit ints
_T_MAX = 2**63 - 1
# names what ``TemporalGraph.pack`` stores; change it whenever a stored field changes
PACK_LAYOUT = "tpcore-graph-2"
# the fields ``pack`` stores: every one the constructor sets but index, n and m
_PACKED = frozenset({"report", "labels", "state_tail", "state_time", "inc_states", "inc_times",
                     "adj", "m_static", "t_max_occurrence", "state_denom"})


class LoadReport:
    """Counts of lines dropped while cleaning an edge stream; equal when the counts are."""

    def __init__(self, duplicates: int = 0, self_loops: int = 0):
        self.duplicates, self.self_loops = duplicates, self_loops

    def __eq__(self, other: object) -> bool:
        return type(other) is LoadReport and vars(self) == vars(other)


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


def _interleave(even: Sequence, odd: Sequence) -> list:
    """[even[0], odd[0], even[1], odd[1], ...]: one entry per out-state."""
    out = [None] * (len(even) + len(odd))
    out[0::2] = even
    out[1::2] = odd
    return out


def _fresh(ints: Iterable[int]) -> list[int]:
    """``ints`` as new int objects made in order, so that a row sliced from the
    result holds its ints next to each other in memory.  Going through a list
    first lets the array size itself once."""
    return array("q", list(ints)).tolist()


def _split(flat: list, cuts: list[int]) -> list[list]:
    """Cut ``flat`` into consecutive slices ending at the cumulative ``cuts``."""
    return [flat[a:b] for a, b in zip([0] + cuts[:-1], cuts)]


def _clean(records: Iterable[Sequence], report: LoadReport) -> list[tuple[str, str, int]]:
    """Check and clean "u v t" records in one pass.

    ``records`` holds one field sequence per line (``str.split`` of a line, or
    a triple); an empty record or one whose first field starts with '#' is a
    blank line or a comment and is skipped.  Raises MalformedLine, numbering
    the records from 1 and quoting the fields joined by single spaces, on a
    record without exactly three fields or whose timestamp is not an integer
    in [0, 2**63 - 1].  Self-loops and duplicates (equal up to endpoint order;
    the first copy is kept) are dropped and counted in ``report``.  Returns
    the kept triples in input order.
    """
    kept: dict[tuple[str, str, int], tuple[str, str, int]] = {}
    line_no = skipped = self_loops = 0
    for line_no, fields in enumerate(records, start=1):
        if not fields or fields[0][:1] == "#":
            skipped += 1
            continue
        try:
            u, v, t = fields
            t = int(t)
        except ValueError:
            reason = ("expected 3 whitespace-separated fields" if len(fields) != 3
                      else "timestamp is not an integer")
            raise MalformedLine(line_no, " ".join(map(str, fields)), reason) from None
        if not 0 <= t <= _T_MAX:
            reason = "timestamp is negative" if t < 0 else "timestamp exceeds the 64-bit range"
            raise MalformedLine(line_no, " ".join(map(str, fields)), reason)
        if u == v:
            self_loops += 1
            continue
        edge = (u, v, t)
        kept.setdefault(edge if u < v else (v, u, t), edge)
    report.self_loops = self_loops
    report.duplicates = line_no - skipped - self_loops - len(kept)
    return list(kept.values())


class TemporalGraph:
    """Immutable temporal graph with per-vertex time-sorted incidence.

    Built from "u v t" records by its one constructor; ``parse_edge_stream``,
    ``load_edge_stream`` and ``from_triples`` only feed it.  Construction is
    single-threaded.  Afterwards only the per-state memo of transition
    denominators, ``state_denom``, is written, lazily or all at once by
    ``fill_denominators``; an entry of 0.0 is not computed yet.  Every value
    written there is fixed by the graph, so racing writers write equal values
    and the instance is safe to share across concurrent queries.
    """

    @_collector_paused()
    def __init__(self, records: Iterable[Sequence]):
        """The graph of "u v t" records: one field sequence per line, as
        ``str.split`` gives, or a label triple.

        ``_clean`` checks and cleans the records (see there), so a triple
        passes the same checks as a line of a file.  Raises MalformedLine on a
        bad record and EmptyGraph when nothing survives cleaning.
        """
        self.report = LoadReport()
        cleaned = _clean(records, self.report)
        if not cleaned:
            raise EmptyGraph("no temporal edges after cleaning")
        cleaned.sort(key=itemgetter(2))  # stable: input order preserved within a timestamp
        cols = list(chain.from_iterable(cleaned))  # u0, v0, t0, u1, ...
        del cleaned
        times = cols[2::3]
        ends = _interleave(cols[0::3], cols[1::3])  # the label out-state s leaves
        del cols
        # append each out-state to its label's row in stream order; the keys
        # come out numbered by first appearance in the same pass
        rows: defaultdict[str, list[int]] = defaultdict(list)
        deque(map(list.append, map(rows.__getitem__, ends), range(len(ends))), maxlen=0)
        self.labels: list[str] = list(rows)
        self.index: dict[str, int] = dict(zip(self.labels, range(len(self.labels))))
        # out-state s arrives where its reverse s ^ 1 leaves
        self.state_tail: list[int] = list(map(self.index.__getitem__,
                                              _interleave(ends[1::2], ends[0::2])))
        del ends
        self.n = len(self.labels)
        self.m = len(times)
        cuts = list(accumulate(map(len, rows.values())))
        self.inc_states: list[list[int]] = _split(_fresh(chain.from_iterable(rows.values())), cuts)
        self.state_time: list[int] = _interleave(times, times)  # the time of out-state s
        del times
        self.inc_times: list[list[int]] = _split(_fresh(map(
            self.state_time.__getitem__, chain.from_iterable(rows.values()))), cuts)
        # freed only now: ints made fresh after its ints go would fill their holes out of order
        del rows
        self.adj: list[list[int]] = list(map(sorted, map(set, _split(list(map(
            self.state_tail.__getitem__, chain.from_iterable(self.inc_states))), cuts))))
        self.m_static = sum(map(len, self.adj)) // 2
        # the most distinct timestamps on the edges of one vertex
        self.t_max_occurrence = max(map(len, map(set, self.inc_times)))
        # the transition denominator of each out-state, filled in by ``propagate``
        # or ``fill_denominators``; 0.0 means not computed yet
        self.state_denom: array = array("d", [0.0]) * (2 * self.m)

    def fill_denominators(self) -> None:
        """Compute every non-dangling state's ``state_denom`` entry, one
        ``denominator`` call per (arrival vertex, time); a dangling state's
        entry stays 0.0."""
        state_denom = self.state_denom
        for u, (times, states) in enumerate(zip(self.inc_times, self.inc_states)):
            lo, end = 0, len(times)
            while lo < end:  # the states arriving at (u, times[lo]) leave by times[lo:hi]
                hi = bisect_right(times, times[lo], lo)
                if hi < end:
                    denom = self.denominator(u, times[lo])
                    for i in range(lo, hi):
                        state_denom[states[i] ^ 1] = denom
                lo = hi

    def pack(self) -> bytes:
        """The built graph as ``marshal`` bytes for ``unpack``: every field the
        constructor sets except the ones ``unpack`` derives afresh, and
        ``state_denom`` as it stands, in native byte order."""
        fields = {k: v for k, v in vars(self).items() if k not in ("index", "n", "m")}
        return marshal.dumps((PACK_LAYOUT, sys.byteorder, {
            **fields, "state_denom": self.state_denom.tobytes(), "report": vars(self.report)}))

    @classmethod
    @_collector_paused()
    def unpack(cls, blob: bytes) -> "TemporalGraph":
        """The graph ``pack`` wrote, with its ``state_denom``; ValueError,
        EOFError or TypeError if ``blob`` is not a whole entry of this layout."""
        layout, byteorder, fields = marshal.loads(blob)
        if (layout, byteorder) != (PACK_LAYOUT, sys.byteorder):
            raise ValueError(f"not a {sys.byteorder}-endian {PACK_LAYOUT} entry")
        report = fields.get("report") if isinstance(fields, dict) else None
        if not (isinstance(report, dict) and fields.keys() == _PACKED
                and report.keys() == {"duplicates", "self_loops"}):
            raise ValueError(f"entry does not hold the fields of {PACK_LAYOUT}")
        self = cls.__new__(cls)
        vars(self).update(fields, report=LoadReport(**report))
        self.n, self.m = len(self.labels), len(self.state_time) // 2
        self.state_denom = array("d", fields["state_denom"])  # a memcpy
        if not (len(self.state_tail) == len(self.state_time) == len(self.state_denom) == 2 * self.m
                == sum(map(len, self.inc_states)) == sum(map(len, self.inc_times))
                and len(self.inc_states) == len(self.inc_times) == len(self.adj) == self.n):
            raise ValueError("entry has inconsistent shapes")
        self.index = dict(zip(self.labels, range(self.n)))
        return self

    @classmethod
    def from_triples(cls, triples: Iterable[Sequence]) -> "TemporalGraph":
        """The graph of (u_label, v_label, t) triples; see the constructor."""
        return cls(triples)

    # ---- transitions -----------------------------------------------------

    def denominator(self, u: int, t0: int) -> float:
        """Normalizer of the walk leaving u after time t0, computed afresh.

        A continuation at time t > t0 has weight decay(t - t0) = 1/(t - t0);
        the denominator sums that weight over u's incident edges.  The push
        keeps its own per-state memo of these values in ``state_denom``.
        """
        times = self.inc_times[u]
        # subtract as Python ints: near 2**63 float64 cannot tell adjacent timestamps apart
        return math.fsum([1.0 / (t - t0) for t in times[bisect_right(times, t0):]])

    # ---- de-temporal operations --------------------------------------------

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

    def last_connected_round(self, universe: Iterable[int], removal_log: Sequence[int],
                             queries: Sequence[int]) -> int:
        """Largest k such that one component of universe - removal_log[:k] holds every query.

        Replays the removals backwards through ``Components``: the vertices
        never removed are added first, then removal_log[k] for k from the end
        down.  Removals only ever split components, so the first k at which
        the queries are joined is the answer; -1 if not even the whole
        universe joins them.
        """
        k = len(removal_log)
        if len(queries) == 1:
            return k  # one query always shares its own component; skip the replay
        parts = Components(self.adj)
        for u in set(universe).difference(removal_log):
            parts.add(u)
        while not parts.joins(queries):
            if k == 0:
                return -1
            k -= 1
            parts.add(removal_log[k])
        return k

    def __repr__(self) -> str:
        return (f"TemporalGraph(n={self.n}, m={self.m}, m_static={self.m_static}, "
                f"t_max_occurrence={self.t_max_occurrence})")


class Components:
    """Union-find over a growing vertex set: the components of the subgraph
    that ``adj`` induces on the vertices added so far."""

    def __init__(self, adj: Sequence[Sequence[int]]):
        self.adj = adj
        self.parent: dict[int, int] = {}

    def find(self, x: int) -> int:
        """The root of added vertex x's component."""
        parent = self.parent
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        return x

    def add(self, u: int) -> None:
        """Add u, joining it to each neighbour already added."""
        parent = self.parent
        parent[u] = u
        for v in self.adj[u]:
            if v in parent:
                parent[self.find(u)] = self.find(v)

    def joins(self, queries: Sequence[int]) -> bool:
        """True iff every query is added and they all share one component."""
        return (all(q in self.parent for q in queries)
                and len({self.find(q) for q in queries}) == 1)


# ---- edge-stream text format ---------------------------------------------

def parse_edge_stream(source: TextIO | Iterable[str]) -> TemporalGraph:
    """Parse "u v t" lines into a TemporalGraph.

    Blank lines and '#'-prefixed comments are ignored.  Input need not be
    sorted.  Raises MalformedLine (with line number) on bad records and
    EmptyGraph when nothing survives cleaning.  ``map`` is lazy, so the first
    read of ``source`` already happens inside the constructor's collector pause.
    """
    return TemporalGraph(map(str.split, source))


def load_edge_stream(path: str) -> TemporalGraph:
    """Load a temporal graph from a UTF-8 edge-stream text file.

    A byte sequence that is not UTF-8 raises MalformedLine naming the first
    line that holds one.
    """
    with open(path, "rb") as fh:
        return read_edge_stream(fh)


def read_edge_stream(raw: BinaryIO) -> TemporalGraph:
    """Parse a seekable binary stream of UTF-8 "u v t" lines, as ``load_edge_stream``."""
    text = io.TextIOWrapper(raw, encoding="utf-8")  # what open(path, "r") wraps a file in
    try:
        return parse_edge_stream(text)
    except UnicodeDecodeError:
        # the wrapper decodes in chunks, so find the offending line in a second pass
        raw.seek(0)
        for line_no, line in enumerate(raw, start=1):
            try:
                line.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise MalformedLine(line_no, line.decode("utf-8", "replace").strip(),
                                    f"not valid UTF-8 ({exc.reason})") from None
        raise
    finally:
        text.detach()  # ``raw`` stays its caller's to close


def format_edge_stream(triples: Iterable[tuple[str, str, int]]) -> str:
    """The "u v t" lines of ``triples``, in the given order."""
    return "".join(f"{u} {v} {t}\n" for u, v, t in triples)
