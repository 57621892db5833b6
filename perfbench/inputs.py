"""Seeded benchmark inputs: edge-stream files and the queries run on them.

The generator lives here, not in ``tpcore.synth``, so that a change to the
program cannot silently change a workload.  Every generated file is checked
against ``checksums.json`` before anything is timed.
"""
from __future__ import annotations

import hashlib
import json
import random
import sys
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
CHECKSUMS = HERE / "checksums.json"
# seeds whose file checksums are recorded; any other seed is vouched for by
# the seed-0 file of the same workload, which is regenerated and checked
RECORDED_SEEDS = range(100)
CANARY_SEED = 0


@dataclass(frozen=True)
class Shape:
    """A random static graph of ``static`` vertex pairs over ``n`` vertices,
    each pair carrying ``tpe`` distinct uniform timestamps in [1, horizon]."""

    n: int
    static: int
    tpe: int
    horizon: int


@dataclass(frozen=True)
class Workload:
    name: str
    shape: Shape
    queries: int        # query vertices (or query sets) per round, all asked of als
    egr_every: int      # every egr_every-th of them is also asked of egr
    cli_queries: int    # of the egr ones, how many also go through the command line
    set_sizes: tuple[int, ...] = (1,)


WORKLOADS = {
    w.name: w for w in (
        Workload("low-occ", Shape(n=20_000, static=50_000, tpe=2, horizon=40),
                 queries=16, egr_every=1, cli_queries=3),
        Workload("high-occ", Shape(n=400, static=2_000, tpe=8, horizon=1000),
                 queries=40, egr_every=3, cli_queries=4),
        Workload("query-sets", Shape(n=2_000, static=6_000, tpe=2, horizon=40),
                 queries=72, egr_every=6, cli_queries=4, set_sizes=(2, 3)),
    )
}

# A fixed two-query input, the path c-a-b-d with every edge at time 2, on
# which the approximate search certifies a score that is not the mean of the
# per-query scores.  The queries c and a have 1 and 2 incident edges, so the
# mean walk puts 1/2 on c's one out-state and 1/4 on each of a's, and stops
# at b with 1/4.  Seeding 1/3 on each of the three instead gives b a lower
# bound of 1/3, so beta_lower exceeds the true minimum degree of the answer
# {a, b, c, d}, which is d's degree, 1/4.
PINNED_TRIPLES = (("a", "b", 2), ("b", "d", 2), ("c", "a", 2))
PINNED_QUERIES = ("c", "a")


def generate(shape: Shape, seed: int) -> list[tuple[str, str, int]]:
    """Triples of the seeded graph, sorted by (time, u, v) so files are byte-stable.

    Only ``randrange`` is used, whose output for a given seed has been stable
    across Python releases; the checksums catch it if that ever changes.
    """
    rng = random.Random(seed)
    pairs: set[tuple[int, int]] = set()
    while len(pairs) < shape.static:
        i = rng.randrange(shape.n)
        j = rng.randrange(shape.n)
        if i != j:
            pairs.add((i, j) if i < j else (j, i))
    triples: list[tuple[int, int, int]] = []
    for i, j in sorted(pairs):
        times: set[int] = set()
        while len(times) < shape.tpe:
            times.add(1 + rng.randrange(shape.horizon))
        triples.extend((i, j, t) for t in sorted(times))
    triples.sort(key=lambda e: (e[2], e[0], e[1]))
    return [(f"v{i}", f"v{j}", t) for i, j, t in triples]


def format_triples(triples) -> str:
    return "".join(f"{u} {v} {t}\n" for u, v, t in triples)


def parse_triples(text: str) -> list[tuple[str, str, int]]:
    """Read back a generated file; the generator writes no comments or blanks."""
    out = []
    for line in text.splitlines():
        u, v, t = line.split()
        out.append((u, v, int(t)))
    return out


def write_input(workload: Workload, seed: int, directory: Path) -> Path:
    """Write the workload's file for ``seed`` unless an identical one exists."""
    path = directory / f"{workload.name}-{seed}.txt"
    if not path.exists():
        directory.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(".tmp")
        tmp.write_text(format_triples(generate(workload.shape, seed)), encoding="utf-8")
        tmp.replace(path)
    return path


def digest(workload: Workload, seed: int) -> str:
    text = format_triples(generate(workload.shape, seed))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def verify_input(workload: Workload, seed: int, path: Path) -> None:
    """Raise unless the file matches its recorded checksum.

    For a seed outside the table the generator itself is checked instead, by
    regenerating the canary seed's input in memory.
    """
    table = json.loads(CHECKSUMS.read_text())[workload.name]
    if str(seed) in table:
        ok = hashlib.sha256(path.read_bytes()).hexdigest() == table[str(seed)]
    else:
        ok = digest(workload, CANARY_SEED) == table[str(CANARY_SEED)]
    if not ok:
        raise RuntimeError(f"{path.name}: checksum differs from {CHECKSUMS.name}; "
                           "the generator no longer reproduces the recorded inputs")


def pick_queries(workload: Workload, triples, seed: int) -> list[tuple[str, ...]]:
    """The round's query tuples, fixed by the seed.

    Anchors are drawn one per stratum of temporal occurrence (distinct
    incident timestamps), so every seed asks about light, middling and heavy
    vertices alike and the per-query medians do not hinge on a lucky draw.
    A query set adds the anchor's neighbours in id order whose incident
    temporal edge counts equal the anchor's; where the drawn anchor has too
    few, the next vertex up the ranking that has enough is taken.  On such sets the approximate
    search's seeding agrees with the mean of the per-query walks; its fault
    on sets of unequal degree is measured on the pinned input instead, where
    it fails the same way whatever the seed.
    """
    rng = random.Random(f"queries-{workload.name}-{seed}")
    adj: dict[str, set[str]] = {}
    stamps: dict[str, set[int]] = {}
    tdeg: dict[str, int] = {}
    for u, v, t in triples:
        for a, b in ((u, v), (v, u)):
            adj.setdefault(a, set()).add(b)
            stamps.setdefault(a, set()).add(t)
            tdeg[a] = tdeg.get(a, 0) + 1
    vid = lambda lab: int(lab[1:])  # noqa: E731 - generated labels are v<id>
    order = sorted(adj, key=lambda lab: (len(stamps[lab]), vid(lab)))
    picks: list[tuple[str, ...]] = []
    anchors: set[str] = set()
    k = workload.queries
    for i in range(k):
        size = workload.set_sizes[i % len(workload.set_sizes)]
        lo, hi = i * len(order) // k, (i + 1) * len(order) // k
        start = lo + rng.randrange(hi - lo)
        for anchor in order[start:] + order[:start]:
            mates = [v for v in sorted(adj[anchor], key=vid) if tdeg[v] == tdeg[anchor]]
            group = (anchor, *mates[:size - 1])
            if len(group) == size and anchor not in anchors:
                anchors.add(anchor)
                picks.append(group)
                break
        else:
            raise RuntimeError(f"no query set of size {size}")
    return picks


def main(argv: list[str]) -> int:
    """``write <workload> <seed> <dir>``: write and verify one input and its queries.
    ``checksums``: regenerate every recorded input in memory and rewrite checksums.json."""
    if argv[:1] == ["write"] and len(argv) == 4:
        workload, seed, directory = WORKLOADS[argv[1]], int(argv[2]), Path(argv[3])
        path = write_input(workload, seed, directory)
        verify_input(workload, seed, path)
        picks = pick_queries(workload, parse_triples(path.read_text(encoding="utf-8")), seed)
        path.with_suffix(".queries.json").write_text(json.dumps(picks))
        return 0
    if argv == ["checksums"]:
        table = {name: {str(seed): digest(workload, seed) for seed in RECORDED_SEEDS}
                 for name, workload in WORKLOADS.items()}
        CHECKSUMS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
        print(f"wrote {CHECKSUMS}")
        return 0
    print(main.__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
