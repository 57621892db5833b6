"""Seeded synthetic temporal graphs for benchmarks and scaling runs."""
from __future__ import annotations

import random
from typing import NamedTuple

from .graph import TemporalGraph


class SynthConfig(NamedTuple):
    n: int
    avg_deg: float
    timestamps_per_edge: int
    horizon: int
    seed: int

    def validate(self) -> None:
        if self.n < 2:
            raise ValueError("need at least 2 vertices")
        if self.avg_deg <= 0 or self.avg_deg > self.n - 1:
            raise ValueError("avg_deg must be in (0, n-1]")
        if self.timestamps_per_edge < 1:
            raise ValueError("timestamps_per_edge must be positive")
        if self.horizon < self.timestamps_per_edge:
            raise ValueError("horizon must allow distinct timestamps per edge")
        target = round(self.n * self.avg_deg / 2)
        if target < 1:
            raise ValueError("parameters give an empty graph")


def synth_triples(cfg: SynthConfig) -> list[tuple[str, str, int]]:
    """Random static graph with the requested expected degree, each static edge
    carrying the requested number of distinct uniform timestamps in [1, horizon].

    Deterministic under the seed; output is sorted so files are byte-stable.
    """
    cfg.validate()
    rng = random.Random(cfg.seed)
    target = round(cfg.n * cfg.avg_deg / 2)
    pairs: set[tuple[int, int]] = set()
    while len(pairs) < target:
        i = rng.randrange(cfg.n)
        j = rng.randrange(cfg.n)
        if i == j:
            continue
        pairs.add((i, j) if i < j else (j, i))
    triples: list[tuple[str, str, int]] = []
    for i, j in sorted(pairs):
        for t in rng.sample(range(1, cfg.horizon + 1), cfg.timestamps_per_edge):
            triples.append((f"v{i}", f"v{j}", t))
    triples.sort(key=lambda e: (e[2], e[0], e[1]))
    return triples


def synth_graph(cfg: SynthConfig) -> TemporalGraph:
    return TemporalGraph.from_triples(synth_triples(cfg))
