"""A fixed pure-Python job that measures how fast the host runs Python now.

On a shared host the CPU time of one and the same call moves by a third from
one second to the next (neighbours on the same core and cache, clock
changes).  The job below moves with it, so a time divided by the job's time,
taken just before and just after in the same process, moves far less.  The
job never changes with the program, so a slower program still reads slower
by the whole amount.

It imports nothing but ``heapq`` and ``time``, so that a command-line child
that runs it before and after its own work imports no module for it that the
program would otherwise have imported itself.
"""
from __future__ import annotations

import heapq
import time

REF_S = 0.030   # the job's CPU seconds at the speed timings are scaled to


class Yardstick:
    """A min-degree peel of a fixed pseudo-random graph (dicts, sets, a heap,
    float updates), about 0.03 s of CPU on an unloaded core."""

    def __init__(self, n: int = 6000, edges: int = 18000, seed: int = 20230217):
        self.adj: list[list[int]] = [[] for _ in range(n)]
        x = seed
        for _ in range(edges):
            # a 64-bit linear congruential generator: no import of random
            x = (x * 6364136223846793005 + 1442695040888963407) % (1 << 64)
            a, b = (x >> 33) % n, (x >> 13) % n
            if a != b:
                self.adj[a].append(b)
                self.adj[b].append(a)
        self.times: list[float] = []

    def job(self) -> int:
        deg = {u: len(ws) + 1.0 / (1 + len(ws)) for u, ws in enumerate(self.adj)}
        heap = [(d, u) for u, d in deg.items()]
        heapq.heapify(heap)
        alive = set(deg)
        while heap:
            d, u = heapq.heappop(heap)
            if u in alive and d == deg[u]:
                alive.discard(u)
                for w in self.adj[u]:
                    if w in alive:
                        deg[w] -= 1.0
                        heapq.heappush(heap, (deg[w], w))
        return len(alive)

    def measure(self) -> float:
        """CPU seconds of one job."""
        c0 = time.process_time()
        self.job()
        cpu = time.process_time() - c0
        self.times.append(cpu)
        return cpu


# The script a command-line child runs: the yardstick just before and just
# after the body, the CPU seconds the yardstick itself used, all reported on
# the last line of standard error.  ``{body}`` sets ``code``, the exit code.
CHILD = """\
import time
_c0 = time.process_time()
import sys
from yardstick import Yardstick
_yard = Yardstick()
_before = _yard.measure()
_c1 = time.process_time()
code = 1
try:
{body}finally:
    _c2 = time.process_time()
    _after = _yard.measure()
    _c3 = time.process_time()
    sys.stderr.write(f"\\nyardstick {{_before!r}} {{_after!r}} {{(_c1 - _c0) + (_c3 - _c2)!r}}\\n")
sys.exit(code)
"""


def child_script(body: str) -> str:
    return CHILD.format(body="".join(f"    {line}\n" for line in body.splitlines()))


def parse_child(stderr: str) -> tuple[float, float, float]:
    """(yardstick before, yardstick after, the yardstick's own CPU seconds)
    from a child's standard error."""
    tag, before, after, own = stderr.rstrip("\n").rsplit("\n", 1)[-1].split()
    if tag != "yardstick":
        raise ValueError("child reported no yardstick")
    return float(before), float(after), float(own)
