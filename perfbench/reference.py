"""A fixed reference kernel that gauges how fast the machine runs Python now.

The benchmark shares its machine with other work, which slows Python code
by tens of percent for seconds to minutes at a time. The kernel below is
plain Dijkstra over a seeded 48x48 grid held in dicts, lists and tuples:
the same kind of interpreter and memory work as the program, but code of
the benchmark's own, so a change to the program never changes it. The
benchmark gauges it just before and just after every measurement and
reports times scaled to a machine on which one sample takes NOMINAL_S.
Scaling each measurement by its own gauges, rather than the whole run by
one factor, follows slowdowns that come and go within a run.
"""

from __future__ import annotations

import gc
import heapq
import random
import statistics
import time

NOMINAL_S = 0.010
_SIDE = 48


def _grid() -> dict[int, list[tuple[int, int]]]:
    rng = random.Random(0)
    adj: dict[int, list[tuple[int, int]]] = {v: [] for v in range(_SIDE * _SIDE)}
    for r in range(_SIDE):
        for c in range(_SIDE):
            v = r * _SIDE + c
            for w in ((v + 1) if c + 1 < _SIDE else None, (v + _SIDE) if r + 1 < _SIDE else None):
                if w is not None:
                    adj[v].append((w, rng.randint(0, 100)))
                    adj[w].append((v, rng.randint(0, 100)))
    return adj


def _dijkstra(adj, src: int) -> dict[int, tuple[int, int]]:
    dist: dict[int, tuple[int, int]] = {}
    heap = [(0, src)]
    while heap:
        d, v = heapq.heappop(heap)
        if v in dist:
            continue
        dist[v] = (d, v)
        for w, weight in adj[v]:
            if w not in dist:
                heapq.heappush(heap, (d + weight, w))
    return dist


class Reference:
    """Samples of the reference kernel taken during one run."""

    def __init__(self) -> None:
        self._adj = _grid()
        self.samples: list[float] = []

    def sample(self) -> float:
        was_enabled = gc.isenabled()
        gc.disable()  # a collection of the program's heap is not machine speed
        try:
            t0 = time.perf_counter()
            _dijkstra(self._adj, 0)
            _dijkstra(self._adj, len(self._adj) // 2)
            elapsed = time.perf_counter() - t0
        finally:
            if was_enabled:
                gc.enable()
        self.samples.append(elapsed)
        return elapsed

    def gauge(self, count: int = 5) -> float:
        """Median of `count` fresh samples."""
        return statistics.median(self.sample() for _ in range(count))

    def measure(self, fn, *args):
        """fn(*args) and its duration in nominal seconds."""
        gc.collect()
        before = self.gauge()
        t0 = time.perf_counter()
        out = fn(*args)
        elapsed = time.perf_counter() - t0
        return out, scaled(elapsed, before, self.gauge())


def scaled(seconds: float, before: float, after: float) -> float:
    """Seconds on the nominal machine, from gauges taken around the work."""
    return seconds * 2 * NOMINAL_S / (before + after)
