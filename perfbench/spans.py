"""In-memory span tracer for the benchmark's traced run.

The tracer wraps the public functions of each layer as they are bound in
the modules that call them (``planar_mssp.mssp`` and
``planar_mssp.contraction``), records one span per call (name, start, end,
parent, trace id) and puts the original bindings back afterwards. Nothing
inside the package changes. Spans stay in memory until ``dump`` writes
them out at the end of a run.

A span's self time is its duration minus the time its child spans cover.
Because every span closes before its parent does, the self times of a
span and all its descendants add up to the span's duration.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager

import planar_mssp.contraction as contraction_mod
import planar_mssp.mssp as mssp_mod
from planar_mssp import EmbeddedDigraph, MsspOracle


class Span:
    __slots__ = ("id", "parent", "trace", "name", "start", "end", "count")

    def __init__(self, sid: int, parent: int, trace: int, name: str, start: float):
        self.id = sid
        self.parent = parent  # -1 for a top-level span
        self.trace = trace
        self.name = name
        self.start = start
        self.end = start
        self.count: int | None = None  # work done, where the result shows it

    @property
    def duration(self) -> float:
        return self.end - self.start


class _JsonWithTracedLoads:
    """Stands in for the json module inside planar_mssp.mssp."""

    def __init__(self, loads):
        self.loads = loads

    def __getattr__(self, name):
        return getattr(json, name)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.trace_id = 0
        self._open: list[Span] = []

    def _begin(self, name: str) -> Span:
        parent = self._open[-1].id if self._open else -1
        span = Span(len(self.spans), parent, self.trace_id, name, time.perf_counter())
        self.spans.append(span)
        self._open.append(span)
        return span

    def _end(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._open.pop()

    @contextmanager
    def span(self, name: str):
        s = self._begin(name)
        try:
            yield s
        finally:
            self._end(s)

    def wrap(self, fn, name: str, count=None):
        def traced(*args, **kwargs):
            s = self._begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._end(s)
            if count is not None:
                s.count = count(result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Wrap the layer functions for the duration of the block."""
        patches = [
            (mssp_mod, "sssp_tree", "sssp.sssp_tree", lambda t: len(t.dist)),
            (mssp_mod, "out_adjacency", "sssp.out_adjacency", None),
            (contraction_mod, "shared_forest", "sssp.shared_forest", None),
            (mssp_mod, "select_trees", "contraction.select_trees", len),
            (mssp_mod, "contract_tree", "contraction.contract_tree", None),
            (EmbeddedDigraph, "copy", "embedded_graph.copy", lambda g: g.vertex_count),
            (MsspOracle, "to_json", "mssp.to_json", None),
        ]
        saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _, _ in patches]
        try:
            for owner, attr, name, count in patches:
                setattr(owner, attr, self.wrap(getattr(owner, attr), name, count))
            mssp_mod.json = _JsonWithTracedLoads(self.wrap(json.loads, "mssp.json_loads"))
            yield self
        finally:
            mssp_mod.json = json
            for owner, attr, original in saved:
                setattr(owner, attr, original)

    # ------------------------------------------------------------------

    def self_times(self) -> list[float]:
        covered = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                covered[s.parent] += s.duration
        return [s.duration - covered[s.id] for s in self.spans]

    def top_names(self) -> list[str]:
        """Name of each span's top-level ancestor (its own, if top-level)."""
        top: list[str] = []
        for s in self.spans:
            top.append(s.name if s.parent < 0 else top[s.parent])
        return top

    def dump(self, path) -> None:
        rows = [
            [s.id, s.parent, s.trace, s.name, s.start, s.end, s.count]
            for s in self.spans
        ]
        doc = {"columns": ["id", "parent", "trace", "name", "start", "end", "count"],
               "spans": rows}
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(doc))
            fh.write("\n")
