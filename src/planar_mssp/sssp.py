"""Single-source shortest paths under lexicographic weights, over rows.

out_adjacency takes one snapshot of a graph: its vertices sorted into rows
0..m-1 (the same row index the oracle's tables use), the vertex -> row
dict, and per row the outgoing arcs as (base, perturb, head row, dart at
head), plus the arc count for the build's per-level stats.

sssp_tree runs Dijkstra with a lazy-deletion binary heap over those rows
and a bytearray settled set. Heap entries are flat tuples (base, perturb,
tie, row) so comparisons stay in C; the tie
component is a plain counter by default, or random when the caller wants
to probe that tie-breaking cannot change the result (it cannot when all
path weights are distinct, which normalization arranges). The output
columns hold each row's best tentative distance and parent until the row
is settled, and a relaxation is pushed only when it beats that distance.
Vertices in `excluded` are marked settled before the run instead of
being removed from the graph.

The resulting SSSPTree is four per-row columns: base and perturbation of
the distance (-1 and 0 where unreached), and the parent dart and parent
row (-1 at the root and where unreached). A vertex is recorded by the dart
of its unique ingoing tree arc, the dart sitting at the vertex itself (so
its reverse sits at the parent). The build turns the columns of the trees
it stores straight into tables; `dist` and `parent_dart` are read-only
vertex-keyed views of them for tests and consistency checks.
"""

from __future__ import annotations

import heapq
from collections.abc import Mapping
from dataclasses import dataclass
from itertools import count
from typing import Callable, Collection, Iterator, NamedTuple

from .embedded_graph import EmbeddedDigraph
from .errors import UnreachableVertexError
from .weights import LexWeight

Adjacency = list[list[tuple[int, int, int, int]]]  # row -> (base, perturb, head row, dart at head)


class RowSnapshot(NamedTuple):
    """A graph's vertices as sorted rows, with each row's out-arcs."""

    vertices: list[int]  # row -> vertex, ascending
    row_of: dict[int, int]  # vertex -> row
    out: Adjacency
    arc_count: int


def out_adjacency(h: EmbeddedDigraph) -> RowSnapshot:
    """Snapshot h's rows and arcs for several trees over the unchanged graph."""
    vertices = sorted(h.vertices())
    row_of = {v: row for row, v in enumerate(vertices)}
    out: Adjacency = [[] for _ in vertices]
    for sid, slot in h.slots.items():
        d0 = sid << 1
        r0 = row_of[slot.v0]
        r1 = row_of[slot.v1]
        a = slot.a01
        if a is not None:
            out[r0].append((a[0], a[1], r1, d0 | 1))
        a = slot.a10
        if a is not None:
            out[r1].append((a[0], a[1], r0, d0))
    return RowSnapshot(vertices, row_of, out, sum(map(len, out)))


class _VertexView(Mapping):
    """Read-only vertex-keyed view of the rows where `present` is >= 0."""

    __slots__ = ("_snap", "_present", "_value", "_len")

    def __init__(self, snap: RowSnapshot, present: list[int], value: Callable[[int], object], size: int):
        self._snap = snap
        self._present = present
        self._value = value
        self._len = size

    def __getitem__(self, v: int):
        row = self._snap.row_of[v]
        if self._present[row] < 0:
            raise KeyError(v)
        return self._value(row)

    def __iter__(self) -> Iterator[int]:
        vertices = self._snap.vertices
        return (vertices[row] for row, x in enumerate(self._present) if x >= 0)

    def __len__(self) -> int:
        return self._len


@dataclass(eq=False, slots=True)
class SSSPTree:
    """Shortest path tree as per-row columns over one row snapshot."""

    root: int
    snap: RowSnapshot
    reached: int  # rows with a distance, the root included
    base: list[int]
    pert: list[int]
    par_dart: list[int]
    par_row: list[int]

    @property
    def dist(self) -> Mapping[int, LexWeight]:
        base, pert = self.base, self.pert
        return _VertexView(self.snap, base, lambda r: LexWeight(base[r], pert[r]), self.reached)

    @property
    def parent_dart(self) -> Mapping[int, int]:
        """vertex -> dart at that vertex of its tree arc; no root entry."""
        return _VertexView(self.snap, self.par_dart, self.par_dart.__getitem__, self.reached - 1)


def sssp_tree(
    h: EmbeddedDigraph,
    root: int,
    excluded: Collection[int] = (),
    tie_rng=None,
    adj: RowSnapshot | None = None,
) -> SSSPTree:
    """Exact shortest path tree from `root`, never entering `excluded`.

    Raises UnreachableVertexError unless every non-excluded vertex is
    reached; the callers' normalization invariant guarantees they all are,
    so a miss signals an upstream bug rather than a property of the input.
    Pass adj=out_adjacency(h) to share the row snapshot across calls.
    """
    if root in excluded:
        raise ValueError("root cannot be excluded")
    if adj is None:
        adj = out_adjacency(h)
    row_of = adj.row_of
    out = adj.out
    n = len(adj.vertices)
    # settled doubles as the exclusion filter: excluded rows are never
    # relaxed, exactly as if they had been settled before the run began
    settled = bytearray(n)
    for x in excluded:
        row = row_of.get(x)
        if row is not None:
            settled[row] = 1
    expected = n - sum(settled)
    # the columns hold each row's best tentative distance and parent so far,
    # final once the row is settled; a relaxation that does not beat the
    # tentative distance is not pushed, as it could only go stale
    base = [-1] * n
    pert = [0] * n
    par_dart = [-1] * n
    par_row = [-1] * n
    if tie_rng is None:
        next_tie = count().__next__
    else:
        next_tie = lambda: tie_rng.getrandbits(62)  # noqa: E731 - tiny closure
    r0 = row_of[root]
    base[r0] = 0
    heap: list[tuple[int, int, int, int]] = [(0, 0, next_tie(), r0)]
    push = heapq.heappush
    pop = heapq.heappop
    reached = 0
    while heap:
        b, p, _, v = pop(heap)
        if settled[v]:
            continue
        settled[v] = 1
        reached += 1
        for wb, wp, head, hd in out[v]:
            if not settled[head]:
                nb = b + wb
                np = p + wp
                tb = base[head]
                if tb < 0 or nb < tb or (nb == tb and np < pert[head]):
                    base[head] = nb
                    pert[head] = np
                    par_dart[head] = hd
                    par_row[head] = v
                    push(heap, (nb, np, next_tie(), head))
    if reached != expected:
        raise UnreachableVertexError(
            f"root {root} reached {reached} of {expected} vertices"
        )
    return SSSPTree(root, adj, reached, base, pert, par_dart, par_row)


@dataclass(eq=False, slots=True)
class SharedForest:
    """Rows whose tree arc is the same in two SSSP trees over one snapshot."""

    children: dict[int, list[int]]  # row -> shared child rows, ascending
    root_rows: list[int]  # rows with shared children but no shared parent


def shared_forest(h: EmbeddedDigraph, t1: SSSPTree, t2: SSSPTree) -> SharedForest:
    """Intersection of two trees' parent arcs over the same snapshot.

    A row joins the forest when both trees give it the same parent dart
    (hence the same ingoing arc). Component roots are the rows with shared
    children but no shared parent; the two trees' parent arcs
    automatically differ there. h is the graph both trees were grown on;
    the trees' own columns carry everything the forest needs.
    """
    pd1 = t1.par_dart
    pd2 = t2.par_dart
    shared = [r for r, d in enumerate(pd1) if d >= 0 and d == pd2[r]]
    par_row = t1.par_row
    children: dict[int, list[int]] = {}
    for r in shared:
        p = par_row[r]
        kids = children.get(p)
        if kids is None:
            children[p] = [r]
        else:
            kids.append(r)
    root_rows = sorted(p for p in children if pd1[p] < 0 or pd1[p] != pd2[p])
    return SharedForest(children, root_rows)
