"""Single-source shortest paths under lexicographic weights, over rows.

out_adjacency takes one snapshot of a graph in two parts. The rows
(RowSnapshot) are its vertices sorted into rows 0..m-1 (the same row index
the oracle's tables use) and the vertex -> row dict. The out-lists hold per
row the outgoing arcs as (base, perturb, head row, dart at head). An
Adjacency holds both.

sssp_tree runs Dijkstra with a lazy-deletion binary heap over an
Adjacency's out-lists and a bytearray settled set. Heap entries are flat
tuples (base, perturb, row) so comparisons stay in C. The output
columns hold each row's best tentative distance and parent until the row
is settled, and a relaxation is pushed only when it beats that distance.
Vertices in `excluded` are marked settled before the run instead of
being removed from the graph.

The resulting SSSPTree is three per-row columns: base and perturbation of
the distance (-1 and 0 where unreached), and the parent dart (-1 at the
root and where unreached). A vertex is recorded by the dart of its unique
ingoing tree arc, the dart sitting at the vertex itself, so its reverse
sits at the parent: the graph the tree lives in gives the parent, and no
column repeats it. The build turns the columns of the trees it stores
straight into tables; `dist` and `parent_dart` build a new vertex-keyed
dict of them on each read, for tests and consistency checks.

Who holds what: a tree holds its rows, which those dicts and inherit_tree
read, and not the out-lists, which only Dijkstra reads. So the out-lists
live as long as the caller keeps the Adjacency (in the build, one node's
Dijkstra runs), and the rows as long as some tree over them is read.

inherit_tree carries a tree over to the rows of a contracted copy of its
graph without a Dijkstra run. The build's contractions keep every
distance from the child interval's endpoints, and an arc keeps its slot
and dart ids when it moves to the contracted tree's root. So each
surviving vertex keeps its distance and parent dart. A parent that was
contracted away is read, in the contracted graph, as the root it went
into, since that root now holds the dart's other end.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Collection, NamedTuple

from .embedded_graph import EmbeddedDigraph
from .errors import UnreachableVertexError

OutLists = list[list[tuple[int, int, int, int]]]  # row -> (base, perturb, head row, dart at head)


class RowSnapshot(NamedTuple):
    """A graph's vertices as sorted rows."""

    vertices: list[int]  # row -> vertex, ascending
    row_of: dict[int, int]  # vertex -> row


class Adjacency(NamedTuple):
    """A row snapshot with each row's out-arcs, for Dijkstra runs over it."""

    snap: RowSnapshot
    out: OutLists


def out_adjacency(h: EmbeddedDigraph) -> Adjacency:
    """Snapshot h's rows and arcs for several trees over the unchanged graph.

    One pass over h's darts: the arc leaving dart d, if any, goes to the
    row of d's vertex with the row of its head and the head's dart d ^ 1.
    A row's arcs come in dart order.
    """
    vertices = sorted(h.vertices())
    row_of = {v: row for row, v in enumerate(vertices)}
    out: OutLists = [[] for _ in vertices]
    at = h._at
    for d, a in h._arc.items():
        if a is not None:
            out[row_of[at[d]]].append((a[0], a[1], row_of[at[d ^ 1]], d ^ 1))
    return Adjacency(RowSnapshot(vertices, row_of), out)


@dataclass(eq=False, slots=True)
class SSSPTree:
    """Shortest path tree as per-row columns over one row snapshot."""

    root: int
    snap: RowSnapshot
    reached: int  # rows with a distance, the root included
    base: list[int]
    pert: list[int]
    par_dart: list[int]

    @property
    def dist(self) -> dict[int, tuple[int, int]]:
        """vertex -> its (base, perturb) distance; reached vertices only."""
        return {v: (b, p) for v, b, p in zip(self.snap.vertices, self.base, self.pert) if b >= 0}

    @property
    def parent_dart(self) -> dict[int, int]:
        """vertex -> dart at that vertex of its tree arc; no root entry."""
        return {v: d for v, d in zip(self.snap.vertices, self.par_dart) if d >= 0}


def sssp_tree(
    h: EmbeddedDigraph,
    root: int,
    excluded: Collection[int] = (),
    adj: Adjacency | None = None,
) -> SSSPTree:
    """Exact shortest path tree from `root`, never entering `excluded`.

    Raises UnreachableVertexError unless every non-excluded vertex is
    reached; the callers' normalization invariant guarantees they all are,
    so a miss signals an upstream bug rather than a property of the input.
    Pass adj=out_adjacency(h) to share the snapshot across calls; the
    tree keeps adj's rows, not its out-lists.
    """
    if root in excluded:
        raise ValueError("root cannot be excluded")
    if adj is None:
        adj = out_adjacency(h)
    snap, out = adj
    row_of = snap.row_of
    n = len(snap.vertices)
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
    r0 = row_of[root]
    base[r0] = 0
    heap: list[tuple[int, int, int]] = [(0, 0, r0)]
    push = heapq.heappush
    pop = heapq.heappop
    reached = 0
    while heap:
        b, p, v = pop(heap)
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
                    push(heap, (nb, np, head))
    if reached != expected:
        raise UnreachableVertexError(
            f"root {root} reached {reached} of {expected} vertices"
        )
    return SSSPTree(root, snap, reached, base, pert, par_dart)


def inherit_tree(tree: SSSPTree, snap: RowSnapshot) -> SSSPTree:
    """tree's columns over snap, the rows of a contracted copy of its graph.

    Every vertex of snap must be a row of tree's snapshot. Each row keeps
    its distance and parent dart; in the contracted graph the dart's other
    end is the parent, or the root the parent was contracted into. The
    result equals a fresh sssp_tree on the contracted graph when the
    contraction kept the distances from tree's root, as the build's
    contractions do for the child interval's endpoints; build(instrument=
    True) checks it.
    """
    rows = list(map(tree.snap.row_of.__getitem__, snap.vertices))
    base = list(map(tree.base.__getitem__, rows))
    return SSSPTree(
        tree.root,
        snap,
        len(base) - base.count(-1),
        base,
        list(map(tree.pert.__getitem__, rows)),
        list(map(tree.par_dart.__getitem__, rows)),
    )


@dataclass(eq=False, slots=True)
class SharedForest:
    """Rows whose tree arc is the same in two SSSP trees over one snapshot."""

    children: dict[int, list[int]]  # row -> shared child rows, ascending
    root_rows: list[int]  # rows with shared children but no shared parent


def shared_forest(h: EmbeddedDigraph, t1: SSSPTree, t2: SSSPTree) -> SharedForest:
    """Intersection of two trees' parent arcs over the same snapshot of h.

    A row joins the forest when both trees give it the same parent dart
    (hence the same ingoing arc). Its parent is the row of the vertex at
    the dart's other end in h. Component roots are the rows with shared
    children but no shared parent; the two trees' parent arcs
    automatically differ there.
    """
    pd1 = t1.par_dart
    pd2 = t2.par_dart
    shared = [r for r, d in enumerate(pd1) if d >= 0 and d == pd2[r]]
    row_of = t1.snap.row_of
    at = h._at
    children: dict[int, list[int]] = {}
    for r in shared:
        p = row_of[at[pd1[r] ^ 1]]
        kids = children.get(p)
        if kids is None:
            children[p] = [r]
        else:
            kids.append(r)
    root_rows = sorted(p for p in children if pd1[p] < 0 or pd1[p] != pd2[p])
    return SharedForest(children, root_rows)
