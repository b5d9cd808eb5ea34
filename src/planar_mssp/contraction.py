"""Tree selection and contraction for the divide step.

Given the shortest path trees from the two endpoints of a child interval,
the contractible trees are found inside their shared forest: each forest
component root s whose two (necessarily different) parent darts d1, d2
admit children v with dart(s->v), d1, d2 in clockwise order keeps those
children's whole subtrees. Such a tree lies in the region that every
shortest path from the child interval's roots must cross through s, so
contracting it into s preserves all their distances, provided arcs leaving
the tree at u are reweighted by the in-tree distance delta(u) and arcs
entering the tree anywhere but s are dropped.

select_trees gives each tree as flat columns in depth-first order, root
first. contract_tree takes all of a child's trees in one call: it checks
every tree against the graph before it changes anything, then contracts
the trees one after another, in selection order, with one walk around
each (EmbeddedDigraph._merge_tree), which reweights, drops, merges the
tree's slots into the root and keeps the cheapest arc per ordered pair.
It returns the child's record columns, one entry per tree member (every
tree vertex but the root): what queries later use to jump from a
contracted vertex to its super-vertex, and what path expansion uses to
re-inflate the jump into original arcs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .embedded_graph import EmbeddedDigraph, reverse_dart
from .errors import GraphError, NotATreeError
from .sssp import SSSPTree, shared_forest

# the hops that re-inflate an arc's tail, innermost first, flat: record key,
# vertex, record key, vertex, ...; contract_tree only stores it
TailChain = tuple[int, ...]


@dataclass(eq=False, slots=True)
class SelectedTree:
    """One contractible tree as columns in depth-first order, root first.

    The root's entry has parent -1, dart -1 and a zero delta. Every other
    member has its tree parent, the dart at the member of the slot joining
    it to that parent, and its in-tree distance from the root.
    """

    vertex: list[int]
    parent: list[int]
    dart: list[int]
    dbase: list[int]
    dpert: list[int]

    @property
    def root(self) -> int:
        return self.vertex[0]


@dataclass(eq=False, slots=True)
class Records:
    """A child's record columns, one entry per member of its trees.

    A tree's root has no entry: it stays in the graph. A member names its
    tree's root, the base of its delta, its tree parent (the root or
    another member), the arc id of the tree arc parent -> member and that
    arc's tail chain.
    """

    vertex: list[int]
    root: list[int]
    dbase: list[int]
    parent: list[int]
    arc: list[int]
    chain: list[TailChain]


def select_trees(h: EmbeddedDigraph, t_low: SSSPTree, t_high: SSSPTree) -> list[SelectedTree]:
    """Contractible trees for the child interval [low, high].

    t_low must be the tree rooted at the smaller ring index. A component
    root contributes the subtrees of exactly those children that pass the
    clockwise test; roots with no passing child yield nothing. Parents and
    deltas come from t_low's columns: shared arcs are tree arcs of t_low,
    so a member's delta is its t_low distance minus the root's.
    """
    forest = shared_forest(t_low, t_high)
    vertices = t_low.snap.vertices
    base = t_low.base
    pert = t_low.pert
    par_dart = t_low.par_dart
    par_row = t_low.par_row
    high_dart = t_high.par_dart
    children = forest.children
    nxt = h._next
    out: list[SelectedTree] = []
    for r_s in forest.root_rows:
        d_low = par_dart[r_s]
        d_high = high_dart[r_s]
        # a child passes when its dart at s lies clockwise after d_high and
        # before d_low: one walk of s's rotation decides every child
        between: set[int] = set()
        d = nxt[d_high]
        while d != d_low:
            if d == d_high:
                raise GraphError(f"parent darts of {vertices[r_s]} are not on one rotation")
            between.add(d)
            d = nxt[d]
        kept = [r for r in children[r_s] if reverse_dart(par_dart[r]) in between]
        if not kept:
            continue
        rows = [r_s]
        stack = kept[::-1]
        while stack:
            r = stack.pop()
            rows.append(r)
            kids = children.get(r)
            if kids is not None:
                stack.extend(reversed(kids))
        members = rows[1:]
        b0 = base[r_s]
        p0 = pert[r_s]
        out.append(SelectedTree(
            list(map(vertices.__getitem__, rows)),
            [-1, *map(vertices.__getitem__, map(par_row.__getitem__, members))],
            [-1, *map(par_dart.__getitem__, members)],
            [b - b0 for b in map(base.__getitem__, rows)],
            [p - p0 for p in map(pert.__getitem__, rows)],
        ))
    return out


def contract_tree(
    h: EmbeddedDigraph,
    selected: list[SelectedTree],
    chain_fn: Callable[[int], TailChain],
) -> Records:
    """Contract every selected tree into its root in place; record them all.

    The trees must be vertex-disjoint. Each is checked against the graph
    before any changes it: parents precede children, and each member's
    dart d sits at the member while d ^ 1 sits at its parent and carries
    the tree arc, whose id is therefore d ^ 1. Then each tree in turn
    loses its arcs entering it anywhere but the root, has the arcs
    leaving it reweighted by the member's delta, is merged into its root
    so the embedding survives, and keeps only the cheapest arc per
    ordered pair around the root. chain_fn maps an arc id to its current
    tail expansion, which the member's entry stores. The returned records
    hold the members only, not the roots.
    """
    at = h._at
    arc_at = h._arc
    entry = h._entry
    rec = Records([], [], [], [], [], [])
    placed: set[int] = set()  # vertices of the trees checked so far
    for tree in selected:
        vertex, parent, dart = tree.vertex, tree.parent, tree.dart
        n = len(vertex)
        if not n:
            raise NotATreeError("a tree needs a root")
        if not len(parent) == len(dart) == len(tree.dbase) == len(tree.dpert) == n:
            raise NotATreeError("tree columns disagree in length")
        s = vertex[0]
        if parent[0] != -1 or dart[0] != -1 or tree.dbase[0] or tree.dpert[0]:
            raise NotATreeError("root must have no parent and no delta")
        if s not in entry:
            raise NotATreeError(f"root {s} is not in the graph")
        seen = {s}
        arcs: list[int] = []
        for v, p, d in zip(vertex[1:], parent[1:], dart[1:]):
            if p not in seen:
                raise NotATreeError(f"parent of {v} does not precede it")
            if d not in arc_at:
                raise NotATreeError(f"tree dart of {v} is not in the graph")
            arc = arc_at[d ^ 1]
            if arc is None or at[d] != v or at[d ^ 1] != p:
                raise NotATreeError(f"no tree arc from the parent of {v} to it")
            seen.add(v)
            arcs.append(arc[2])
        if len(seen) != n:
            raise NotATreeError(f"tree of root {s} lists a vertex twice")
        if not placed.isdisjoint(seen):
            raise NotATreeError(f"tree of root {s} shares a vertex with another tree")
        placed |= seen
        rec.vertex += vertex[1:]
        rec.root += [s] * (n - 1)
        rec.dbase += tree.dbase[1:]
        rec.parent += parent[1:]
        rec.arc += arcs
        rec.chain += map(chain_fn, arcs)
    for tree in selected:
        h._merge_tree(tree.vertex, tree.dart, tree.dbase, tree.dpert)
    return rec
