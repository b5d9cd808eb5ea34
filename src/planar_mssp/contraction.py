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
first, built from t_low's columns; they are trees of the graph by
construction, so contraction takes them as made. contract_tree takes all
of a child's trees in one call and contracts them one after another, in
selection order, with one walk around each (EmbeddedDigraph._merge_tree),
which reweights, drops, merges the tree's slots into the root and keeps
the cheapest arc out of the root per neighbour. Arcs into the root need no
such pass: an arc into a member is dropped, so the ones left are the
root's own, at most one per neighbour already. The selected trees are
also the child's record, one entry per tree member (every tree vertex but
the root), which the build stores before it contracts them: what queries
later use to jump from a contracted vertex to its super-vertex, and what
path expansion uses to re-inflate the jump into original arcs.
"""

from __future__ import annotations

from dataclasses import dataclass

from .embedded_graph import EmbeddedDigraph, reverse_dart
from .errors import GraphError
from .sssp import SSSPTree, shared_forest


@dataclass(eq=False, slots=True)
class SelectedTree:
    """One contractible tree as columns in depth-first order, root first.

    The root's entry has dart -1 and a zero delta. Every other member has
    the dart at the member of the slot joining it to its tree parent, and
    its in-tree distance from the root. The dart fixes the parent, the
    vertex at its other end.
    """

    vertex: list[int]
    dart: list[int]
    dbase: list[int]
    dpert: list[int]

    @property
    def root(self) -> int:
        return self.vertex[0]


def select_trees(h: EmbeddedDigraph, t_low: SSSPTree, t_high: SSSPTree) -> list[SelectedTree]:
    """Contractible trees for the child interval [low, high].

    t_low must be the tree rooted at the smaller ring index. A component
    root contributes the subtrees of exactly those children that pass the
    clockwise test; roots with no passing child yield nothing. Darts and
    deltas come from t_low's columns: shared arcs are tree arcs of t_low,
    so a member's dart is its t_low parent dart and its delta is its t_low
    distance minus the root's.
    """
    forest = shared_forest(h, t_low, t_high)
    vertices = t_low.snap.vertices
    base = t_low.base
    pert = t_low.pert
    par_dart = t_low.par_dart
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
            [-1, *map(par_dart.__getitem__, members)],
            [b - b0 for b in map(base.__getitem__, rows)],
            [p - p0 for p in map(pert.__getitem__, rows)],
        ))
    return out


def contract_tree(h: EmbeddedDigraph, selected: list[SelectedTree]) -> None:
    """Contract every selected tree into its root in place.

    The trees must be vertex-disjoint trees of h, as select_trees makes
    them; nothing here checks that. Each tree in turn loses its arcs
    entering it anywhere but the root, has the arcs leaving it reweighted
    by the member's delta, is merged into its root so the embedding
    survives, and keeps only the cheapest arc from the root to each
    neighbour; the arcs into the root are its own, already one per
    neighbour.
    """
    for tree in selected:
        h._merge_tree(tree.vertex, tree.dart, tree.dbase, tree.dpert)
