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

contract_tree performs that reweighting, merges the tree's slots into the
root (keeping the embedding intact), cleans up parallels, and writes one
RecordEntry per tree vertex. The record is what queries later use to jump
from a contracted vertex to its super-vertex, and what path expansion uses
to re-inflate the jump into original arcs.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from .embedded_graph import EmbeddedDigraph, reverse_dart
from .errors import NotATreeError
from .sssp import SSSPTree, SharedForest, shared_forest
from .weights import ZERO, LexWeight

# the hops that re-inflate an arc's tail, innermost first, flat: record key,
# vertex, record key, vertex, ...; contract_tree only stores it
TailChain = tuple[int, ...]


class RecordEntry(NamedTuple):
    """Where a contracted vertex went and how to restore the tree path."""

    root: int
    delta: LexWeight  # in-tree distance from root
    parent: int  # tree parent vertex; -1 at the root
    arc: int  # arc id of the tree arc parent -> vertex; -1 at the root
    chain: TailChain  # tail expansion of that arc; () at the root


class _Member(NamedTuple):
    parent: int
    parent_dart: int  # dart at the member on the tree slot
    delta: LexWeight


class SelectedTree:
    """One contractible tree: BFS order, per-vertex parent and delta."""

    __slots__ = ("root", "members", "order")

    def __init__(self, root: int, members: dict[int, _Member], order: list[int]):
        self.root = root
        self.members = members  # root maps to _Member(-1, -1, ZERO)
        self.order = order  # BFS order, root first

    def __len__(self) -> int:
        return len(self.order)


def select_trees(
    h: EmbeddedDigraph,
    t_low: SSSPTree,
    t_high: SSSPTree,
    forest: SharedForest | None = None,
) -> list[SelectedTree]:
    """Contractible trees for the child interval [low, high].

    t_low must be the tree rooted at the smaller ring index. A component
    root contributes the subtrees of exactly those children that pass the
    clockwise test; roots with no passing child yield nothing. Parents and
    deltas come from t_low's columns: shared arcs are tree arcs of t_low,
    so a member's delta is its t_low distance minus the root's.
    """
    if forest is None:
        forest = shared_forest(h, t_low, t_high)
    vertices = t_low.snap.vertices
    base = t_low.base
    pert = t_low.pert
    par_dart = t_low.par_dart
    par_row = t_low.par_row
    high_dart = t_high.par_dart
    children = forest.children
    out: list[SelectedTree] = []
    for r_s in forest.root_rows:
        s = vertices[r_s]
        d_low = par_dart[r_s]
        d_high = high_dart[r_s]
        kept = [
            r for r in children[r_s]
            if h.cw_order(s, reverse_dart(par_dart[r]), d_low, d_high)
        ]
        if not kept:
            continue
        b0 = base[r_s]
        p0 = pert[r_s]
        members: dict[int, _Member] = {s: _Member(-1, -1, ZERO)}
        order = [s]
        stack = kept[::-1]
        while stack:
            r = stack.pop()
            v = vertices[r]
            members[v] = _Member(
                vertices[par_row[r]], par_dart[r], LexWeight(base[r] - b0, pert[r] - p0)
            )
            order.append(v)
            kids = children.get(r)
            if kids is not None:
                stack.extend(reversed(kids))
        out.append(SelectedTree(s, members, order))
    return out


def contract_tree(
    h: EmbeddedDigraph,
    tree: SelectedTree,
    table: dict[int, RecordEntry],
    chain_fn: Callable[[int], TailChain] | None = None,
) -> None:
    """Contract `tree` into its root in place and record every member.

    Reweights arcs leaving the tree by the member's delta, deletes arcs
    entering it anywhere but the root, merges the tree slots so the
    embedding survives, and keeps only the cheapest arc per ordered pair
    around the root. chain_fn maps an arc id to its current tail
    expansion; None stores empty chains, which is fine for graphs that
    were not themselves built by earlier contractions.
    """
    members = tree.members
    s = tree.root
    if s not in members or len(members) != len(tree.order):
        raise NotATreeError("member map and order disagree")
    # validate and record in one pass; the table changes only once the
    # whole tree has passed
    slots = h.slots
    seen_order: set[int] = set()
    recorded: list[tuple[int, RecordEntry]] = []
    tree_darts: list[int] = []  # per non-root member, its tree dart at it
    for v in tree.order:
        m = members[v]
        if v == s:
            if m.parent != -1:
                raise NotATreeError("root must have no parent")
            recorded.append((v, RecordEntry(s, ZERO, -1, -1, ())))
        elif m.parent not in seen_order:
            raise NotATreeError(f"parent of {v} does not precede it")
        else:
            pd = m.parent_dart
            slot = slots.get(pd >> 1)
            if slot is None:
                raise NotATreeError(f"tree dart of {v} is not in the graph")
            if pd & 1:
                ends = (slot.v1, slot.v0)
                arc = slot.a01
            else:
                ends = (slot.v0, slot.v1)
                arc = slot.a10
            if ends != (v, m.parent) or arc is None:
                raise NotATreeError(f"no tree arc from the parent of {v} to it")
            chain = chain_fn(arc[2]) if chain_fn is not None else ()
            recorded.append((v, RecordEntry(s, m.delta, m.parent, arc[2], chain)))
            tree_darts.append(pd)
        seen_order.add(v)
    table.update(recorded)

    # reweight while walking the members' rotations; deletions wait until
    # the walk is over, since deleting a slot changes a rotation
    deletions: list[tuple[int, int]] = []
    # slots joining two members, tree slots aside, would become self-loops
    # at the root; the merge deletes them
    tree_sids = {d >> 1 for d in tree_darts}
    internal: list[int] = []
    nxt = h._next
    entry = h._entry
    for v in tree.order:
        delta = members[v].delta
        shifted = delta is not ZERO
        first = entry[v]
        if first is None:
            continue
        d = first
        while True:
            slot = slots[d >> 1]
            end = d & 1
            if end:
                head = slot.v0
                out_arc = slot.a10
                in_arc = slot.a01
            else:
                head = slot.v1
                out_arc = slot.a01
                in_arc = slot.a10
            if head not in members:
                if out_arc is not None and shifted:
                    out_arc = (out_arc[0] + delta.base, out_arc[1] + delta.perturb, out_arc[2])
                    if end:
                        slot.a10 = out_arc
                    else:
                        slot.a01 = out_arc
                if in_arc is not None and v != s:
                    deletions.append((d >> 1, 1 - end))
            elif not end and d >> 1 not in tree_sids:
                internal.append(d >> 1)
            d = nxt[d]
            if d == first:
                break
    for sid, direction in deletions:
        h.delete_arc(sid, direction)

    h._merge_tree(s, tree_darts, internal)
    h._dedup_at(s)
