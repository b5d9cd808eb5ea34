"""What one divide step actually does to the graph.

The oracle's build repeatedly splits the ring interval in half and
shrinks the child graph by contracting whole subtrees that both
boundary shortest-path trees agree on. This script performs a single
such step by hand on a small grid and prints every effect.

Run:  python3 demos/contraction_walkthrough.py
"""

from __future__ import annotations

from planar_mssp import gen_grid, normalize, sssp_tree
from planar_mssp.contraction import contract_tree, select_trees
from planar_mssp.sssp import shared_forest


def main() -> None:
    g, outer = gen_grid(4, seed=7)
    norm = normalize(g, outer, seed=7)
    h = norm.graph.copy()
    rings = norm.ring_roots
    print(f"normalized graph: {h.vertex_count} vertices, {h.slot_count} slots,"
          f" {len(rings)} ring roots")

    # the build halves the full root interval and recurses on each side;
    # take the first child interval, ends at root 0 and the midpoint
    lo, hi = 0, (len(rings) - 1) // 2
    excluded = set(rings)
    t_lo = sssp_tree(h, rings[lo], excluded - {rings[lo]})
    t_hi = sssp_tree(h, rings[hi], excluded - {rings[hi]})

    # the forest is over rows; the tree's snapshot maps them to vertices
    forest = shared_forest(h, t_lo, t_hi)
    shared = sum(map(len, forest.children.values()))
    roots = [t_lo.snap.vertices[r] for r in forest.root_rows]
    print(f"\nshared forest: {shared} vertices share their"
          f" parent arc, {len(roots)} component roots {roots}")

    trees = select_trees(h, t_lo, t_hi)
    print(f"selected {len(trees)} contractible trees:")
    for sel in trees:
        print(f"  root {sel.root}: members {sel.vertex}")

    # the child's record is read off its selected trees before they are
    # contracted: each member's tree arc leaves its parent along the
    # reverse of the member's dart, and its id is that dart
    entries = sorted(
        (v, sel.root, db, d ^ 1)
        for sel in trees
        for v, d, db in zip(sel.vertex[1:], sel.dart[1:], sel.dbase[1:])
    )
    before = h.vertex_count
    # one call contracts every selected tree of the child
    contract_tree(h, trees)
    # planarity bookkeeping must survive the contraction; the spokes of
    # ring vertices outside the interval may enter a tree and go, so check
    # the graph without them, as the build's child graph is
    h.copy(excluded - {rings[lo], rings[hi]}).check()
    # one record entry per absorbed vertex: the tree roots stay in h
    print(f"\ncontracted {before} -> {h.vertex_count} vertices"
          f" ({len(entries)} absorbed)")

    print("record entries (vertex: root, distance below root, tree arc):")
    for v, root, db, arc in entries:
        print(f"  {v}: root {root}, delta base {db}, arc {arc}")

    # the whole point: distances from the interval's boundary roots are
    # unchanged for every surviving vertex
    t_lo2 = sssp_tree(h, rings[lo], excluded - {rings[lo]})
    drift = sum(
        1 for v, d in t_lo2.dist.items() if t_lo.dist[v] != d
    )
    print(f"\ndistances from b_{lo} after contraction: {drift} changed"
          f" (expected 0)")


if __name__ == "__main__":
    main()
