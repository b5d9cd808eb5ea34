"""Single-source shortest path trees over the rotation-system graph."""

from __future__ import annotations

import pytest

from planar_mssp import (
    UnreachableVertexError,
    build_graph,
    normalize,
    reverse_dart,
    sssp_tree,
)
from planar_mssp.contraction import contract_tree, select_trees
from planar_mssp.sssp import inherit_tree, out_adjacency, shared_forest
from tests.test_normalize import GRID2_BOUNDARY, GRID2_SLOTS, outer_face_of

# Derived by tests/oracles/grid2_normalized_sssp.py (standalone
# Dijkstra over a hand-written arc list): base distances from the ring
# vertex over each boundary vertex to original vertices 0..3.
GRID2_SSSP_BASE = {
    0: [0, 1, 1, 2],
    1: [1, 0, 2, 1],
    3: [2, 1, 1, 0],
    2: [1, 2, 0, 1],
}


@pytest.fixture(scope="module")
def norm2():
    g = build_graph(4, GRID2_SLOTS)
    return normalize(g, outer_face_of(g, GRID2_BOUNDARY), seed=0)


def ring_tree(norm, i, **kw):
    root = norm.ring_roots[i]
    excluded = [r for r in norm.ring_roots if r != root]
    return sssp_tree(norm.graph, root, excluded, **kw)


def test_grid2_base_distances(norm2):
    for i, b in enumerate(norm2.face_vertices):
        tree = ring_tree(norm2, i)
        got = [tree.dist[u][0] for u in range(4)]
        assert got == GRID2_SSSP_BASE[b], f"ring over vertex {b}"
        assert tree.dist[tree.root] == (0, 0)
        assert tree.root in tree.dist
        for other in norm2.ring_roots:
            if other != tree.root:
                assert other not in tree.dist


def test_parent_darts_form_tree(norm2):
    g = norm2.graph
    for i in range(norm2.root_count):
        tree = ring_tree(norm2, i)
        assert tree.root not in tree.parent_dart
        for v, pd in tree.parent_dart.items():
            assert g.dart_vertex(pd) == v
            p = g.dart_vertex(reverse_dart(pd))
            arc = g.arc_into(pd)
            assert arc is not None
            pb, pp = tree.dist[p]
            assert (pb + arc[0], pp + arc[1]) == tree.dist[v]
        for v in tree.dist:
            hops = 0
            while v != tree.root:
                v = g.dart_vertex(reverse_dart(tree.parent_dart[v]))
                hops += 1
                assert hops <= g.vertex_count
        # every reached non-root vertex has a parent
        assert set(tree.parent_dart) == set(tree.dist) - {tree.root}


def test_no_ring_vertex_is_a_tree_parent(norm2):
    # a ring vertex's one arc is its spoke, so no ring vertex but the root
    # itself, through its own spoke, is a parent in its tree
    g = norm2.graph
    rings = set(norm2.ring_roots)
    for j, r in enumerate(norm2.ring_roots):
        tree = ring_tree(norm2, j)
        parents = {g.dart_vertex(reverse_dart(pd)) for pd in tree.parent_dart.values()}
        assert parents & rings == {r}


def test_out_adjacency_matches_arc_items(norm2):
    g = norm2.graph
    adj = out_adjacency(g)
    snap = adj.snap
    assert snap.vertices == sorted(g.vertices())
    assert snap.row_of == {v: row for row, v in enumerate(snap.vertices)}
    assert sum(map(len, adj.out)) == len(list(g.arc_items()))
    flat = {(tail, a[0], a[1], head) for tail, head, a in g.arc_items()}
    spread = {
        (snap.vertices[row], base, pert, snap.vertices[head_row])
        for row, arcs in enumerate(adj.out)
        for base, pert, head_row, _ in arcs
    }
    assert spread == flat
    for arcs in adj.out:
        for base, pert, head_row, dart_at_head in arcs:
            assert g.dart_vertex(dart_at_head) == snap.vertices[head_row]
            arc = g.arc_into(dart_at_head)
            assert arc == (base, pert)


def test_shared_adjacency_gives_identical_trees(norm2):
    adj = out_adjacency(norm2.graph)
    for i in range(norm2.root_count):
        plain = ring_tree(norm2, i)
        shared = ring_tree(norm2, i, adj=adj)
        assert plain.dist == shared.dist
        assert plain.parent_dart == shared.parent_dart


def test_out_list_order_cannot_change_trees(norm2):
    # perturbations make every distance unique, so tie order is moot: the
    # order in which a row's arcs are relaxed does not change the tree
    adj = out_adjacency(norm2.graph)
    flipped = adj._replace(out=[r[::-1] for r in adj.out])
    for i in range(norm2.root_count):
        a = ring_tree(norm2, i, adj=adj)
        b = ring_tree(norm2, i, adj=flipped)
        assert (a.base, a.pert, a.par_dart) == (b.base, b.pert, b.par_dart)


def test_excluded_root_rejected(norm2):
    with pytest.raises(ValueError):
        sssp_tree(norm2.graph, norm2.ring_roots[0], norm2.ring_roots)


def test_unreachable_vertex_raises():
    # path 0 - 1 - 2 with the middle excluded
    g = build_graph(3, [(0, 1, 0, 0, 1, 1), (1, 2, 1, 0, 1, 1)])
    with pytest.raises(UnreachableVertexError, match="reached"):
        sssp_tree(g, 0, {1})
    tree = sssp_tree(g, 0)
    assert tree.dist[2][0] == 2


def test_shared_forest_on_adjacent_roots(norm3):
    g = norm3.graph
    adj = out_adjacency(g)
    trees = [
        sssp_tree(g, r, [x for x in norm3.ring_roots if x != r], adj=adj)
        for r in norm3.ring_roots
    ]
    ring = set(norm3.ring_roots)
    for i in range(len(trees)):
        t1, t2 = trees[i], trees[(i + 1) % len(trees)]
        forest = shared_forest(g, t1, t2)
        vertices = t1.snap.vertices
        # definition: exactly the vertices on which both parent darts agree
        expected = {
            v: d for v, d in t1.parent_dart.items() if t2.parent_dart.get(v) == d
        }
        # each shared vertex hangs below the tail of its shared arc
        for p, kids in forest.children.items():
            assert kids == sorted(kids)
            for c in kids:
                assert g.dart_vertex(reverse_dart(expected[vertices[c]])) == vertices[p]
        roots = {vertices[r] for r in forest.root_rows}
        assert not roots & set(expected)
        assert not ring & set(expected)
        # walking down from the roots visits each shared vertex exactly once
        seen: list[int] = []
        stack = list(forest.root_rows)
        while stack:
            r = stack.pop()
            kids = forest.children.get(r, [])
            seen.extend(vertices[c] for c in kids)
            stack.extend(kids)
        assert sorted(seen) == sorted(expected)


def test_shared_forest_of_tree_with_itself(norm3):
    g = norm3.graph
    r = norm3.ring_roots[0]
    tree = sssp_tree(g, r, [x for x in norm3.ring_roots if x != r])
    forest = shared_forest(g, tree, tree)
    vertices = tree.snap.vertices
    shared = [vertices[c] for kids in forest.children.values() for c in kids]
    assert sorted(shared) == sorted(tree.parent_dart)
    assert [vertices[x] for x in forest.root_rows] == [r]


def test_inherited_trees_equal_fresh_trees_after_contraction(norm3):
    # a child interval [i, i + 1]: drop the other ring vertices, contract
    # the selected trees, and carry the two endpoint trees over
    g = norm3.graph
    adj = out_adjacency(g)
    ring = norm3.ring_roots
    contracted = 0
    for i in range(len(ring) - 1):
        ends = (ring[i], ring[i + 1])
        low, high = (
            sssp_tree(g, r, [x for x in ring if x != r], adj=adj) for r in ends
        )
        h = g.copy([x for x in ring if x not in ends])
        selected = select_trees(h, low, high)
        contract_tree(h, selected)
        contracted += sum(len(sel.vertex) - 1 for sel in selected)
        child = out_adjacency(h)
        for tree in (low, high):
            got = inherit_tree(tree, child.snap)
            want = sssp_tree(h, tree.root, [x for x in ends if x != tree.root], adj=child)
            assert got.root == want.root and got.snap is child.snap
            assert (got.reached, got.base, got.pert, got.par_dart) == (
                want.reached, want.base, want.pert, want.par_dart
            )
            # equal darts give equal parents, each read off the dart's other
            # end in h: the parent, or the root it was contracted into
            for v, d in got.parent_dart.items():
                assert h.dart_vertex(d) == v
                assert h.dart_vertex(d ^ 1) in child.snap.row_of
    assert contracted > 0
