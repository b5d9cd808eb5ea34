"""Tree selection and contraction: the divide step's mutation toolkit."""

from __future__ import annotations

from dataclasses import replace

import pytest

from planar_mssp import (
    GraphError,
    PerturbationTieError,
    build_graph,
    gen_grid,
    normalize,
    reverse_dart,
    sssp_tree,
)
from planar_mssp.contraction import SelectedTree, contract_tree, select_trees
from planar_mssp.mssp import _Store
from planar_mssp.sssp import out_adjacency, shared_forest
from tests.conftest import arcs_by_id


def ring_trees(norm):
    g = norm.graph
    adj = out_adjacency(g)
    return [
        sssp_tree(g, r, [x for x in norm.ring_roots if x != r], adj=adj)
        for r in norm.ring_roots
    ]


# ----------------------------------------------------------------------
# selection


def clockwise_between(rotation, d_from, d, d_to):
    """d comes strictly after d_from and before d_to, walking clockwise."""
    i = rotation.index(d_from)
    turn = rotation[i + 1:] + rotation[:i]
    return d in turn and turn.index(d) < turn.index(d_to)


def selection_outcomes(norm) -> set[bool]:
    """Check every selected tree of norm's adjacent ring pairs; return the
    clockwise test's outcomes over the forest roots' shared children."""
    g = norm.graph
    trees = ring_trees(norm)
    ring = set(norm.ring_roots)
    outcomes = set()
    for i in range(len(trees) - 1):
        t_low, t_high = trees[i], trees[i + 1]
        forest = shared_forest(g, t_low, t_high)
        vertices = t_low.snap.vertices
        row_of = t_low.snap.row_of
        kept: dict[int, set[int]] = {}  # root -> its children that were kept
        selected = select_trees(g, t_low, t_high)
        for sel in selected:
            s = sel.root
            assert row_of[s] in forest.root_rows
            assert not ring & set(sel.vertex)
            assert sel.vertex[0] == s
            assert len(sel.vertex) == len(set(sel.vertex))
            assert (sel.dart[0], sel.dbase[0], sel.dpert[0]) == (-1, 0, 0)
            seen = {s}
            for v, dart, db, dp in zip(sel.vertex[1:], sel.dart[1:], sel.dbase[1:], sel.dpert[1:]):
                assert g.dart_vertex(dart) == v
                # the dart is v's t_low parent dart, so the vertex at its
                # other end is v's t_low parent, and the tree arc into v
                # leaves it along that end
                assert dart == t_low.parent_dart[v]
                parent = g.dart_vertex(dart ^ 1)
                assert g.arc_into(dart) is not None
                assert parent in seen  # parents precede children
                seen.add(v)
                # delta is the in-tree distance, consistent with both trees
                for t in (t_low, t_high):
                    sb, sp = t.dist[s]
                    assert (sb + db, sp + dp) == t.dist[v]
                if parent == s:
                    kept.setdefault(s, set()).add(v)
        # a shared child is kept exactly when its dart at the root lies
        # clockwise after the root's t_high parent dart and before its t_low one
        for r_s in forest.root_rows:
            s = vertices[r_s]
            rotation = g.rotation(s)
            for r in forest.children[r_s]:
                v = vertices[r]
                passes = clockwise_between(
                    rotation,
                    t_high.parent_dart[s],
                    reverse_dart(t_low.parent_dart[v]),
                    t_low.parent_dart[s],
                )
                assert passes == (v in kept.get(s, ())), (s, v)
                outcomes.add(passes)
    return outcomes


def test_selected_trees_structure(norm3, grid5):
    # on the outer face every shared child of a forest root is kept; an
    # inner face also has shared children that fail the clockwise test
    assert selection_outcomes(norm3) == {True}
    assert selection_outcomes(normalize(grid5[0], 1, seed=3)) == {True, False}


def test_selection_rejects_parent_darts_on_two_rotations(norm3):
    # t_high's parent dart at a forest root moved to a dart at another
    # vertex: the walk from it never meets t_low's, and must stop
    g = norm3.graph
    t_low, t_high = ring_trees(norm3)[:2]
    r_s = shared_forest(g, t_low, t_high).root_rows[0]
    par_dart = t_high.par_dart[:]
    par_dart[r_s] = t_low.par_dart[r_s] ^ 1
    assert g.dart_vertex(par_dart[r_s]) != t_low.snap.vertices[r_s]
    with pytest.raises(GraphError, match="not on one rotation"):
        select_trees(g, t_low, replace(t_high, par_dart=par_dart))


def test_store_reads_each_record_entry_off_its_selected_tree(norm3):
    # the build stores a child's record straight from its selected trees,
    # before they are contracted: a member's vertex and parent are its tree
    # arc's head and tail in the graph the trees were selected in
    g = norm3.graph
    trees = ring_trees(norm3)
    laid = 0
    for i in range(len(trees) - 1):
        t_low, t_high = trees[i], trees[i + 1]
        selected = select_trees(g, t_low, t_high)
        if not selected:
            continue
        store = _Store(norm3)
        store.add_record(2 * i, selected, g._at, lambda arc: ())
        root_of_member = {v: sel.root for sel in selected for v in sel.vertex[1:]}
        # one entry per member, by ascending vertex: no arc has a tail chain
        vertex = [g.dart_vertex(arc ^ 1) for arc in store.arc]
        assert vertex == sorted(root_of_member)
        assert list(store.place) == [2 * i]
        assert list(store.node_off) == list(store.member_off) == [0, len(vertex)]
        offset = {v: p for p, v in enumerate(vertex)}
        for p, v in enumerate(vertex):
            root = root_of_member[v]
            assert store.root[p] == root
            assert store.base[p] == t_low.dist[v][0] - t_low.dist[root][0]
            assert store.arc[p] == t_low.parent_dart[v] ^ 1
            # a parent is stored as its offset; the tree's root, which the
            # block does not hold, as the entry's own offset
            tail = g.dart_vertex(store.arc[p])
            assert store.parent[p] == (p if tail == root else offset[tail])
        laid += len(vertex)
    assert laid > 0


def test_selection_is_deterministic(norm3):
    g = norm3.graph
    trees = ring_trees(norm3)
    a = select_trees(g, trees[0], trees[1])
    b = select_trees(g, trees[0], trees[1])
    assert [t.root for t in a] == [t.root for t in b]
    assert [t.vertex for t in a] == [t.vertex for t in b]


# ----------------------------------------------------------------------
# contraction of a hand-built two-vertex tree

TRIANGLE = [
    (0, 1, 0, 0, 2, None),
    (1, 2, 1, 0, 3, 4),
    (0, 2, 1, 1, 10, 5),
]


def two_vertex_tree():
    # contract vertex 1 into root 0 along the arc 0 -> 1 (slot 0, dart 1)
    return SelectedTree([0, 1], [-1, 1], [0, 2], [0, 0])


def test_contract_tree_effects():
    g = build_graph(3, TRIANGLE)
    # the member's record is read off the tree before the merge: its dart
    # 1 sits at it, and its tree arc, id 0, leaves the root along dart 0
    assert (g.dart_vertex(1), g.dart_vertex(0)) == (1, 0)
    assert contract_tree(g, [two_vertex_tree()]) is None
    g.check()
    assert sorted(g.vertices()) == [0, 2]
    # the out-arc 1->2 (base 3) left the tree, so it gains delta 2 and
    # beats the original 0->2 arc of base 10 in the dedup; the in-arc 2->1
    # (base 4) pointed into the tree and must be gone; 2->0 pointed at the
    # root and survives untouched
    assert arcs_by_id(g) == [(2, 0, 2, (5, 0)), (5, 2, 0, (5, 0))]


def test_contract_tree_tie_raises():
    # reweighted, 1->2 (base 3) costs 2 + 3, exactly the root's own 0->2
    # (base 5): the shortest paths through them are not unique, so the
    # dedup raises a typed error, whichever of the two the tour meets first
    # (the member's arc on dart 4 first, then in the mirror, with the two
    # slots into 2 listed the other way round, on dart 2)
    for slots, message in (
        ([(0, 1, 0, 0, 2, None), (0, 2, 1, 0, 5, 6), (1, 2, 1, 1, 3, 4)], "darts 4 and 2"),
        ([(0, 1, 0, 0, 2, None), (1, 2, 1, 1, 3, 4), (0, 2, 1, 0, 5, 6)], "darts 2 and 4"),
    ):
        g = build_graph(3, slots)
        with pytest.raises(PerturbationTieError, match=rf"equal weight \(5, 0\) .* {message}"):
            contract_tree(g, [two_vertex_tree()])


def test_contract_tree_deletes_slots_inside_the_tree():
    # slot 1 joins root 0 and member 1 beside the tree slot 0; merging the
    # tree would make it a self-loop at 0, so it must vanish
    g = build_graph(3, [(0, 1, 0, 0, 2, None), (0, 1, 1, 1, None, 4), (1, 2, 2, 0, 3, 4)])
    g.check()
    assert g.face_count() == 2
    contract_tree(g, [two_vertex_tree()])
    g.check()
    assert sorted(g.vertices()) == [0, 2]
    assert g.slot_count == 1
    assert g.face_count() == 1
    assert arcs_by_id(g) == [(4, 0, 2, (5, 0))]


def test_contracting_the_only_neighbour_of_a_root_leaves_it_no_darts():
    # the one slot joins root 0 and member 1: merged, it would be a
    # self-loop, so it goes, and the root's tour is empty
    g = build_graph(2, [(0, 1, 0, 0, 3, 4)])
    contract_tree(g, [SelectedTree([0, 1], [-1, 1], [0, 3], [0, 0])])
    g.check()
    assert sorted(g.vertices()) == [0]
    assert g.rotation(0) == []
    assert g.slot_count == 0
    assert g.face_count() == 1


# ----------------------------------------------------------------------
# two trees of one child, joined by slots


def tree_along(g, root, edges, deltas):
    """A SelectedTree over (parent, child) edges listed parents first."""
    vertex, dart = [root], [-1]
    for p, v in edges:
        d = next(
            d for d in g.rotation(v)
            if g.dart_vertex(d ^ 1) == p and g.arc_into(d) is not None
        )
        vertex.append(v)
        dart.append(d)
    return SelectedTree(
        vertex, dart, [0, *(b for b, _ in deltas)], [0, *(q for _, q in deltas)]
    )


def two_joined_trees(g):
    # in the 3-grid (vertex r * 3 + c), tree A is 0 with members 1 and 3,
    # tree B is 4 with members 5 and 2; slot 1-2 joins two members, and
    # slots 1-4 and 3-4 join A's members to B's root
    a = tree_along(g, 0, [(0, 1), (0, 3)], [(7, 1), (4, 2)])
    b = tree_along(g, 4, [(4, 5), (5, 2)], [(3, 5), (9, 8)])
    return a, b


def test_one_call_on_two_joined_trees_equals_a_call_per_tree():
    g_one, _ = gen_grid(3, seed=4)
    g_two = g_one.copy()
    a, b = two_joined_trees(g_one)
    for u, v in ((1, 2), (1, 4), (3, 4)):
        assert any(g_one.dart_vertex(d ^ 1) == v for d in g_one.rotation(u))
    # the build reads both trees' records off g_one before one call merges
    # them; B's tree darts keep their ends through A's merge, so reading B
    # between two calls would give the same record
    ends = [(g_one.dart_vertex(d), g_one.dart_vertex(d ^ 1)) for d in b.dart[1:]]
    contract_tree(g_one, [a, b])
    g_one.check()
    a2, b2 = two_joined_trees(g_two)
    contract_tree(g_two, [a2])
    assert [(g_two.dart_vertex(d), g_two.dart_vertex(d ^ 1)) for d in b2.dart[1:]] == ends
    contract_tree(g_two, [b2])
    g_two.check()
    assert sorted(g_one.vertices()) == [0, 4, 6, 7, 8]
    assert list(g_one.arc_items()) == list(g_two.arc_items())
    assert g_one.face_walks() == g_two.face_walks()
    # A's contraction dropped the arcs 4 -> 1 and 4 -> 3 into its members
    # and turned 1 -> 4 and 3 -> 4 into two arcs 0 -> 4; one stays
    pairs = [(t, h) for t, h, _ in g_one.arc_items() if {t, h} == {0, 4}]
    assert pairs == [(0, 4)]


# ----------------------------------------------------------------------
# distance preservation on a real instance


def test_contraction_preserves_root_distances(norm3):
    trees = ring_trees(norm3)
    ring = set(norm3.ring_roots)
    for i in range(len(trees) - 1):
        g = norm3.graph.copy()
        selected = select_trees(g, trees[i], trees[i + 1])
        # each member's record entry as the build reads it before the merge:
        # (root, delta, parent), the parent at its tree dart's other end
        table = {
            v: (sel.root, (db, dp), g.dart_vertex(d ^ 1))
            for sel in selected
            for v, d, db, dp in zip(sel.vertex[1:], sel.dart[1:], sel.dbase[1:], sel.dpert[1:])
        }
        contract_tree(g, selected)
        # the spokes of other ring vertices may enter a tree below its root
        # and go; build drops those ring vertices first, as done here
        g.copy(ring - {norm3.ring_roots[i], norm3.ring_roots[i + 1]}).check()
        # one entry per member: every entry's vertex was absorbed
        absorbed = set(table)
        assert len(absorbed) == sum(len(sel.vertex) - 1 for sel in selected)
        assert absorbed.isdisjoint(g.vertices())
        # the two interval roots see identical distances to every survivor
        for r in (norm3.ring_roots[i], norm3.ring_roots[i + 1]):
            before = sssp_tree(norm3.graph, r, ring - {r})
            after = sssp_tree(g, r, ring - {r})
            for v, d in after.dist.items():
                assert before.dist[v] == d
        # each member's delta, the record's base and the selection's
        # perturbation (which the contraction reweights by), re-derives its
        # distance, and its parents lead to its root
        for v in absorbed:
            root, (db, dp), _ = table[v]
            rb, rp = trees[i].dist[root]
            assert (rb + db, rp + dp) == trees[i].dist[v]
            hops = 0
            cur = v
            while cur != root:
                cur = table[cur][2]
                hops += 1
                assert hops <= len(table)
            assert cur == root
