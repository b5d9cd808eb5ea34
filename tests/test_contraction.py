"""Tree selection and contraction: the divide step's mutation toolkit."""

from __future__ import annotations

import pytest

from planar_mssp import (
    LexWeight,
    NotATreeError,
    PerturbationCollisionWarning,
    build_graph,
    gen_grid,
    normalize,
    reverse_dart,
    sssp_tree,
)
from planar_mssp.contraction import Records, SelectedTree, contract_tree, select_trees
from planar_mssp.sssp import out_adjacency, shared_forest


def ring_trees(norm):
    g = norm.graph
    adj = out_adjacency(g)
    return [
        sssp_tree(g, r, [x for x in norm.ring_roots if x != r], adj=adj)
        for r in norm.ring_roots
    ]


def entry(rec: Records, v: int):
    """v's record entry: (root, delta base, parent, arc, chain)."""
    i = rec.vertex.index(v)
    return (
        rec.root[i],
        rec.dbase[i],
        rec.parent[i],
        rec.arc[i],
        rec.chain[i],
    )


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
        forest = shared_forest(t_low, t_high)
        kept: dict[int, set[int]] = {}  # root -> its children that were kept
        for sel in select_trees(g, t_low, t_high):
            s = sel.root
            assert t_low.snap.row_of[s] in forest.root_rows
            assert not ring & set(sel.vertex)
            assert sel.vertex[0] == s
            assert len(sel.vertex) == len(set(sel.vertex))
            assert (sel.parent[0], sel.dart[0], sel.dbase[0], sel.dpert[0]) == (-1, -1, 0, 0)
            seen = {s}
            for v, parent, dart, db, dp in zip(
                sel.vertex, sel.parent, sel.dart, sel.dbase, sel.dpert
            ):
                if v == s:
                    continue
                assert parent in seen  # parents precede children
                seen.add(v)
                assert g.dart_vertex(dart) == v
                # delta is the in-tree distance, consistent with both trees
                for t in (t_low, t_high):
                    assert t.dist[s] + LexWeight(db, dp) == t.dist[v]
                if parent == s:
                    kept.setdefault(s, set()).add(v)
        # a shared child is kept exactly when its dart at the root lies
        # clockwise after the root's t_high parent dart and before its t_low one
        vertices = t_low.snap.vertices
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
    return SelectedTree([0, 1], [-1, 0], [-1, 1], [0, 2], [0, 0])


def test_contract_tree_effects():
    g = build_graph(3, TRIANGLE)
    rec = contract_tree(g, [two_vertex_tree()], lambda aid: ())
    g.check()
    assert sorted(g.vertices()) == [0, 2]
    # record entries: the root, which stays, has none; the member names it
    # and keeps its arc
    assert rec.vertex == [1]
    assert entry(rec, 1) == (0, 2, 0, 0, ())
    # the out-arc 1->2 (base 3) left the tree, so it gains delta 2 and
    # beats the original 0->2 arc of base 10 in the dedup; the in-arc 2->1
    # (base 4) pointed into the tree and must be gone; 2->0 pointed at the
    # root and survives untouched
    assert list(g.arc_items()) == [(0, 2, (5, 0, 2)), (2, 0, (5, 0, 5))]


def test_contract_tree_tie_keeps_smaller_arc_id():
    # reweighted, 1->2 (base 3, arc 4) costs 2 + 3, exactly the root's own
    # 0->2 (base 5, arc 2); the dedup warns and keeps arc 2
    g = build_graph(3, [(0, 1, 0, 0, 2, None), (0, 2, 1, 0, 5, 6), (1, 2, 1, 1, 3, 4)])
    with pytest.warns(PerturbationCollisionWarning):
        contract_tree(g, [two_vertex_tree()], lambda aid: ())
    g.check()
    assert list(g.arc_items()) == [(0, 2, (5, 0, 2)), (2, 0, (6, 0, 3))]


def test_contract_tree_deletes_slots_inside_the_tree():
    # slot 1 joins root 0 and member 1 beside the tree slot 0; merging the
    # tree would make it a self-loop at 0, so it must vanish
    g = build_graph(3, [(0, 1, 0, 0, 2, None), (0, 1, 1, 1, None, 4), (1, 2, 2, 0, 3, 4)])
    g.check()
    assert g.face_count() == 2
    contract_tree(g, [two_vertex_tree()], lambda aid: ())
    g.check()
    assert sorted(g.vertices()) == [0, 2]
    assert g.slot_count == 1
    assert g.face_count() == 1
    assert list(g.arc_items()) == [(0, 2, (5, 0, 4))]


def test_contract_tree_chain_fn():
    g = build_graph(3, TRIANGLE)
    calls: list[int] = []

    def chain_fn(aid: int):
        calls.append(aid)
        return (((7, 7), aid),)

    rec = contract_tree(g, [two_vertex_tree()], chain_fn)
    # chains are recorded for member arcs; the root has no entry
    assert calls == [0]
    assert entry(rec, 1)[4] == (((7, 7), 0),)
    assert 0 not in rec.vertex


def test_contract_tree_rejects_malformed_trees():
    # the path 0 -> 1 -> 2 of TRIANGLE, listed with 2 before its parent 1
    bad_order = SelectedTree([0, 2, 1], [-1, 1, 0], [-1, 3, 1], [0, 5, 2], [0, 0, 0])
    with pytest.raises(NotATreeError, match="precede"):
        contract_tree(build_graph(3, TRIANGLE), [bad_order], lambda aid: ())

    short_order = SelectedTree([0, 1], [-1, 0], [-1], [0, 2], [0, 0])
    with pytest.raises(NotATreeError, match="disagree"):
        contract_tree(build_graph(3, TRIANGLE), [short_order], lambda aid: ())

    rootless = SelectedTree([], [], [], [], [])
    with pytest.raises(NotATreeError):
        contract_tree(build_graph(3, TRIANGLE), [rootless], lambda aid: ())

    cyclic = SelectedTree([0, 1], [1, 0], [-1, 1], [0, 2], [0, 0])
    with pytest.raises(NotATreeError, match="root"):
        contract_tree(build_graph(3, TRIANGLE), [cyclic], lambda aid: ())

    absent_root = SelectedTree([7], [-1], [-1], [0], [0])
    with pytest.raises(NotATreeError, match="not in the graph"):
        contract_tree(build_graph(3, TRIANGLE), [absent_root], lambda aid: ())

    twice = SelectedTree([0, 1, 1], [-1, 0, 0], [-1, 1, 1], [0, 2, 2], [0, 0, 0])
    with pytest.raises(NotATreeError, match="twice"):
        contract_tree(build_graph(3, TRIANGLE), [twice], lambda aid: ())

    # every tree is checked before any is contracted: a bad second tree
    # leaves the graph as it was
    g = build_graph(3, TRIANGLE)
    before = list(g.arc_items())
    overlapping = SelectedTree([2, 1], [-1, 2], [-1, 2], [0, 4], [0, 0])
    with pytest.raises(NotATreeError, match="another tree"):
        contract_tree(g, [two_vertex_tree(), overlapping], lambda aid: ())
    assert list(g.arc_items()) == before
    assert sorted(g.vertices()) == [0, 1, 2]


# ----------------------------------------------------------------------
# two trees of one child, joined by slots


def tree_along(g, root, edges, deltas):
    """A SelectedTree over (parent, child) edges listed parents first."""
    vertex, parent, dart = [root], [-1], [-1]
    for p, v in edges:
        d = next(
            d for d in g.rotation(v)
            if g.dart_vertex(d ^ 1) == p and g.arc_into(d) is not None
        )
        vertex.append(v)
        parent.append(p)
        dart.append(d)
    return SelectedTree(
        vertex, parent, dart, [0, *(b for b, _ in deltas)], [0, *(q for _, q in deltas)]
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
    both = contract_tree(g_one, [a, b], lambda aid: (aid,))
    g_one.check()
    a2, b2 = two_joined_trees(g_two)
    first = contract_tree(g_two, [a2], lambda aid: (aid,))
    second = contract_tree(g_two, [b2], lambda aid: (aid,))
    g_two.check()
    assert sorted(g_one.vertices()) == [0, 4, 6, 7, 8]
    assert list(g_one.arc_items()) == list(g_two.arc_items())
    assert g_one.face_walks() == g_two.face_walks()
    for name in ("vertex", "root", "dbase", "parent", "arc", "chain"):
        assert getattr(both, name) == getattr(first, name) + getattr(second, name), name
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
        rec = contract_tree(g, selected, lambda aid: ())
        # the spokes of other ring vertices may enter a tree below its root
        # and go; build drops those ring vertices first, as done here
        g.copy(ring - {norm3.ring_roots[i], norm3.ring_roots[i + 1]}).check()
        table = {v: entry(rec, v) for v in rec.vertex}
        assert len(table) == len(rec.vertex)
        # one entry per member: every entry's vertex was absorbed
        absorbed = set(table)
        assert absorbed == {v for sel in selected for v in sel.vertex[1:]}
        assert absorbed.isdisjoint(g.vertices())
        # the two interval roots see identical distances to every survivor
        for r in (norm3.ring_roots[i], norm3.ring_roots[i + 1]):
            before = sssp_tree(norm3.graph, r, ring - {r})
            after = sssp_tree(g, r, ring - {r})
            for v, d in after.dist.items():
                assert before.dist[v] == d
        # each member's delta, the record's base and the selection's
        # perturbation (which the contraction reweights by), re-derives its
        # distance
        deltas = {
            v: LexWeight(b, p)
            for sel in selected
            for v, b, p in zip(sel.vertex, sel.dbase, sel.dpert)
        }
        for v in absorbed:
            root, delta_base, _, _, _ = table[v]
            assert delta_base == deltas[v].base
            assert trees[i].dist[root] + deltas[v] == trees[i].dist[v]
            hops = 0
            cur = v
            while cur != root:
                cur = table[cur][2]
                hops += 1
                assert hops <= len(table)
            assert cur == root
