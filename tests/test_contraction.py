"""Tree selection and contraction: the divide step's mutation toolkit."""

from __future__ import annotations

import pytest

from planar_mssp import (
    LexWeight,
    NotATreeError,
    PerturbationCollisionWarning,
    ZERO,
    build_graph,
    reverse_dart,
    sssp_tree,
)
from planar_mssp.contraction import (
    RecordEntry,
    SelectedTree,
    _Member,
    contract_tree,
    select_trees,
)
from planar_mssp.sssp import out_adjacency, shared_forest


def ring_trees(norm):
    g = norm.graph
    adj = out_adjacency(g)
    return [
        sssp_tree(g, r, [x for x in norm.ring_roots if x != r], adj=adj)
        for r in norm.ring_roots
    ]


# ----------------------------------------------------------------------
# selection


def test_selected_trees_structure(norm3):
    g = norm3.graph
    trees = ring_trees(norm3)
    ring = set(norm3.ring_roots)
    for i in range(len(trees) - 1):
        t_low, t_high = trees[i], trees[i + 1]
        forest = shared_forest(g, t_low, t_high)
        for sel in select_trees(g, t_low, t_high):
            s = sel.root
            assert t_low.snap.row_of[s] in forest.root_rows
            assert not ring & set(sel.members)
            assert sel.order[0] == s
            assert len(sel) == len(sel.order) == len(sel.members)
            assert sel.members[s] == _Member(-1, -1, ZERO)
            seen = {s}
            for v in sel.order[1:]:
                m = sel.members[v]
                assert m.parent in seen  # parents precede children
                seen.add(v)
                assert g.dart_vertex(m.parent_dart) == v
                # delta is the in-tree distance, consistent with both trees
                for t in (t_low, t_high):
                    assert t.dist[s] + m.delta == t.dist[v]
                # the subtree hangs off a child passing the clockwise test
                if m.parent == s:
                    assert g.cw_order(
                        s,
                        reverse_dart(m.parent_dart),
                        t_low.parent_dart[s],
                        t_high.parent_dart[s],
                    )


def test_selection_is_deterministic(norm3):
    g = norm3.graph
    trees = ring_trees(norm3)
    a = select_trees(g, trees[0], trees[1])
    b = select_trees(g, trees[0], trees[1])
    assert [t.root for t in a] == [t.root for t in b]
    assert [t.order for t in a] == [t.order for t in b]


# ----------------------------------------------------------------------
# contraction of a hand-built two-vertex tree

TRIANGLE = [
    (0, 1, 0, 0, 2, None),
    (1, 2, 1, 0, 3, 4),
    (0, 2, 1, 1, 10, 5),
]


def two_vertex_tree():
    # contract vertex 1 into root 0 along the arc 0 -> 1 (slot 0, dart 1)
    members = {
        0: _Member(-1, -1, ZERO),
        1: _Member(0, 1, LexWeight(2, 0)),
    }
    return SelectedTree(0, members, [0, 1])


def test_contract_tree_effects():
    g = build_graph(3, TRIANGLE)
    table: dict[int, RecordEntry] = {}
    contract_tree(g, two_vertex_tree(), table, lambda aid: ())
    g.check()
    assert sorted(g.vertices()) == [0, 2]
    # record entries: the root names itself, the member keeps its arc
    assert table[0] == RecordEntry(0, ZERO, -1, -1, ())
    assert table[1] == RecordEntry(0, LexWeight(2, 0), 0, 0, ())
    # the out-arc 1->2 (base 3) left the tree, so it gains delta 2 and
    # beats the original 0->2 arc of base 10 in the dedup; the in-arc 2->1
    # (base 4) pointed into the tree and must be gone; 2->0 pointed at the
    # root and survives untouched
    assert list(g.arc_items()) == [(0, 2, (5, 0, 2)), (2, 0, (5, 0, 5))]


def test_contract_tree_tie_keeps_smaller_arc_id():
    # reweighted, 1->2 (base 3, arc 4) costs 2 + 3, exactly the root's own
    # 0->2 (base 5, arc 2); the dedup warns and keeps arc 2
    g = build_graph(3, [(0, 1, 0, 0, 2, None), (0, 2, 1, 0, 5, 6), (1, 2, 1, 1, 3, 4)])
    table: dict[int, RecordEntry] = {}
    with pytest.warns(PerturbationCollisionWarning):
        contract_tree(g, two_vertex_tree(), table, lambda aid: ())
    g.check()
    assert list(g.arc_items()) == [(0, 2, (5, 0, 2)), (2, 0, (6, 0, 3))]


def test_contract_tree_deletes_slots_inside_the_tree():
    # slot 1 joins root 0 and member 1 beside the tree slot 0; merging the
    # tree would make it a self-loop at 0, so it must vanish
    g = build_graph(3, [(0, 1, 0, 0, 2, None), (0, 1, 1, 1, None, 4), (1, 2, 2, 0, 3, 4)])
    g.check()
    assert g.face_count() == 2
    contract_tree(g, two_vertex_tree(), {}, lambda aid: ())
    g.check()
    assert sorted(g.vertices()) == [0, 2]
    assert g.slot_count == 1
    assert g.face_count() == 1
    assert list(g.arc_items()) == [(0, 2, (5, 0, 4))]


def test_contract_tree_chain_fn():
    g = build_graph(3, TRIANGLE)
    table: dict[int, RecordEntry] = {}
    calls: list[int] = []

    def chain_fn(aid: int):
        calls.append(aid)
        return (((7, 7), aid),)

    contract_tree(g, two_vertex_tree(), table, chain_fn)
    # chains are recorded for member arcs, never for the root self-entry
    assert calls == [0]
    assert table[1].chain == (((7, 7), 0),)
    assert table[0].chain == ()


def test_contract_tree_rejects_malformed_trees():
    members = {
        0: _Member(-1, -1, ZERO),
        1: _Member(0, 1, LexWeight(2, 0)),
    }
    bad_order = SelectedTree(0, dict(members), [1, 0])
    with pytest.raises(NotATreeError, match="precede"):
        contract_tree(build_graph(3, TRIANGLE), bad_order, {}, lambda aid: ())

    short_order = SelectedTree(0, dict(members), [0])
    with pytest.raises(NotATreeError, match="disagree"):
        contract_tree(build_graph(3, TRIANGLE), short_order, {}, lambda aid: ())

    rootless = SelectedTree(2, dict(members), [0, 1])
    with pytest.raises(NotATreeError):
        contract_tree(build_graph(3, TRIANGLE), rootless, {}, lambda aid: ())

    cyclic = SelectedTree(
        0,
        {0: _Member(1, -1, ZERO), 1: _Member(0, 1, LexWeight(2, 0))},
        [0, 1],
    )
    with pytest.raises(NotATreeError, match="root"):
        contract_tree(build_graph(3, TRIANGLE), cyclic, {}, lambda aid: ())


# ----------------------------------------------------------------------
# distance preservation on a real instance


def test_contraction_preserves_root_distances(norm3):
    trees = ring_trees(norm3)
    ring = set(norm3.ring_roots)
    for i in range(len(trees) - 1):
        g = norm3.graph.copy()
        table: dict[int, RecordEntry] = {}
        selected = select_trees(g, trees[i], trees[i + 1])
        for sel in selected:
            contract_tree(g, sel, table, lambda aid: ())
            g.check()
        absorbed = {v for v, e in table.items() if v != e.root}
        assert absorbed == set(table) - {sel.root for sel in selected}
        assert absorbed.isdisjoint(g.vertices())
        # the two interval roots see identical distances to every survivor
        for r in (norm3.ring_roots[i], norm3.ring_roots[i + 1]):
            before = sssp_tree(norm3.graph, r, ring - {r})
            after = sssp_tree(g, r, ring - {r})
            for v, d in after.dist.items():
                assert before.dist[v] == d
        # record entries re-derive each absorbed vertex's distance
        for v in absorbed:
            e = table[v]
            assert trees[i].dist[e.root] + e.delta == trees[i].dist[v]
            hops = 0
            cur = v
            while table[cur].parent != -1:
                cur = table[cur].parent
                hops += 1
                assert hops <= len(table)
            assert cur == e.root
