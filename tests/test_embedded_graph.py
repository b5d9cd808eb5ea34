"""Rotation-system digraph: structure, faces, copying, validation."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planar_mssp import (
    BadRotationError,
    DartNotAtVertexError,
    DuplicateArcError,
    GraphError,
    NegativeWeightError,
    SelfLoopSlotError,
    build_graph,
    gen_random_planar,
    reverse_dart,
)
from tests.conftest import TRI_ONEWAY_SLOTS

# Derived by tests/oracles/face_orbits.py (independent rotation code):
# the 3x3 grid has five faces, walk lengths 4,4,4,4,8, and its length-8
# walk visits the boundary clockwise.
GRID3_FACE_LENGTHS = [4, 4, 4, 4, 8]
GRID3_BOUNDARY = [0, 1, 2, 5, 8, 7, 6, 3]


def rotations_of(cycle):
    return [cycle[i:] + cycle[:i] for i in range(len(cycle))]


def test_dart_encoding_involution():
    for d in range(20):
        assert reverse_dart(reverse_dart(d)) == d
        assert reverse_dart(d) != d
        assert reverse_dart(d) >> 1 == d >> 1


def test_grid3_counts(grid3):
    g, outer = grid3
    assert g.vertex_count == 9
    assert g.slot_count == 12
    assert len(list(g.arc_items())) == 24
    assert g.face_count() == len(GRID3_FACE_LENGTHS)
    g.check()


def test_grid3_face_lengths(grid3):
    g, _ = grid3
    assert sorted(len(w) for w in g.face_walks()) == GRID3_FACE_LENGTHS


def test_grid3_outer_walk_is_clockwise_boundary(grid3):
    g, outer = grid3
    walk = g.face_walks()[outer]
    assert len(walk) == 8
    tails = [g.dart_vertex(d) for d in walk]
    assert tails in rotations_of(GRID3_BOUNDARY)


def test_face_walks_partition_darts(grid3, bowtie):
    for g in (grid3[0], bowtie):
        darts = [d for w in g.face_walks() for d in w]
        assert sorted(darts) == sorted(
            2 * sid + e for sid in g.slots for e in (0, 1)
        )


def test_rotation_matches_declared_positions():
    g = build_graph(3, TRI_ONEWAY_SLOTS)
    # slot tuples above place darts at explicit positions per vertex
    assert g.rotation(0) == [0, 4]
    assert g.rotation(1) == [1, 2]
    assert g.rotation(2) == [3, 5]
    assert len(g.rotation(0)) == 2
    assert [v for v in g.vertices()] == [0, 1, 2]


def test_arc_lookups(tri_oneway):
    g = tri_oneway
    arcs = {(tail, head): arc for tail, head, arc in g.arc_items()}
    assert arcs == {(0, 1): (5, 0, 0), (1, 2): (7, 0, 2), (0, 2): (4, 0, 4)}
    # dart 1 sits at vertex 1 on slot 0; the arc 0->1 points into it, and
    # no arc 1->0 points into its reverse
    assert g.arc_into(1) == (5, 0, 0)
    assert g.arc_into(1 ^ 1) is None


def test_cw_order(grid3):
    g, _ = grid3
    center = 4
    d0, d1, d2, d3 = g.rotation(center)
    assert g.cw_order(center, d0, d1, d2)
    assert not g.cw_order(center, d0, d2, d1)
    assert g.cw_order(center, d2, d3, d0)
    assert g.cw_order(center, d3, d0, d2)
    with pytest.raises(DartNotAtVertexError):
        g.cw_order(center, d0, d1, g.rotation(0)[0])
    with pytest.raises(GraphError):
        g.cw_order(center, d0, d0, d1)


def test_copy_preserves_structure(grid3):
    g, _ = grid3
    h = g.copy()
    assert h.slot_count == g.slot_count
    for v in g.vertices():
        assert h.rotation(v) == g.rotation(v)
    h.check()
    # independent storage: mutating the copy leaves the original alone
    h.delete_slot(0)
    assert 0 in g.slots


def test_copy_with_drops(grid3):
    g, _ = grid3
    dropped_darts = {d for d in range(48) if d >> 1 in g.slots
                     and g.dart_vertex(d) == 4}
    h = g.copy(drop_vertices={4})
    assert 4 not in set(h.vertices())
    assert h.vertex_count == 8
    for sid, slot in g.slots.items():
        if 4 in (slot.v0, slot.v1):
            assert sid not in h.slots
        else:
            assert sid in h.slots
    for v in h.vertices():
        kept = [d for d in g.rotation(v) if (d ^ 1) not in dropped_darts]
        assert h.rotation(v) == kept
    h.check()


def test_build_graph_validation():
    with pytest.raises(GraphError, match="out of range"):
        build_graph(2, [(0, 2, 0, 0, 1, 1)])
    with pytest.raises(SelfLoopSlotError):
        build_graph(2, [(1, 1, 0, 0, 1, 1)])
    with pytest.raises(GraphError, match="no arcs"):
        build_graph(2, [(0, 1, 0, 0, None, None)])
    with pytest.raises(NegativeWeightError):
        build_graph(2, [(0, 1, 0, 0, -1, None)])
    with pytest.raises(DuplicateArcError):
        build_graph(
            3,
            [(0, 1, 0, 0, 1, 1), (1, 0, 1, 1, 1, None)],
        )
    with pytest.raises(BadRotationError, match="used twice"):
        build_graph(
            3,
            [(0, 1, 0, 0, 1, 1), (0, 2, 0, 0, 1, 1)],
        )
    with pytest.raises(BadRotationError, match="positions"):
        build_graph(
            3,
            [(0, 1, 0, 0, 1, 1), (0, 2, 2, 0, 1, 1)],
        )


def test_build_graph_rejects_bool_endpoints_and_positions():
    # True == 1 and False == 0 as ints, but neither names a vertex or position
    with pytest.raises(GraphError, match="vertex True"):
        build_graph(2, [(0, True, 0, 0, 1, 1)])
    with pytest.raises(BadRotationError, match="position False"):
        build_graph(2, [(0, 1, False, 0, 1, 1)])


def test_lone_vertex_has_one_face():
    g = build_graph(1, [])
    assert g.vertex_count == 1
    assert g.face_count() == 1
    g.check()


@settings(max_examples=40, deadline=None)
@given(
    k=st.integers(min_value=2, max_value=4),
    seed=st.integers(min_value=0, max_value=10**9),
    tenths=st.integers(min_value=0, max_value=5),
)
def test_random_instances_are_planar(k, seed, tenths):
    g, outer = gen_random_planar(k, seed=seed, delete_prob=tenths / 10)
    g.check()
    walks = g.face_walks()
    assert 0 <= outer < len(walks)
    # Euler's formula for a connected plane multigraph
    assert g.vertex_count - g.slot_count + len(walks) == 2
    darts = [d for w in walks for d in w]
    assert sorted(darts) == sorted(2 * s + e for s in g.slots for e in (0, 1))
