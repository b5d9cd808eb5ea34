"""Rotation-system digraph: structure, faces, copying, validation."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planar_mssp import (
    BadRotationError,
    DuplicateArcError,
    GraphError,
    NegativeWeightError,
    SelfLoopSlotError,
    build_graph,
    gen_grid,
    gen_random_planar,
    graph_to_json,
    reverse_dart,
)
from tests.conftest import TRI_ONEWAY_SLOTS, arcs_by_id

# Derived by tests/oracles/face_orbits.py (independent rotation code):
# the 3x3 grid has five faces, walk lengths 4,4,4,4,8, and its length-8
# walk visits the boundary clockwise.
GRID3_FACE_LENGTHS = [4, 4, 4, 4, 8]
GRID3_BOUNDARY = [0, 1, 2, 5, 8, 7, 6, 3]


def rotations_of(cycle):
    return [cycle[i:] + cycle[:i] for i in range(len(cycle))]


def all_darts(g):
    """Every dart of g, ascending, read from the rotations."""
    return sorted(d for v in g.vertices() for d in g.rotation(v))


def dart_table(g):
    """(dart, its vertex, the arc into it) for every dart of g."""
    return [(d, g.dart_vertex(d), g.arc_into(d)) for d in all_darts(g)]


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
        assert len(all_darts(g)) == 2 * g.slot_count
        assert sorted(darts) == all_darts(g)


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
    assert arcs == {(0, 1): (5, 0), (1, 2): (7, 0), (0, 2): (4, 0)}
    # each arc's id is its tail dart
    assert [d for d, *_ in arcs_by_id(g)] == [0, 2, 4]
    # dart 1 sits at vertex 1 on slot 0; the arc 0->1 points into it, and
    # no arc 1->0 points into its reverse
    assert g.arc_into(1) == (5, 0)
    assert g.arc_into(1 ^ 1) is None


def test_copy_preserves_structure(grid3):
    g, _ = grid3
    h = g.copy()
    assert h.slot_count == g.slot_count
    for v in g.vertices():
        assert h.rotation(v) == g.rotation(v)
    h.check()
    # independent storage: mutating the copy leaves the original alone
    before = dart_table(g)
    h._arc[0] = (999, 1)
    h._arc[3] = None
    assert dart_table(g) == before


def test_copy_with_drops(grid3):
    g, _ = grid3
    dropped_darts = set(g.rotation(4))
    h = g.copy(drop_vertices={4})
    assert 4 not in set(h.vertices())
    assert h.vertex_count == 8
    kept_darts = set(all_darts(h))
    for d in all_darts(g):
        if d in dropped_darts or d ^ 1 in dropped_darts:
            assert d not in kept_darts
        else:
            assert d in kept_darts
    for v in h.vertices():
        kept = [d for d in g.rotation(v) if (d ^ 1) not in dropped_darts]
        assert h.rotation(v) == kept
    h.check()


def test_copy_dropping_two_adjacent_vertices():
    # the slot 0-1 goes with vertex 0's rotation, so vertex 1's rotation
    # meets its dart already gone: 12 slots less 2 + 3 - 1
    g, _ = gen_grid(3, seed=1)
    assert g.rotation(0)[0] ^ 1 in g.rotation(1)
    h = g.copy([0, 1])
    assert sorted(h.vertices()) == [2, 3, 4, 5, 6, 7, 8]
    assert (h.vertex_count, h.slot_count, h.face_count()) == (7, 8, 3)
    for v in h.vertices():
        assert h.rotation(v) == [d for d in g.rotation(v) if g.dart_vertex(d ^ 1) > 1]
    h.check()


def test_accessors_reject_darts_that_do_not_exist(grid3):
    g, _ = grid3
    h = g.copy(drop_vertices={4})
    gone = g.rotation(4)[0]
    for d in (-1, -2, gone, gone ^ 1, 2 * g.slot_count):
        with pytest.raises(KeyError):
            h.dart_vertex(d)
        with pytest.raises(KeyError):
            h.arc_into(d)


def test_add_slot_checks_before_it_changes_anything():
    g = build_graph(3, TRI_ONEWAY_SLOTS)
    before = (graph_to_json(g), list(g.arc_items()))
    with pytest.raises(GraphError, match="no vertex 5"):
        g.add_slot(0, 5, (1, 0), None)
    # dart 1 sits at vertex 1, and there is no dart 99
    with pytest.raises(GraphError, match="not at vertex 0"):
        g.add_slot(0, 2, (1, 0), None, after_u=1)
    with pytest.raises(GraphError, match="not at vertex 2"):
        g.add_slot(0, 2, (1, 0), None, after_v=99)
    assert (graph_to_json(g), list(g.arc_items())) == before
    g.check()


def test_add_vertex_rejects_a_present_vertex():
    g = build_graph(3, TRI_ONEWAY_SLOTS)
    before = graph_to_json(g)
    with pytest.raises(GraphError, match="vertex 2 already present"):
        g.add_vertex(2)
    assert graph_to_json(g) == before


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
    assert len(all_darts(g)) == 2 * g.slot_count
    assert sorted(darts) == all_darts(g)
