"""Instance normalization: ring vertices, spokes, augmentation, perturbations."""

from __future__ import annotations

import io
from collections import Counter

import pytest

from planar_mssp import (
    DisconnectedInputError,
    FaceNotFoundError,
    GraphError,
    UNREACHABLE,
    LexWeight,
    build,
    build_graph,
    load,
    map_answer,
    normalize,
)
from planar_mssp.normalize import ARC_ORIGINAL, ARC_REVERSE, ARC_SPOKE

# 2x2 grid, every arc weight 1, rotations laid out in the plane (row
# major: 0 1 / 2 3). Its clockwise outer cycle is 0,1,3,2.
GRID2_SLOTS = [
    (0, 1, 0, 0, 1, 1),
    (0, 2, 1, 0, 1, 1),
    (1, 3, 1, 1, 1, 1),
    (2, 3, 1, 0, 1, 1),
]
GRID2_BOUNDARY = [0, 1, 3, 2]


def outer_face_of(g, boundary):
    turns = [boundary[i:] + boundary[:i] for i in range(len(boundary))]
    for fi, walk in enumerate(g.face_walks()):
        if [g.dart_vertex(d) for d in walk] in turns:
            return fi
    raise AssertionError("no face walks the expected boundary")


@pytest.fixture(scope="module")
def norm2():
    g = build_graph(4, GRID2_SLOTS)
    return normalize(g, outer_face_of(g, GRID2_BOUNDARY), seed=0)


def test_grid2_ring_shape(norm2):
    # hand-derived: W_big = 4 vertices * max weight 1 + 1
    assert norm2.w_big == 5
    assert norm2.n_original == 4
    assert norm2.root_count == 4
    turns = [GRID2_BOUNDARY[i:] + GRID2_BOUNDARY[:i] for i in range(4)]
    assert norm2.face_vertices in turns
    assert norm2.ring_roots == [4, 5, 6, 7]
    assert norm2.ring_index == {4: 0, 5: 1, 6: 2, 7: 3}


def test_grid2_arc_kinds(norm2):
    kinds = Counter(info.kind for info in norm2.arcs.values())
    # 8 original arcs and one spoke per boundary vertex, nothing to
    # augment: every slot already carries both directions
    assert kinds == {ARC_ORIGINAL: 8, ARC_SPOKE: 4}


def test_grid2_spokes(norm2):
    spokes = [i for i in norm2.arcs.values() if i.kind == ARC_SPOKE]
    assert {s.base for s in spokes} == {0}
    assert {(s.tail, s.head) for s in spokes} == {
        (norm2.ring_roots[i], norm2.face_vertices[i]) for i in range(4)
    }


def assert_ring_vertices_pendant(norm):
    """Each ring vertex has exactly one dart, that of its outgoing spoke."""
    g = norm.graph
    for r, b in zip(norm.ring_roots, norm.face_vertices):
        (d,) = g.rotation(r)
        assert g.arc_into(d) is None
        arc = g.arc_into(d ^ 1)
        assert g.dart_vertex(d ^ 1) == b
        assert norm.arcs[arc[2]].kind == ARC_SPOKE


def test_grid2_ring_cycle(norm2):
    # the ring vertices are not joined into a cycle: no slot joins two of
    # them, and each one's only dart is its spoke's
    ring = set(norm2.ring_roots)
    assert not [s for s in norm2.graph.slots.values() if {s.v0, s.v1} <= ring]
    assert_ring_vertices_pendant(norm2)


def test_grid2_ring_rotations(norm2):
    g = norm2.graph
    assert g.vertex_count == 8
    g.check()
    for r in norm2.ring_roots:
        assert len(g.rotation(r)) == 1


def test_perturbations_distinct_and_bounded(norm2):
    perturbs = [i.perturb for i in norm2.arcs.values()]
    assert len(set(perturbs)) == len(perturbs)
    assert all(0 <= p < 1 << 63 for p in perturbs)


def test_seed_determinism():
    g = build_graph(4, GRID2_SLOTS)
    outer = outer_face_of(g, GRID2_BOUNDARY)
    a = normalize(g, outer, seed=7)
    b = normalize(g, outer, seed=7)
    c = normalize(g, outer, seed=8)
    assert a.arcs == b.arcs
    assert a.arcs != c.arcs
    same = {aid: info._replace(perturb=0) for aid, info in a.arcs.items()}
    other = {aid: info._replace(perturb=0) for aid, info in c.arcs.items()}
    assert same == other  # only perturbations move with the seed


def test_input_graph_untouched():
    g = build_graph(4, GRID2_SLOTS)
    before = {sid: (s.v0, s.v1, s.a01, s.a10) for sid, s in g.slots.items()}
    normalize(g, 0, seed=0)
    assert {sid: (s.v0, s.v1, s.a01, s.a10) for sid, s in g.slots.items()} == before
    assert g.vertex_count == 4


def test_reverse_augmentation(tri_oneway):
    norm = normalize(tri_oneway, 0, seed=0)
    # max weight 7 over 3 vertices
    assert norm.w_big == 22
    kinds = Counter(i.kind for i in norm.arcs.values())
    assert kinds == {ARC_ORIGINAL: 3, ARC_REVERSE: 3, ARC_SPOKE: 3}
    assert_ring_vertices_pendant(norm)
    rev = {(i.tail, i.head) for i in norm.arcs.values() if i.kind == ARC_REVERSE}
    assert rev == {(1, 0), (2, 1), (2, 0)}
    assert all(
        i.base == norm.w_big for i in norm.arcs.values() if i.kind == ARC_REVERSE
    )


def test_no_augmentation_when_pair_on_other_slot():
    # two antiparallel one-way slots: both ordered pairs exist, so the
    # missing directions must stay missing
    g = build_graph(2, [(0, 1, 0, 0, 3, None), (0, 1, 1, 1, None, 4)])
    norm = normalize(g, 0, seed=0)
    kinds = Counter(i.kind for i in norm.arcs.values())
    assert kinds == {ARC_ORIGINAL: 2, ARC_SPOKE: 2}
    assert_ring_vertices_pendant(norm)


def test_cut_vertex_face(bowtie):
    walks = bowtie.face_walks()
    pinched = [i for i, w in enumerate(walks) if len(w) == 6]
    assert len(pinched) == 1
    tails = [bowtie.dart_vertex(d) for d in walks[pinched[0]]]
    assert Counter(tails)[0] == 2
    norm = normalize(bowtie, pinched[0], seed=0)
    # five distinct vertices on a walk of length six: one ring each
    assert norm.root_count == 5
    assert sorted(norm.face_vertices) == [0, 1, 2, 3, 4]
    norm.graph.check()


def test_single_vertex():
    norm = normalize(build_graph(1, []), 0, seed=0)
    assert norm.root_count == 1
    assert norm.face_vertices == [0]
    kinds = Counter(i.kind for i in norm.arcs.values())
    assert kinds == {ARC_SPOKE: 1}


def test_face_given_as_rotated_walk():
    g = build_graph(4, GRID2_SLOTS)
    outer = outer_face_of(g, GRID2_BOUNDARY)
    walk = g.face_walks()[outer]
    rotated = walk[2:] + walk[:2]
    norm_a = normalize(g, outer, seed=0)
    norm_b = normalize(g, rotated, seed=0)
    assert norm_a.face_vertices == norm_b.face_vertices
    assert norm_a.arcs == norm_b.arcs


def test_face_resolution_errors():
    g = build_graph(4, GRID2_SLOTS)
    with pytest.raises(FaceNotFoundError, match="out of range"):
        normalize(g, 5, seed=0)
    walk = g.face_walks()[0]
    with pytest.raises(FaceNotFoundError):
        normalize(g, walk[::-1], seed=0)
    with pytest.raises(FaceNotFoundError):
        normalize(g, [], seed=0)


def test_bool_face_rejected():
    # True == 1 as an int, but a bool names no face
    g = build_graph(4, GRID2_SLOTS)
    with pytest.raises(FaceNotFoundError):
        normalize(g, True, seed=0)


def test_disconnected_input_rejected():
    with pytest.raises(DisconnectedInputError):
        normalize(build_graph(2, []), 0, seed=0)


def test_empty_graph_rejected():
    with pytest.raises(GraphError):
        normalize(build_graph(0, []), 0, seed=0)


def test_weight_guard():
    big = 1 << 59
    g = build_graph(2, [(0, 1, 0, 0, big, big)])
    with pytest.raises(GraphError, match="too large"):
        normalize(g, 0, seed=0)
    ok = build_graph(2, [(0, 1, 0, 0, 1 << 55, 1 << 55)])
    normalize(ok, 0, seed=0)


def path_at_cap(n: int, over: int):
    """A two-way path on n vertices, every arc at the largest admitted weight + over.

    Its distances reach (n - 1) * max_weight, the most a simple path holds.
    """
    cap = ((1 << 62) - 1) // (2 * n)  # the largest W_big with 2 * n * W_big < 2**62
    top = (cap - 1) // n + over
    return build_graph(n, [(i, i + 1, 1 if i else 0, 0, top, top) for i in range(n - 1)]), top


def test_path_at_the_admission_cap_is_exact():
    n = 8
    g, top = path_at_cap(n, 0)
    norm = normalize(g, 0, seed=3)
    assert 2 * n * norm.w_big < 1 << 62 <= 2 * n * (norm.w_big + n)
    buf = io.BytesIO()
    build(norm).save(buf)
    oracle = load(io.BytesIO(buf.getvalue()))
    for j, b in enumerate(oracle.face_vertices):
        for u in range(n):
            assert oracle.distance(j, u) == abs(b - u) * top
            assert oracle.query_dist(j, u).base == abs(b - u) * top
            assert len(oracle.query_path(j, u)) == abs(b - u)
    ends = oracle.face_vertices.index(0)
    assert oracle.distance(ends, n - 1) == (n - 1) * top


def test_path_one_unit_over_the_admission_cap_is_refused():
    g, _ = path_at_cap(8, 1)
    with pytest.raises(GraphError, match="too large"):
        normalize(g, 0, seed=3)


def test_huge_weight_is_too_large_not_absent():
    # every input weight counts toward the cap, however large
    for w in (1 << 199, 1 << 200, 1 << 300):
        g = build_graph(2, [(0, 1, 0, 0, w, 1)])
        with pytest.raises(GraphError, match="too large"):
            normalize(g, 0, seed=0)


@pytest.mark.parametrize("weight", [1.5, 2.0, True, False, "3"])
def test_non_int_weight_rejected(weight):
    with pytest.raises(GraphError, match="not an int"):
        build_graph(2, [(0, 1, 0, 0, weight, 1)])


def test_map_answer():
    assert map_answer(LexWeight(4, 123), 5) == 4
    assert map_answer(LexWeight(5, 0), 5) is UNREACHABLE
    assert map_answer(LexWeight(6, 0), 5) is UNREACHABLE
    assert repr(UNREACHABLE) == "UNREACHABLE"
