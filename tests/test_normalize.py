"""Instance normalization: ring vertices, spokes, augmentation, perturbations."""

from __future__ import annotations

import io
from collections import Counter

import pytest

from planar_mssp import (
    DisconnectedInputError,
    DuplicateArcError,
    EmbeddedDigraph,
    FaceNotFoundError,
    GraphError,
    NegativeWeightError,
    SelfLoopSlotError,
    build,
    build_graph,
    gen_grid,
    gen_random_planar,
    graph_to_json,
    load,
    normalize,
    verify,
)
from planar_mssp.normalize import ARC_ORIGINAL, ARC_REVERSE, ARC_SPOKE, ArcInfo
from tests.conftest import BOWTIE_SLOTS, TRI_ONEWAY_SLOTS, arcs_by_id
from tests.test_persistence import oneway_grid

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
        assert g.arc_into(d ^ 1) is not None
        assert g.dart_vertex(d ^ 1) == b
        assert norm.arcs[d].kind == ARC_SPOKE


def test_grid2_ring_cycle(norm2):
    # the ring vertices are not joined into a cycle: no slot joins two of
    # them, and each one's only dart is its spoke's
    ring = set(norm2.ring_roots)
    g = norm2.graph
    assert not [d for r in ring for d in g.rotation(r) if g.dart_vertex(d ^ 1) in ring]
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
    before = (graph_to_json(g), list(g.arc_items()))
    normalize(g, 0, seed=0)
    assert (graph_to_json(g), list(g.arc_items())) == before
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


def test_single_vertex_face_is_index_0_or_the_empty_walk():
    # a lone vertex has one face and no darts: index 0 and the empty walk
    # name it, and no other index does
    with pytest.raises(FaceNotFoundError, match="^face index 1 out of range$"):
        normalize(build_graph(1, []), 1, seed=0)
    norm = normalize(build_graph(1, []), [], seed=0)
    assert norm.face_vertices == [0]
    assert build(norm).distance(0, 0) == 0


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
            path = oracle.query_path(j, u)
            assert sum(norm.arcs[a].base for a in path) == abs(b - u) * top
            assert len(path) == abs(b - u)
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


def hand_graph(vertices, slots) -> EmbeddedDigraph:
    """A graph built only with EmbeddedDigraph's methods, as a caller could.

    vertices is a count n, for the vertices 0..n-1, or a list of vertex
    ids. Each slot is (u, v, arc_uv, arc_vu) with whole (base, perturb)
    arcs, and its darts land wherever add_slot puts them by default.
    """
    g = EmbeddedDigraph()
    for v in range(vertices) if isinstance(vertices, int) else vertices:
        g.add_vertex(v)
    for u, v, arc_uv, arc_vu in slots:
        g.add_slot(u, v, arc_uv, arc_vu)
    return g


@pytest.mark.parametrize("weight", [1.5, 2.0, True, False, "3"])
def test_non_int_weight_rejected(weight):
    with pytest.raises(GraphError, match="not an int"):
        build_graph(2, [(0, 1, 0, 0, weight, 1)])
    # a graph built by hand meets the same rule in normalize
    g = hand_graph(2, [(0, 1, (weight, 0), (1, 0))])
    with pytest.raises(GraphError, match="not an int"):
        normalize(g, 0, seed=0)


# a triangle with both directions on every slot; the third slot's darts
# sit where add_slot puts them
HAND_TRI = [
    (0, 1, (1, 0), (2, 0)),
    (1, 2, (3, 0), (4, 0)),
    (0, 2, (5, 0), (6, 0)),
]


def tri_with(sid: int, arc_uv, arc_vu=None):
    """HAND_TRI with slot sid's arcs replaced."""
    slots = list(HAND_TRI)
    u, v, _, old_vu = slots[sid]
    slots[sid] = (u, v, arc_uv, old_vu if arc_vu is None else arc_vu)
    return slots


K4 = [(u, v, (1, 0), (1, 0)) for u in range(4) for v in range(u + 1, 4)]


def none_successor_grid3():
    """gen_grid(3, seed=1)'s graph with one rotation link at vertex 4 None."""
    g, _ = gen_grid(3, seed=1)
    g._next[g.rotation(4)[0]] = None
    return g


HOSTILE = {
    "disconnected": (4, [(0, 1, (1, 0), None), (2, 3, (1, 0), None)], 0,
                     DisconnectedInputError, "not connected"),
    "disconnected-duplicate-pair": (
        4, [(0, 1, (1, 0), None), (0, 1, (2, 0), None), (2, 3, (1, 0), None)], 0,
        DisconnectedInputError, "not connected"),
    "k4-euler-0": (4, K4, 0, GraphError, "Euler characteristic 0"),
    "duplicate-pair": (3, HAND_TRI + [(0, 1, (7, 0), None)], 0,
                       DuplicateArcError, r"pair \(0, 1\)"),
    "negative-base": (3, tri_with(0, (-1, 0)), 0, NegativeWeightError, "weight"),
    "negative-perturbation": (3, tri_with(0, (1, -1)), 0, NegativeWeightError, "weight"),
    "bad-face-duplicate-pair": (3, HAND_TRI + [(0, 1, (7, 0), None)], 99,
                                FaceNotFoundError, "out of range"),
    "pair-arc": (3, tri_with(0, (1, 0, 0)), 0, GraphError, "not an int pair"),
    "no-arcs": (3, [(0, 1, None, None), *HAND_TRI[1:]], 0, GraphError, "no arcs"),
    "self-loop": (3, HAND_TRI + [(0, 0, (1, 0), None)], 0, SelfLoopSlotError, "itself"),
    "str-vertex": (["a", "b"], [("a", "b", (1, 0), (1, 0))], 0,
                   GraphError, "vertex 'a' is not an int"),
    "bool-vertex": ([0, True], [(0, True, (1, 0), (1, 0))], 0,
                    GraphError, "vertex True is not an int"),
    # a face walk stops at the missing link, and then the rotation check
    # finds the darts it no longer reaches
    "none-successor": (none_successor_grid3, None, 0, GraphError, "orphan darts"),
    "bad-face-none-successor": (none_successor_grid3, None, 99,
                                FaceNotFoundError, "out of range"),
}


@pytest.mark.parametrize("name", sorted(HOSTILE))
def test_hostile_input_fails_typed(name):
    n, slots, face, error, message = HOSTILE[name]
    g = n() if callable(n) else hand_graph(n, slots)
    if name == "k4-euler-0":
        assert g.vertex_count - g.slot_count + g.face_count() == 0
    with pytest.raises(error, match=message):
        normalize(g, face, seed=0)
    if error is not FaceNotFoundError:
        with pytest.raises(error, match=message):
            g.check()


def break_rotation(g, rule: str) -> None:
    """Break one rotation rule of g, a gen_grid(3) graph, in place."""
    rot = g.rotation(4)
    if rule == "does not sit at it":
        g._entry[0] = rot[0]  # vertex 0's rotation starts at vertex 4
    elif rule == "does not close":
        g._next[rot[-1]] = rot[1]  # the walk from rot[0] never returns
    else:
        g._next[rot[0]] = rot[2]  # rot[1] is in no rotation


@pytest.mark.parametrize("rule", ["does not sit at it", "does not close", "orphan darts"])
def test_broken_rotation_fails_typed(rule):
    g, outer = gen_grid(3, seed=1)
    break_rotation(g, rule)
    with pytest.raises(GraphError, match=rule):
        normalize(g, outer, seed=1)
    with pytest.raises(GraphError, match=rule):
        g.check()


def test_hand_built_graph_is_accepted():
    g = hand_graph(3, HAND_TRI)
    g.check()
    report = verify(g, 0, seed=1, force_exhaustive=True)
    assert report.passed and report.pairs_checked


def normalized_corpus():
    """(name, graph, faces) of the inputs whose normalized graphs are checked."""
    for k in range(2, 6):
        g, _ = gen_grid(k, seed=k)
        yield f"grid{k}", g, range(g.face_count())
    for seed in range(3):
        g, _ = gen_random_planar(6, seed=seed, delete_prob=0.4)
        yield f"random6-s{seed}", g, range(g.face_count())
    for name, n, slots in (("bowtie", 5, BOWTIE_SLOTS), ("tri_oneway", 3, TRI_ONEWAY_SLOTS)):
        g = build_graph(n, slots)
        yield name, g, range(g.face_count())
    yield "single", build_graph(1, []), [0]
    g, centre = oneway_grid(16)
    yield "grid16-oneway", g, [centre, 0]


def test_normalized_instances_meet_the_contract():
    # normalize checks its input only; its output keeps the contract by
    # construction, which this checks
    for name, g, faces in normalized_corpus():
        for face in faces:
            norm = normalize(g, face, seed=face)
            norm.graph.check()
            assert norm.graph.vertex_count == g.vertex_count + norm.root_count, (name, face)


def arc_table_by_position(g, norm) -> dict:
    """norm's arc table by where each arc sits, as normalize decides kinds.

    An arc on a dart the input lacks is a spoke; one on an input dart is
    an original arc where the input has an arc there, and otherwise a
    reverse arc, whose ordered pair the input does not carry.
    """
    input_darts = {d for v in g.vertices() for d in g.rotation(v)}
    pairs = {(tail, head) for tail, head, _ in g.arc_items()}
    table = {}
    for d, tail, head, arc in arcs_by_id(norm.graph):
        if d not in input_darts:
            kind = ARC_SPOKE
        elif g.arc_into(d ^ 1) is not None:
            assert g.arc_into(d ^ 1)[0] == arc[0]
            kind = ARC_ORIGINAL
        else:
            assert (tail, head) not in pairs and arc[0] == norm.w_big
            kind = ARC_REVERSE
        table[d] = ArcInfo(tail, head, arc[0], arc[1], kind)
    return table


def derived_arc_corpus():
    """normalized_corpus plus zero weights, alone (W_big 1) and one-way."""
    yield from normalized_corpus()
    g, _ = gen_grid(4, max_weight=0, seed=1)
    yield "grid4-zero", g, range(g.face_count())
    g = build_graph(3, [(u, v, pu, pv, 0, None) for u, v, pu, pv, _, _ in TRI_ONEWAY_SLOTS])
    yield "tri_oneway-zero", g, range(g.face_count())


def test_derived_arc_table():
    # arcs is derived from the normalized graph by tail and base; it must
    # equal, in key order, the table that dart positions and the input's
    # pairs give, and a build must not derive it
    w_bigs = set()
    kinds = Counter()
    for name, g, faces in derived_arc_corpus():
        for face in faces:
            norm = normalize(g, face, seed=face)
            build(norm)
            assert "arcs" not in vars(norm), (name, face)
            want = arc_table_by_position(g, norm)
            assert list(norm.arcs.items()) == list(want.items()), (name, face)
            w_bigs.add(norm.w_big)
            kinds.update(a.kind for a in want.values())
    assert 1 in w_bigs
    assert kinds.keys() == {ARC_ORIGINAL, ARC_REVERSE, ARC_SPOKE}
