"""Graph persistence: schema round-trips and failure modes."""

from __future__ import annotations

import hashlib
import io
import json

import pytest

from planar_mssp import (
    CorruptFileError,
    VersionMismatchError,
    build,
    build_graph,
    gen_grid,
    gen_random_planar,
    graph_from_json,
    graph_to_json,
    load_graph,
    normalize,
    save_graph,
)
from planar_mssp.io import dump_json


def graphs_equal(a, b) -> bool:
    if sorted(a.vertices()) != sorted(b.vertices()):
        return False
    if sorted(a.slots) != sorted(b.slots):
        return False
    for sid, slot in a.slots.items():
        other = b.slots[sid]
        if (slot.v0, slot.v1) != (other.v0, other.v1):
            return False
        for x, y in ((slot.a01, other.a01), (slot.a10, other.a10)):
            if (x is None) != (y is None) or (x is not None and x[0] != y[0]):
                return False
    return all(a.rotation(v) == b.rotation(v) for v in a.vertices())


def test_json_round_trip(grid3):
    g, outer = grid3
    doc = graph_to_json(g, outer)
    h, outer2 = graph_from_json(doc)
    assert outer2 == outer
    assert graphs_equal(g, h)
    h.check()


def test_file_round_trip(tmp_path, grid3):
    g, outer = grid3
    path = tmp_path / "g.json"
    save_graph(g, str(path), outer)
    h, outer2 = load_graph(str(path))
    assert outer2 == outer
    assert graphs_equal(g, h)


def test_dump_is_deterministic(tmp_path):
    g, outer = gen_grid(4, seed=9)
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    save_graph(g, str(p1), outer)
    save_graph(g, str(p2), outer)
    assert p1.read_bytes() == p2.read_bytes()
    assert p1.read_bytes().endswith(b"\n")


def test_dump_bytes_are_pinned(tmp_path):
    # digests recorded with the json.dump writer that dump_json replaced
    g, outer = gen_random_planar(7, seed=5, delete_prob=0.2)
    path = tmp_path / "g.json"
    save_graph(g, str(path), outer)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == (
        "66307c18643bd0a2ef6ad37aeaf586b61e7718cae82791b51fc92e1fa1012016"
    )
    # the trace digest was derived from the trace of the build that
    # stored three tables per node, with each node's "vertices" dropped
    buf = io.StringIO()
    dump_json(build(normalize(g, outer, seed=5)).trace(), buf)
    assert hashlib.sha256(buf.getvalue().encode()).hexdigest() == (
        "abf533753726dde9dfbd74d296ee35cca2753813459b7816ad4b3aef49b680f3"
    )


def test_one_way_arcs_survive(tmp_path, tri_oneway):
    path = tmp_path / "tri.json"
    save_graph(tri_oneway, str(path))
    h, outer = load_graph(str(path))
    assert outer is None
    assert graphs_equal(tri_oneway, h)
    assert (1, 0) not in {(tail, head) for tail, head, _ in h.arc_items()}


def test_slotless_graph_round_trip():
    g = build_graph(1, [])
    h, _ = graph_from_json(graph_to_json(g))
    assert h.vertex_count == 1
    assert h.slot_count == 0


def test_version_mismatch(grid3):
    doc = graph_to_json(*grid3)
    doc["version"] = 2
    with pytest.raises(VersionMismatchError, match="version 2"):
        graph_from_json(doc)


def test_wrong_format_name(grid3):
    doc = graph_to_json(*grid3)
    doc["format"] = "something-else"
    with pytest.raises(CorruptFileError):
        graph_from_json(doc)


def test_non_object_document():
    with pytest.raises(CorruptFileError):
        graph_from_json([1, 2, 3])


def test_invalid_json_file(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{this is not json")
    with pytest.raises(CorruptFileError, match="invalid JSON"):
        load_graph(str(path))


def test_structural_corruption_detected(grid3):
    g, outer = grid3
    base = graph_to_json(g, outer)

    doc = json.loads(json.dumps(base))
    doc["rotations"][0] = doc["rotations"][0][::-1] + [999]
    with pytest.raises(CorruptFileError):
        graph_from_json(doc)

    doc = json.loads(json.dumps(base))
    doc["vertex_count"] = 5
    with pytest.raises(CorruptFileError):
        graph_from_json(doc)

    doc = json.loads(json.dumps(base))
    doc["slots"][0] = doc["slots"][0][:2]
    with pytest.raises(CorruptFileError):
        graph_from_json(doc)

    doc = json.loads(json.dumps(base))
    doc["outer_face"] = 99
    with pytest.raises(CorruptFileError, match="outer_face"):
        graph_from_json(doc)

    doc = json.loads(json.dumps(base))
    del doc["slots"]
    with pytest.raises(CorruptFileError):
        graph_from_json(doc)


def test_bool_counts_and_faces_rejected(grid3):
    # JSON true would pass as the int 1: face 1, a one-vertex graph
    doc = graph_to_json(*grid3)
    doc["outer_face"] = True
    with pytest.raises(CorruptFileError, match="outer_face"):
        graph_from_json(doc)
    doc = graph_to_json(build_graph(1, []))
    doc["vertex_count"] = True
    with pytest.raises(CorruptFileError, match="vertex_count"):
        graph_from_json(doc)
    # dart 1 written as true
    doc = graph_to_json(build_graph(2, [(0, 1, 0, 0, 1, 1)]))
    assert doc["rotations"] == [[0], [1]]
    doc["rotations"][1] = [True]
    with pytest.raises(CorruptFileError, match="dart True"):
        graph_from_json(doc)


def test_duplicate_dart_in_rotations(grid3):
    g, outer = grid3
    doc = graph_to_json(g, outer)
    doc["rotations"][0][0] = doc["rotations"][1][0]
    with pytest.raises(CorruptFileError):
        graph_from_json(doc)
