"""Oracle persistence: pinned bytes, validation at load, bounded walks, GC state."""

from __future__ import annotations

import gc
import hashlib
import io
import json
import random
import time

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
    load,
    normalize,
)
from planar_mssp.mssp import ORACLE_VERSION
from planar_mssp.normalize import ARC_SPOKE
from tests.conftest import BOWTIE_SLOTS, TRI_ONEWAY_SLOTS

# SHA-256 of each saved oracle with stats.build_seconds set to 0.0. Each
# was derived from the version 1 document of the same instance by
# dropping its "ring" arc rows, taking the ring cycle's slots and arcs out
# of stats.per_level (N at level 0, N >= 3; one slot and two arcs for
# N = 2; i2 - i1 at a deeper node) and setting version 2: deleting the
# ring cycle left nodes and records unchanged. Any change to these bytes
# is a format change and needs a version bump.
GATE_DIGESTS = {
    "grid8-outer": "f7cdb9bebebfee068d88a7bd00e971079a41e426c6981955c6adaaba6f6cc794",
    "grid16-outer": "d497a92a482a2f56c8979b9357ad22d200966207cc45bdbbb15b794a33265c8c",
    "random10-outer": "ac746d7ec625a0d1e6ce479e75710584b17ab407f6655d9a455b7f98ff6140d3",
    "bowtie-inner": "3e2b42196823579e04bf14c0250fdec1c89f112a2823de22e3b6dc73d0297538",
    "tri_oneway-inner": "65a2d93161c72ab9b9257e424a7531a38b2a4d8139ee1aa0a45322457327d8d2",
    "grid32-outer": "18a767895ce56306ffe3fb69811569fd9508b168d65e5d05c69794ac77e58323",
    "grid16-oneway-inner": "51b64b004b89af515dba1750335c6622e25ffc002d10f6803bd42792201e5b3b",
    "random12-inner": "8d57e332ff029b2be501c88a1ff3673897381c78359131ae1fdf866dff85e0e0",
}
# the 4096-vertex grid of the benchmark's grid-outer workload; one save only
LARGE_GATE = (
    "grid64-outer", "92226c54d7cc569b5f74680d3eeb422c10eb7dd55e5ff77b12c6ff2c00a3aa71"
)


def oneway_grid(k: int):
    """A k-grid with a fixed 30 % of its slots one-way, and its centre face.

    The one-way pattern is drawn as the benchmark's inner-oneway input is.
    """
    g, _ = gen_grid(k, seed=0)
    doc = graph_to_json(g)
    rng = random.Random("oneway:0")
    for slot in doc["slots"]:
        if rng.random() < 0.3:
            slot[2 + rng.randrange(2)] = None
    g, _ = graph_from_json(doc)
    c = k // 2 - 1
    centre = {c * k + c, c * k + c + 1, (c + 1) * k + c, (c + 1) * k + c + 1}
    walks = g.face_walks()
    face = next(
        fi for fi, walk in enumerate(walks)
        if len(walk) == 4 and {g.dart_vertex(d) for d in walk} == centre
    )
    return g, face


def longest_inner_face(g, outer: int) -> int:
    walks = g.face_walks()
    return max((fi for fi in range(len(walks)) if fi != outer), key=lambda fi: len(walks[fi]))


def gate_instance(name: str):
    """(graph, face, normalize seed) of one gate-set oracle."""
    if name == "grid8-outer":
        return (*gen_grid(8, seed=1), 7)
    if name == "grid16-outer":
        return (*gen_grid(16, seed=2), 7)
    if name == "random10-outer":
        return (*gen_random_planar(10, seed=3, delete_prob=0.3), 7)
    if name == "bowtie-inner":
        return build_graph(5, BOWTIE_SLOTS), 0, 5  # face 0: a triangle
    if name == "tri_oneway-inner":
        return build_graph(3, TRI_ONEWAY_SLOTS), 1, 5
    if name == "grid32-outer":
        return (*gen_grid(32), 7)
    if name == "grid64-outer":
        return (*gen_grid(64, seed=0), 7)
    if name == "grid16-oneway-inner":
        return (*oneway_grid(16), 7)
    if name == "random12-inner":
        g, outer = gen_random_planar(12, seed=4, delete_prob=0.3)
        return g, longest_inner_face(g, outer), 7
    raise KeyError(name)


def small_oracle():
    g, outer = gen_grid(4, seed=1)
    return build(normalize(g, outer, seed=1))


def load_doc(doc: dict):
    return load(io.StringIO(json.dumps(doc)))


@pytest.mark.parametrize("name", sorted(GATE_DIGESTS))
def test_saved_bytes_match_gate_digest(tmp_path, name):
    g, face, seed = gate_instance(name)
    oracle = build(normalize(g, face, seed=seed))
    oracle.stats.build_seconds = 0.0
    path = tmp_path / "oracle.json"
    oracle.save(str(path))
    buf = io.StringIO()
    oracle.save(buf)
    expected = json.dumps(oracle.to_json(), sort_keys=True, separators=(",", ":")) + "\n"
    assert path.read_text(encoding="utf-8") == expected
    assert buf.getvalue() == expected
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GATE_DIGESTS[name]


def test_saved_bytes_match_gate_digest_large():
    name, digest = LARGE_GATE
    g, face, seed = gate_instance(name)
    oracle = build(normalize(g, face, seed=seed))
    oracle.stats.build_seconds = 0.0
    buf = io.StringIO()
    oracle.save(buf)
    assert hashlib.sha256(buf.getvalue().encode("utf-8")).hexdigest() == digest


def test_oracle_version_is_two():
    assert ORACLE_VERSION == 2


def test_version_one_file_is_rejected():
    doc = small_oracle().to_json()
    doc["version"] = 1
    with pytest.raises(VersionMismatchError):
        load_doc(doc)


def test_empty_record_stream_round_trips():
    oracle = build(normalize(build_graph(1, []), 0, seed=0))
    assert not oracle.records
    buf = io.StringIO()
    oracle.save(buf)
    assert '"records":[]' in buf.getvalue()
    assert load(io.StringIO(buf.getvalue())).distance(0, 0) == 0


def test_truncated_column_is_rejected():
    doc = small_oracle().to_json()
    base = doc["nodes"][0][4][0][1]
    del base[-3:]
    t0 = time.perf_counter()
    with pytest.raises(CorruptFileError, match="rows"):
        load_doc(doc)
    assert time.perf_counter() - t0 < 1.0


def test_chain_row_out_of_range_is_rejected():
    doc = small_oracle().to_json()
    with_chains = [
        table for node in doc["nodes"] for table in node[4] if table[6]
    ]
    assert with_chains, "fixture oracle has no tail chains"
    table = with_chains[0]
    table[6][0][0] = len(table[1])
    with pytest.raises(CorruptFileError, match="chain row"):
        load_doc(doc)


def test_self_parent_table_raises_in_bounded_time():
    oracle = small_oracle()
    doc = oracle.to_json()
    for node in doc["nodes"]:
        vertices = node[3]
        for table in node[4]:
            table[4] = list(vertices)  # every row its own parent
    loaded = load_doc(doc)
    j, u = 0, max(oracle.query_vertices, key=lambda v: len(oracle.query_path(0, v)))
    t0 = time.perf_counter()
    with pytest.raises(CorruptFileError, match="cycle"):
        loaded.query_path(j, u)
    assert time.perf_counter() - t0 < 1.0


def test_self_parent_record_raises_in_bounded_time():
    oracle = small_oracle()
    doc = oracle.to_json()
    for record in doc["records"]:
        for entry in record[2]:
            if entry[0] != entry[1]:  # not the record tree's root
                entry[4] = entry[0]
    loaded = load_doc(doc)
    pair = next(
        (j, u)
        for j in range(oracle.ring_count)
        for u in sorted(oracle.query_vertices)
        if any(vert != oracle.records[key][vert].parent
               for key, vert in oracle.explain(j, u).hits)
    )
    t0 = time.perf_counter()
    with pytest.raises(CorruptFileError, match="cycle"):
        loaded.query_path(*pair)
    assert time.perf_counter() - t0 < 1.0


def test_missing_node_is_rejected():
    doc = small_oracle().to_json()
    del doc["nodes"][-1]
    with pytest.raises(CorruptFileError):
        load_doc(doc)


def test_missing_terminal_table_is_rejected():
    oracle = small_oracle()
    j = oracle.ring_count // 3
    terminal = list(oracle.descent_intervals(j)[-1])
    doc = oracle.to_json()
    node = next(node for node in doc["nodes"] if node[:2] == terminal)
    node[4] = [table for table in node[4] if table[0] != j]
    with pytest.raises(CorruptFileError):
        load_doc(doc)


def corrupt_path_answers(doc: dict) -> int:
    """Ask a damaged oracle for every path; count the CorruptFileErrors.

    Any other error, a KeyError above all, propagates and fails the test.
    """
    loaded = load_doc(doc)
    raised = 0
    for j in range(loaded.ring_count):
        for u in sorted(loaded.query_vertices):
            try:
                loaded.query_path(j, u)
            except CorruptFileError:
                raised += 1
    return raised


def test_record_parent_outside_its_table_raises():
    doc = small_oracle().to_json()
    for record in doc["records"]:
        for entry in record[2]:
            if entry[0] != entry[1]:  # not the record tree's root
                entry[4] = 10**6
    assert corrupt_path_answers(doc) > 0


def test_chain_key_without_record_raises():
    doc = small_oracle().to_json()
    chains = [chain for node in doc["nodes"] for table in node[4] for _, chain in table[6]]
    assert chains, "fixture oracle has no tail chains"
    for chain in chains:
        for hop in chain:
            hop[0] = 10**6  # midpoint of no record
    assert corrupt_path_answers(doc) > 0


def test_parent_vertex_outside_its_node_raises():
    doc = small_oracle().to_json()
    for node in doc["nodes"]:
        for table in node[4]:
            table[4] = [-1 if v < 0 else 10**6 for v in table[4]]
    assert corrupt_path_answers(doc) > 0


def test_parent_arc_outside_the_arc_list_raises():
    doc = small_oracle().to_json()
    for node in doc["nodes"]:
        for table in node[4]:
            table[5] = [-1 if a < 0 else 10**6 for a in table[5]]
    with pytest.raises(CorruptFileError, match="arc ids"):
        load_doc(doc)


def test_unknown_arc_later_in_a_path_is_rejected_at_load():
    # one parent arc that is never a path's first arc (not a spoke): a
    # path walk would report it after the arcs before it
    oracle = small_oracle()
    doc = oracle.to_json()
    spokes = {aid for aid, a in oracle.arcs.items() if a.kind == ARC_SPOKE}
    par_arc = next(
        table[5] for node in doc["nodes"] for table in node[4]
        if any(a >= 0 and a not in spokes for a in table[5])
    )
    row = next(r for r, a in enumerate(par_arc) if a >= 0 and a not in spokes)
    par_arc[row] = 10**6
    with pytest.raises(CorruptFileError, match="arc ids"):
        load_doc(doc)


def test_unknown_record_arc_is_rejected_at_load():
    doc = small_oracle().to_json()
    entry = next(e for rec in doc["records"] for e in rec[2] if e[5] >= 0)
    entry[5] = 10**6
    with pytest.raises(CorruptFileError, match="arc ids"):
        load_doc(doc)


class _FailingSink:
    def write(self, text: str) -> int:
        raise OSError("disk full")


def test_gc_stays_enabled_after_failed_load_and_save():
    assert gc.isenabled()
    with pytest.raises(CorruptFileError):
        load(io.StringIO('{"format":"planar-mssp-oracle","version":2}'))
    assert gc.isenabled()
    with pytest.raises(OSError, match="disk full"):
        small_oracle().save(_FailingSink())
    assert gc.isenabled()


def test_gc_stays_disabled_for_a_caller_who_disabled_it():
    oracle = small_oracle()
    gc.disable()
    try:
        g, outer = gen_grid(3, seed=1)
        build(normalize(g, outer, seed=1))
        assert not gc.isenabled()
        buf = io.StringIO()
        oracle.save(buf)
        assert not gc.isenabled()
        load(io.StringIO(buf.getvalue()))
        assert not gc.isenabled()
        with pytest.raises(CorruptFileError):
            load(io.StringIO("{oops"))
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_built_oracle_is_freed_by_reference_counting():
    g, outer = gen_grid(16, seed=0)
    norm = normalize(g, outer, seed=7)
    gc.collect()
    gc.disable()
    try:
        oracle = build(norm)
        del oracle
        assert gc.collect() == 0
    finally:
        gc.enable()
