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
# was derived from the version 2 document of the same instance, as built
# by the code that stored three tables per node: its "nodes" were replaced
# by a "tables" stream holding, for each root j in order, the item
# [j, vertices, base, plo, phi, par_v, par_arc, chains] taken from j's table
# and the vertex list at its terminal node descent_intervals(j)[-1];
# stats.stored_rows and stats.chain_elements were recounted over what is
# left, and version set to 3. Records, arcs and the other stats did not
# change. Any change to these bytes is a format change and needs a
# version bump.
GATE_DIGESTS = {
    "grid8-outer": "09a9caf2d27aa6d4dc09cafe007cf58d04f9c59cf84acc019e24f174f750ba2e",
    "grid16-outer": "8052047d699264f7e70c597a9588d922f88ccbfb72e31bfb5bb7b1bd9fbc5549",
    "random10-outer": "a4bf8dbe32d1866d16c9da78b88d1591815811a3f624aed35e7dfae32c546696",
    "bowtie-inner": "6f316bca33fdd8f177c0e6b6b242ab192e949404f7b152eeaf8fa02bb3fb87be",
    "tri_oneway-inner": "19c8bb51c8c71a98e729301e021bab2d60797aa8459023cef07370d80f3e7bd0",
    "grid32-outer": "da3ed4e8bc658709502487907da2d6b617265de6b1704628b94d0767c2761307",
    "grid16-oneway-inner": "9edf4c18101499e49ce284277f5bdefec9492eb7f3209669ee1410ba6529f4eb",
    "random12-inner": "be3b81b7392c4958be1f4e04519c964274b62d5bd9d4a28ed2a05ba2ed7d7d21",
}
# the 4096-vertex grid of the benchmark's grid-outer workload; one save only
LARGE_GATE = (
    "grid64-outer", "c7e5926c455664e5cc19d65a0e9b9a4736316f607a284d23e68a92f166807d6f"
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


def test_oracle_version_is_three():
    assert ORACLE_VERSION == 3


def test_version_one_file_is_rejected():
    doc = small_oracle().to_json()
    doc["version"] = 1
    with pytest.raises(VersionMismatchError):
        load_doc(doc)


def test_version_two_file_is_rejected():
    doc = small_oracle().to_json()
    doc["version"] = 2
    with pytest.raises(VersionMismatchError):
        load_doc(doc)


def test_missing_terminal_table_is_rejected():
    doc = small_oracle().to_json()
    j = len(doc["tables"]) // 3
    del doc["tables"][j]
    with pytest.raises(CorruptFileError, match="one per root"):
        load_doc(doc)


def test_missing_node_is_rejected():
    # the stream ends one table early: the last root has no table
    doc = small_oracle().to_json()
    del doc["tables"][-1]
    with pytest.raises(CorruptFileError, match="one per root"):
        load_doc(doc)


def test_duplicated_root_table_is_rejected():
    doc = small_oracle().to_json()
    doc["tables"].append(doc["tables"][-1])
    with pytest.raises(CorruptFileError, match="one per root"):
        load_doc(doc)


def test_table_out_of_root_order_is_rejected():
    doc = small_oracle().to_json()
    tables = doc["tables"]
    tables[1], tables[2] = tables[2], tables[1]
    with pytest.raises(CorruptFileError, match="labelled root"):
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
    base = doc["tables"][0][2]
    del base[-3:]
    t0 = time.perf_counter()
    with pytest.raises(CorruptFileError, match="rows"):
        load_doc(doc)
    assert time.perf_counter() - t0 < 1.0


def test_vertex_listed_twice_is_rejected():
    # the later row would answer for the repeated vertex, without an error
    doc = small_oracle().to_json()
    vertices = doc["tables"][5][1]
    vertices[1] = vertices[0]
    with pytest.raises(CorruptFileError, match="listed twice"):
        load_doc(doc)


def test_chain_row_out_of_range_is_rejected():
    doc = small_oracle().to_json()
    with_chains = [table for table in doc["tables"] if table[7]]
    assert with_chains, "fixture oracle has no tail chains"
    table = with_chains[0]
    table[7][0][0] = len(table[1])
    with pytest.raises(CorruptFileError, match="chain row"):
        load_doc(doc)


def test_self_parent_table_raises_in_bounded_time():
    oracle = small_oracle()
    doc = oracle.to_json()
    for table in doc["tables"]:
        table[5] = list(table[1])  # every row its own parent
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
    chains = [chain for table in doc["tables"] for _, chain in table[7]]
    assert chains, "fixture oracle has no tail chains"
    for chain in chains:
        for hop in chain:
            hop[0] = 10**6  # midpoint of no record
    assert corrupt_path_answers(doc) > 0


def test_parent_vertex_outside_its_node_raises():
    doc = small_oracle().to_json()
    for table in doc["tables"]:
        table[5] = [-1 if v < 0 else 10**6 for v in table[5]]
    assert corrupt_path_answers(doc) > 0


def test_parent_arc_outside_the_arc_list_raises():
    doc = small_oracle().to_json()
    for table in doc["tables"]:
        table[6] = [-1 if a < 0 else 10**6 for a in table[6]]
    with pytest.raises(CorruptFileError, match="arc ids"):
        load_doc(doc)


def test_unknown_arc_later_in_a_path_is_rejected_at_load():
    # one parent arc that is never a path's first arc (not a spoke): a
    # path walk would report it after the arcs before it
    oracle = small_oracle()
    doc = oracle.to_json()
    spokes = {aid for aid, a in oracle.arcs.items() if a.kind == ARC_SPOKE}
    par_arc = next(
        table[6] for table in doc["tables"]
        if any(a >= 0 and a not in spokes for a in table[6])
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
        load(io.StringIO('{"format":"planar-mssp-oracle","version":3}'))
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
