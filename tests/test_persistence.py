"""Oracle persistence: pinned bytes, validation at load, bounded walks, GC state."""

from __future__ import annotations

import gc
import hashlib
import io
import json
import random
import struct
import time
import zlib
from array import array
from itertools import accumulate

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from planar_mssp import (
    CorruptFileError,
    FormatLimitError,
    MsspError,
    UNREACHABLE,
    VersionMismatchError,
    brute_distances,
    build,
    build_graph,
    gen_grid,
    gen_random_planar,
    graph_from_json,
    graph_to_json,
    load,
    mssp,
    normalize,
)
from planar_mssp.mssp import ORACLE_VERSION, _fitted, _narrowest
from tests.conftest import (
    BOWTIE_SLOTS,
    TRI_ONEWAY_SLOTS,
    answers,
    build_right_first,
    path_weight,
)
from tests.oracle_file import (
    columns_of,
    decode,
    encode_columns,
    document,
    encode_document,
    header_values,
    narrowest,
)

# SHA-256 of each saved oracle, and of the compact JSON of its logical
# document's "records" (document(), which decodes the saved file; up to
# version 16 the package's to_json gave the same document, and "its
# document" below is that one). The record digests were taken from the
# version 8 code, whose records versions 9 to 14 keep byte for byte. The file
# digests were taken from the version 9 code once these held for each
# instance: its records match the version 8 digest; every
# table row's base is the brute-force distance from its root
# (test_mssp.py); an instrumented build, which compares every inherited
# tree with a fresh Dijkstra on its node's graph, saves the same bytes;
# tests/oracle_file.py, which shares no code with save(), encodes its
# document to the same bytes; and its document differs from version 8's
# only in "version", "tables" and "stats" (stored_rows, chain_elements,
# each level's tree counts, and no per-level record_entries). For version
# 10 each instance's version 9 document, with "version" 10 and without
# each level's "slots", "arcs" and "tree_arcs" stats, was encoded by
# tests/oracle_file.py, which writes each column at its narrowest width;
# the version 10 save() writes exactly those bytes, and its document is
# that one. For version 11 each instance's version 10 document, with
# "version" 11, without each table's row of its ring vertex (which has no
# chain, and the chained rows come before it) and with stats.stored_rows
# less the ring count, was encoded the same way; the version 11 save()
# writes exactly those bytes, and its document is that one. For
# version 12 each instance's version 11 document, with "version" 12 and
# without "stats", was encoded by tests/oracle_file.py, which no longer
# writes the face_vertices column; the version 12 save() writes exactly
# those bytes, an instrumented build with edge stats saves them too, and
# its document and its loaded oracle's are that document. For version
# 13 each instance's version 12 document, with "version" 13 and each arc
# [id, tail, head, base] without its perturbation, was encoded by
# tests/oracle_file.py, which no longer writes the arc_perturb column; the
# version 13 save() writes exactly those bytes, and its document and its
# loaded oracle's are that document. For version 14 each instance's
# version 13 document, with "version" 14 and each arc [id, tail, head]
# without its base, was encoded by tests/oracle_file.py, which no longer
# writes the node vertex and arc base columns (and checks that each node's
# vertex is its arc's head); the version 14 save() writes exactly those
# bytes, and its document and its loaded oracle's are that document. For
# version 16 each instance's version 15 file, read with tests/oracle_file.py
# and without its arc_tail column, was written as version 16 by that
# module's encoder (tests/oracles/v16_digests.py); the version 16 save()
# writes exactly those bytes. The file holds no build report, so no field
# is zeroed before a digest is taken. Any change to these bytes is a
# format change and needs a version bump.
GATE_DIGESTS = {
    "grid8-outer": "0404e0ddc37e48f4d2834abe55958167219ab4af243e5629601f87b3a521a689",
    "grid16-outer": "495e1cb07058c452982a286a14b6e80f91424578ddc6698c07fd72f7d2c8ea6e",
    "random10-outer": "b8dc967ab34e75d0bdf0428c2b19c22e8d21062bea037fb4ce1e9578de1f08f9",
    "bowtie-inner": "ea94183c3947495038e6057319d6740b743eb9d6054157d9abe8e827917460cd",
    "tri_oneway-inner": "5576289747b4c34305d8a3e0425c4ffb34fc88f65e693dfd785b597ed99956bc",
    "grid32-outer": "58f1a9e84f7bd472566738acb623ce19b0e5d9a93403f79e62059d8ec13d5c52",
    "grid16-oneway-inner": "cbf6438bcc5b1fc7ed3e2f8eacf06de9516f8f75c4d3b1a7877adc0686593f0e",
    "random12-inner": "b14bba72dfe1c64faf45a644d50e6cde14f604c921dbf3467269a831393c7ade",
}
# the 4096-vertex grid of the benchmark's grid-outer workload; one save only
LARGE_GATE = (
    "grid64-outer", "d2580f9a669d8bd132a44b090ed27636c27a8888ca2edec880d1c3334e7168f6"
)
RECORD_DIGESTS = {
    "grid8-outer": "aab28276d0668819350fb930d9fda6cd4dad0a0089fc26eaf4a49746533bf214",
    "grid16-outer": "b710c8dbc710257f542b9955ae15704bafb9f6ab5f3776f78d34787b0e543308",
    "random10-outer": "c440b8106eda4a0110506e546695e8f8386678f2bc73e8853034a8006fbbd7b5",
    "bowtie-inner": "e51180325c9e4a16d6856887482a1aaea27c8a9f04d5f36cab983ee2ea8a410e",
    "tri_oneway-inner": "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
    "grid32-outer": "a93f9c1a243744eb4e9395ab6231686220c16b6c86a61ca65a4263baf2628dff",
    "grid16-oneway-inner": "7277cd4581e2accd9ef49da4c08c590772f26a1e918a57006dc5b8229815f0b7",
    "random12-inner": "2becf48b28287814a658ee51f716d8d8ee81b2e30c1106d839d8e561f59c1d2b",
    "grid64-outer": "3592cf466651d538c786351b5a899a74525f541f60aa389f7f698b0c2b85d6e9",
}


def records_digest(oracle) -> str:
    records = document(oracle)["records"]
    return hashlib.sha256(json.dumps(records, separators=(",", ":")).encode()).hexdigest()


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
    """Load the oracle file of a (possibly damaged) logical document."""
    return load(io.BytesIO(encode_document(doc)))


def saved(oracle) -> bytes:
    buf = io.BytesIO()
    oracle.save(buf)
    return buf.getvalue()


def header_of(data: bytes) -> dict:
    (length,) = struct.unpack_from("<I", data, 8)
    return json.loads(data[16:16 + length])


@pytest.mark.parametrize("name", sorted(GATE_DIGESTS))
def test_saved_bytes_match_gate_digest(tmp_path, name):
    g, face, seed = gate_instance(name)
    norm = normalize(g, face, seed=seed)
    oracle = build(norm)
    path = tmp_path / "oracle.bin"
    oracle.save(str(path))
    data = saved(oracle)
    assert path.read_bytes() == data
    assert encode_document(document(oracle)) == data
    assert records_digest(oracle) == RECORD_DIGESTS[name]
    assert hashlib.sha256(data).hexdigest() == GATE_DIGESTS[name]
    # the stored tables depend on position, not on the order children are built
    other = build_right_first(norm)
    assert saved(other) == data


@pytest.mark.parametrize("name", ["grid8-outer", "random12-inner"])
def test_equal_inputs_save_equal_bytes(name):
    # the file holds no build report, so a plain build, an instrumented one
    # that counts edge stats and one that makes its children right first
    # save the same bytes, with no field zeroed
    g, face, seed = gate_instance(name)
    norm = normalize(g, face, seed=seed)
    data = saved(build(norm))
    assert saved(build(norm, collect_edge_stats=True, instrument=True)) == data
    assert saved(build_right_first(norm)) == data


def test_saved_bytes_match_gate_digest_large():
    name, digest = LARGE_GATE
    g, face, seed = gate_instance(name)
    oracle = build(normalize(g, face, seed=seed))
    data = saved(oracle)
    assert records_digest(oracle) == RECORD_DIGESTS[name]
    assert hashlib.sha256(data).hexdigest() == digest
    assert saved(load(io.BytesIO(data))) == data


@pytest.mark.parametrize("name", [*sorted(GATE_DIGESTS), LARGE_GATE[0]])
def test_decoded_file_is_the_logical_document(name):
    # tests/oracle_file.py reads the file with struct alone, so the package
    # is checked against an independent reader, both ways: the document it
    # decodes holds the oracle's face vertices and, block by block, the
    # vertices of its vertex -> node dicts in block order, and the same
    # columns (to_json lists the oracle's), for the built oracle and the
    # loaded one; and it encodes back to the saved bytes
    g, face, seed = gate_instance(name)
    oracle = build(normalize(g, face, seed=seed))
    data = saved(oracle)
    doc = decode(data)
    for held in (oracle, load(io.BytesIO(data))):
        assert doc["face_vertices"] == list(held.face_vertices)
        assert [table[1] for table in doc["tables"]] == list(map(list, held.tables))
        records = [[mid, side, [e[0] for e in entries]] for mid, side, entries in doc["records"]]
        assert records == [[key >> 1, key & 1, list(index)] for key, index in held.records.items()]
        assert {**header_values(doc), **columns_of(doc)} == held.to_json()
    assert encode_document(doc) == data


def test_oracle_version_is_sixteen():
    assert ORACLE_VERSION == 16


def json_oracle_file(doc: dict) -> io.BytesIO:
    """A document written as versions 1 to 3 wrote oracle files."""
    return io.BytesIO(
        (json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n").encode("utf-8")
    )


# what each earlier version held that this one does not, or held otherwise
OLD_VERSIONS = {
    1: "a JSON oracle file that still carried the ring cycle's arcs",
    2: "a JSON oracle file with three tables per recursion node",
    3: "a JSON oracle file; a binary file of another version says so too,"
       " whatever its layout",
    4: "tables and records in two sets of 12 columns",
    5: "the same layout, with records no query reads",
    6: "each distance's perturbation, the arc kinds and arcs no path reports",
    7: "a record entry for each record tree's root and a table row, with base"
       " -1, for each ring vertex a table's root does not reach",
    8: "the layout of version 9, each root's table at the first node with the"
       " root as an endpoint; which node stores it follows from the ring"
       " count, not from the file, so read as version 9 it could give wrong"
       " answers",
    9: "the content of version 10 with every id int32 and every base int64,"
       " and section entries without a typecode",
    10: "each table's root row: its ring vertex, at base 0, with parent and"
        " parent arc -1",
    11: "the build report in the header and a face_vertices column",
    12: "each stored arc's perturbation, in an arc_perturb column",
    13: "each node's vertex, which is its parent arc's head, and each stored"
        " arc's base, which nothing read",
    14: "each node's parent as a vertex, which the path walk looked up in the"
        " block's dict at every arc, where this version stores its offset in"
        " the block",
    15: "each stored arc's tail, which load read only to find the spokes that"
        " the tables' root-marked rows give",
}


@pytest.mark.parametrize(
    "version, held", OLD_VERSIONS.items(), ids=[f"v{v}" for v in OLD_VERSIONS]
)
def test_file_of_an_earlier_version_is_rejected(version, held):
    doc = document(small_oracle())
    doc["version"] = version
    if version <= 3:
        with pytest.raises(VersionMismatchError, match=rf"version {version}\b"):
            load(json_oracle_file(doc))
    with pytest.raises(VersionMismatchError, match=rf"version {version}\b"):
        load_doc(doc)


def test_header_without_a_version_number_is_corrupt():
    # one flipped bit in the "version" key: a damaged header, not a file of
    # another version
    data = saved(small_oracle())
    at = data.index(b'"version"') + 2
    damaged = data[:at] + bytes([data[at] ^ 1]) + data[at + 1:]
    with pytest.raises(CorruptFileError, match="no version number"):
        load(io.BytesIO(damaged))


def test_header_that_is_not_json_is_corrupt():
    # the header's opening brace replaced, its length and checksum kept:
    # load parses the header before it checks the checksum
    data = saved(small_oracle())
    damaged = data[:16] + b"x" + data[17:]
    with pytest.raises(CorruptFileError, match="invalid header"):
        load(io.BytesIO(damaged))


def test_header_edited_under_its_old_checksum_fails_it():
    # another seed: valid JSON of the same format and version, which loads
    # under its own checksum and fails the one it replaced
    data = saved(small_oracle())
    edited = with_header(data, lambda h: h.update(seed=h["seed"] + 1))
    assert load(io.BytesIO(edited)).seed == header_of(data)["seed"] + 1
    damaged = edited[:12] + data[12:16] + edited[16:]
    with pytest.raises(CorruptFileError, match="the header fails its checksum"):
        load(io.BytesIO(damaged))


def test_missing_terminal_table_is_rejected():
    doc = document(small_oracle())
    j = len(doc["tables"]) // 3
    del doc["tables"][j]
    with pytest.raises(CorruptFileError, match="one per root"):
        load_doc(doc)


def test_missing_node_is_rejected():
    # the stream ends one table early: the last root has no table
    doc = document(small_oracle())
    del doc["tables"][-1]
    with pytest.raises(CorruptFileError, match="one per root"):
        load_doc(doc)


def test_duplicated_root_table_is_rejected():
    doc = document(small_oracle())
    doc["tables"].append(doc["tables"][-1])
    with pytest.raises(CorruptFileError, match="one per root"):
        load_doc(doc)


def test_table_out_of_root_order_is_rejected():
    # tables j and j + 1 trade places in the file, each with its spoke row
    # still holding its own offset. Roots stored at one leaf share their
    # descent, so only the spokes' ids tie a table to its root: without
    # that rule, tables 0 and 1 (both at leaf [0, 1]) swapped loaded and
    # answered 32 pairs wrong with no error
    doc = document(small_oracle())
    for j in range(len(doc["tables"]) - 1):
        damaged = json.loads(json.dumps(doc))
        tables = damaged["tables"]
        tables[j], tables[j + 1] = tables[j + 1], tables[j]
        # table 0's spoke is the one the others' ids are counted from
        with pytest.raises(CorruptFileError, match=f"table {max(j, 1)}: the row whose parent is"):
            load_doc(damaged)


def test_empty_record_stream_round_trips():
    oracle = build(normalize(build_graph(1, []), 0, seed=0))
    assert not oracle.records
    data = saved(oracle)
    sections = {name: count for name, _, count, _ in header_of(data)["sections"]}
    assert sections["record_key"] == 0 and sections["record_root"] == 0
    assert sections["tree_start"] == oracle.ring_count + 1  # the tables' blocks only
    loaded = load(io.BytesIO(data))
    assert loaded.distance(0, 0) == 0
    assert saved(loaded) == data


def drop_rows(table: list, rows) -> None:
    """Delete the given rows of a table item, its chains renumbered."""
    keep = [p for p in range(len(table[1])) if p not in rows]
    for col in table[1:5]:
        col[:] = [col[p] for p in keep]
    where = {p: i for i, p in enumerate(keep)}
    table[5][:] = [[where[p], hops] for p, hops in table[5] if p in where]


def test_truncated_column_is_rejected():
    doc = document(small_oracle())
    table = doc["tables"][0]
    # the table loses three rows, the last that no row has as its parent
    # (a parent must be in the block for the encoder to write its offset),
    # so root 0's descent holds three vertices too few
    leaves = [p for p, v in enumerate(table[1]) if v not in table[3]]
    drop_rows(table, leaves[-3:])
    t0 = time.perf_counter()
    with pytest.raises(CorruptFileError, match="root 0's descent holds 13 vertices"):
        load_doc(doc)
    assert time.perf_counter() - t0 < 1.0


def test_table_zero_missing_a_row_is_rejected():
    # vertex 1 would silently stop being queryable: query_vertices is read
    # from root 0's descent, the records its plan reads and table 0
    doc = document(small_oracle())
    table = doc["tables"][0]
    row = query_vertex_at(table)
    for col in table[1:5]:
        del col[row]
    with pytest.raises(CorruptFileError, match="root 0's descent holds 15 vertices"):
        load_doc(doc)


def test_truncated_file_is_rejected():
    data = saved(small_oracle())
    for cut in (0, 7, 15, 16, 100, len(data) // 2, len(data) - 1):
        with pytest.raises(CorruptFileError):
            load(io.BytesIO(data[:cut]))
    with pytest.raises(CorruptFileError, match="follow the last section"):
        load(io.BytesIO(data + b"\0"))


def test_flipped_column_byte_fails_its_checksum():
    data = bytearray(saved(small_oracle()))
    data[-5] ^= 0x10
    with pytest.raises(CorruptFileError, match="checksum"):
        load(io.BytesIO(bytes(data)))


def test_vertex_listed_twice_is_rejected():
    # the later row would answer for the repeated vertex, without an error:
    # a node given its sibling's arc has its sibling's vertex, the arc's head
    doc = document(small_oracle())
    _, vertices, _, _, arcs, _ = doc["tables"][5]
    vertices[1], arcs[1] = vertices[0], arcs[0]
    with pytest.raises(CorruptFileError, match="listed twice"):
        load_doc(doc)


def query_vertex_at(table: list) -> int:
    """Position, in a table item's vertex list, of an original vertex."""
    return next(pos for pos, v in enumerate(table[1]) if v == 1)


def new_arc(doc: dict, head: int) -> int:
    """Add an arc into head to a document's arc table, under an id past
    every stored one; return its id. The file stores no arc's tail."""
    aid = doc["arcs"][-1][0] + 1
    doc["arcs"].append([aid, head])
    return aid


def move_row(doc: dict, table: list, vertex: int) -> None:
    """Move table's row of vertex 1 to vertex, by a new arc into vertex."""
    row = query_vertex_at(table)
    table[1][row], table[4][row] = vertex, new_arc(doc, vertex)


def test_encoder_rejects_a_vertex_that_is_not_its_arcs_head():
    # the file stores no node vertex, so a damage to a vertex alone would
    # encode to the undamaged file
    doc = document(small_oracle())
    doc["tables"][5][1][0] = 10**6
    with pytest.raises(ValueError, match="node vertex 1000000 is not the head"):
        encode_document(doc)


def test_table_vertex_outside_table_zero_is_rejected():
    # distance(5, 1) raised a bare internal MsspError when this loaded
    doc = document(small_oracle())
    move_row(doc, doc["tables"][5], 10**6)
    with pytest.raises(
        CorruptFileError, match="table 5 lists vertex 1000000, which root 0's descent"
    ):
        load_doc(doc)


def test_table_zero_vertex_replaced_is_rejected():
    # vertex 1 would silently stop being queryable: query_vertices is read
    # from root 0's descent. Root 0's descent still holds 16 vertices, but
    # normalize numbers the ring vertices from one past the largest of them
    # (and table 1, stored at the same leaf, lists vertex 1)
    doc = document(small_oracle())
    move_row(doc, doc["tables"][0], 10**6)
    with pytest.raises(
        CorruptFileError, match="the ring roots are not the 12 ids that follow 1000000"
    ):
        load_doc(doc)


def test_table_zero_holding_another_ring_vertex_is_rejected():
    # root 0's descent holds the original vertices only, and the ring
    # vertices are the ids that follow the largest of them
    doc = document(small_oracle())
    ring = doc["ring_roots"]
    move_row(doc, doc["tables"][0], ring[1])
    with pytest.raises(
        CorruptFileError, match=f"the ring roots are not the 12 ids that follow {ring[1]},"
    ):
        load_doc(doc)


@pytest.mark.parametrize("j", [0, 5])
def test_table_listing_its_own_ring_vertex_is_rejected(j):
    # no stored tree holds its root: a row for r_j, at base 0 under its
    # face vertex b_j, with a new arc into r_j, is one vertex too many
    # for table 0 and a vertex of no descent for table 5
    doc = document(small_oracle())
    table = doc["tables"][j]
    r, b = doc["ring_roots"][j], doc["face_vertices"][j]
    row = (r, 0, b, new_arc(doc, r))
    for col, value in zip(table[1:5], row):
        col.append(value)
    match = (
        "root 0's descent holds 17 vertices" if j == 0
        else f"table 5 lists vertex {doc['ring_roots'][5]}, which root 0's descent"
    )
    with pytest.raises(CorruptFileError, match=match):
        load_doc(doc)


def test_node_arc_of_minus_one_is_rejected():
    # a version 10 table root row (r_j, base 0, parent and arc -1), with
    # the root as its parent, as an offset cannot name -1: -1 is no arc id
    doc = document(small_oracle())
    table = doc["tables"][5]
    r = doc["ring_roots"][5]
    for col, value in zip(table[1:5], (r, 0, r, -1)):
        col.append(value)
    with pytest.raises(CorruptFileError, match="not in the arc table, such as -1"):
        load_doc(doc)


def test_table_missing_a_row_raises_at_query():
    # a table other than table 0 may hold fewer vertices than root 0's
    # descent; a query that ends at the missing one raises a typed error,
    # not a KeyError
    doc = document(small_oracle())
    table = doc["tables"][5]
    row = query_vertex_at(table)
    for col in table[1:5]:
        del col[row]
    loaded = load_doc(doc)
    with pytest.raises(CorruptFileError, match="table 5 holds no row for vertex 1"):
        loaded.distance(5, 1)


def test_record_entry_that_is_its_own_root_is_rejected():
    # _descend reroutes on every record hit: this entry would add its delta
    # to every distance through its vertex, with no error
    doc = document(small_oracle())
    entry = doc["records"][0][2][0]
    # it is its root's child, so it keeps its own offset and only its
    # record root changes
    assert entry[3] == entry[1]
    entry[1] = entry[3] = entry[0]
    assert entry[2] != 0
    with pytest.raises(CorruptFileError, match="own tree root"):
        load_doc(doc)


def test_record_under_a_key_of_no_node_is_rejected():
    # key (1, 1) is the right leaf [1, 2] of the 12 roots' recursion, which
    # is not built: no descent would read the record, yet it loaded
    doc = document(small_oracle())
    assert all((mid, side) != (1, 1) for mid, side, _ in doc["records"])
    doc["records"].append([1, 1, [list(doc["records"][0][2][0])]])
    with pytest.raises(CorruptFileError, match=r"record \(1, 1\) is keyed by no node"):
        load_doc(doc)


def test_foreign_vertex_on_root_zero_descent_is_rejected():
    # record (2, 0) lies on root 0's descent; with its entry for vertex 5
    # given an arc into 10**6, the descent still holds 17 distinct
    # vertices, so it loaded, 10**6 became a query vertex and 5 stopped
    # being one. normalize numbers the ring vertices from one past the
    # largest input id
    doc = document(small_oracle())
    entries = next(e for mid, side, e in doc["records"] if (mid, side) == (2, 0))
    entry = next(e for e in entries if e[0] == 5)
    entry[0], entry[4] = 10**6, new_arc(doc, 10**6)
    with pytest.raises(
        CorruptFileError, match="the ring roots are not the 12 ids that follow 1000000"
    ):
        load_doc(doc)


def test_negative_base_is_rejected():
    # a version 7 unreached row: another ring vertex at base -1, with the
    # root as its parent, as an offset cannot name -1
    doc = document(small_oracle())
    table = doc["tables"][1]
    ring = doc["ring_roots"]
    for col, value in zip(table[1:5], (ring[2], -1, ring[1], -1)):
        col.append(value)
    with pytest.raises(CorruptFileError, match="negative base"):
        load_doc(doc)


def test_block_with_more_chains_than_nodes_is_rejected():
    # a block's chains belong to its first nodes, one each; the first block
    # is given one chain more than it has nodes
    doc = document(small_oracle())
    col = columns_of(doc)
    start, chains = col["tree_start"], col["tree_chain_start"]
    more = start[1] - start[0] + 1
    assert chains[-1] >= more, "fixture oracle has too few tail chains"
    col["tree_chain_start"] = [0] + [max(c, more) for c in chains[1:]]
    with pytest.raises(CorruptFileError, match="more tail chains than nodes"):
        load(io.BytesIO(encode_columns(header_values(doc), col)))


def with_header(data: bytes, edit) -> bytes:
    """data with its header changed by edit(header), its length and
    checksum renewed."""
    header = header_of(data)
    edit(header)
    text = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    (length,) = struct.unpack_from("<I", data, 8)
    return data[:8] + struct.pack("<II", len(text), zlib.crc32(text)) + text + data[16 + length:]


# one edit per load rule, of the columns before they are encoded or of the
# encoded file's header, and the message of that rule
LOAD_RULES = {
    "offsets-out-of-order": (
        "columns", lambda c: c["tree_start"].insert(1, c["tree_start"].pop(2)),
        "tree nodes: offsets out of order",
    ),
    "no-ring-roots": (
        "columns", lambda c: c["ring_roots"].clear(), "no ring roots",
    ),
    "ring-root-twice": (
        "columns", lambda c: c["ring_roots"].__setitem__(1, c["ring_roots"][0]),
        "the ring roots are not the 12 ids that follow 15,",
    ),
    "arc-column-short": (
        "columns", lambda c: c["arc_head"].pop(), "arc columns differ in length",
    ),
    "node-column-short": (
        "columns", lambda c: c["node_arc"].pop(), "node columns do not all have",
    ),
    "record-root-missing": (
        "columns", lambda c: c["record_root"].pop(),
        "record roots do not have one entry per record node",
    ),
    "chain-offset-missing": (
        "columns", lambda c: c["tree_chain_start"].pop(),
        "chain offsets do not have one entry per block",
    ),
    "hop-column-short": (
        "columns", lambda c: c["hop_vertex"].pop(), "chain hop columns differ in length",
    ),
    "arc-id-twice": (
        "columns", lambda c: c["arc_id"].__setitem__(1, c["arc_id"][0]),
        "an arc id is listed twice",
    ),
    "record-key-twice": (
        "columns", lambda c: c["record_key"].__setitem__(1, c["record_key"][0]),
        "a record key is listed twice",
    ),
    "section-entry-of-three-fields": (
        "header", lambda h: h["sections"][0].pop(), "bad header entry for section ring_roots",
    ),
    "seed-missing": ("header", lambda h: h.pop("seed"), "malformed header: KeyError"),
    "n-original-not-an-int": (
        "header", lambda h: h.update(n_original=16.0), "n_original, w_big and seed must be ints",
    ),
    # normalize sets W_big = n * max_weight + 1, n >= 1, and admits it
    # while 2 * n * W_big < 2**62; with w_big 0, -5 or 1, distance(0, 5)
    # answered UNREACHABLE, not 80
    "n-original-below-one": (
        "header", lambda h: h.update(n_original=0), "n_original 0 and w_big 1601 break",
    ),
    "w-big-below-one": (
        "header", lambda h: h.update(w_big=-15), "n_original 16 and w_big -15 break",
    ),
    "w-big-not-one-past-a-multiple-of-n": (
        "header", lambda h: h.update(w_big=82), "n_original 16 and w_big 82 break",
    ),
    "w-big-past-the-admission-cap": (
        "header", lambda h: h.update(w_big=(1 << 57) + 1), "n_original 16 and w_big 144115188",
    ),
}


@pytest.mark.parametrize("rule", sorted(LOAD_RULES))
def test_each_load_rule_rejects_its_damage(rule):
    part, edit, message = LOAD_RULES[rule]
    doc = document(small_oracle())
    col = columns_of(doc)
    if part == "columns":
        edit(col)
    data = encode_columns(header_values(doc), col)
    if part == "header":
        data = with_header(data, edit)
    with pytest.raises(CorruptFileError, match=message):
        load(io.BytesIO(data))


def answer_or_error(oracle, j: int, u: int):
    """answers(oracle, j, u), or the type of the MsspError it raised."""
    try:
        return answers(oracle, j, u)
    except MsspError as exc:
        return type(exc)


def test_every_stored_section_is_read():
    # a column that no load rule and no query reads could go from the file
    # without a trace: each section has a value whose change, by one, load
    # rejects or that changes some answer over all (j, u)
    oracle = small_oracle()
    doc = document(oracle)
    pairs = [(j, u) for j in range(oracle.ring_count) for u in sorted(oracle.query_vertices)]
    expected = [answers(oracle, j, u) for j, u in pairs]
    cols = columns_of(doc)
    inert = []
    for name in mssp._SECTIONS:
        for i in range(len(cols[name])):
            damaged = dict(cols, **{name: list(cols[name])})
            damaged[name][i] += 1
            try:
                loaded = load(io.BytesIO(encode_columns(header_values(doc), damaged)))
            except CorruptFileError:
                break
            if [answer_or_error(loaded, j, u) for j, u in pairs] != expected:
                break
        else:
            inert.append(name)
    assert not inert


def spoke_ids(doc: dict) -> set[int]:
    """The spokes' ids: each table's parent arc of its row whose parent is
    the ring vertex."""
    return {
        table[4][table[3].index(r)] for r, table in zip(doc["ring_roots"], doc["tables"])
    }


def test_non_spoke_first_path_arc_is_rejected_at_load():
    # every path's first arc is its root's spoke, which query_path drops;
    # with another arc there, every path raised a bare internal MsspError
    doc = document(small_oracle())
    spokes = spoke_ids(doc)
    damaged = json.loads(json.dumps(doc))
    # each spoke row's arc becomes another into the same face vertex, under
    # ids past every stored one: spoke j's id must be spoke 0's plus 2j
    for table in damaged["tables"]:
        table[4] = [new_arc(damaged, v) if a in spokes else a for v, a in zip(table[1], table[4])]
    with pytest.raises(CorruptFileError, match="spoke"):
        load_doc(damaged)
    # a tail chain on the spoke's row would put record arcs before the spoke
    j, table = next(
        (j, table) for j, table in enumerate(doc["tables"]) if table[5]
    )
    row = table[3].index(doc["ring_roots"][j])
    table[5].append([row, table[5][0][1]])
    with pytest.raises(CorruptFileError, match="spoke"):
        load_doc(doc)


def outcomes(oracle, pairs) -> list:
    """Each pair's distance and path, or the type of the MsspError each raised."""
    out = []
    for j, u in pairs:
        for query in (oracle.distance, oracle.query_path):
            try:
                out.append(query(j, u))
            except MsspError as exc:
                out.append(type(exc))
    return out


def test_spoke_damage_census():
    # what ties each table to its root and face vertex, damaged one value
    # at a time on small_oracle(), with a fixed seed: each table's marked
    # row given every other stored arc, each ring root moved by one and to
    # a random id, and each spoke's head moved by one and to two random
    # vertices. Each file is rejected at load or answers every (j, u),
    # distance and path alike, as the undamaged oracle does, an error by
    # its type. Version 15 loaded 22 of the 48 head damages, whose changed
    # answers were typed errors at query
    oracle = small_oracle()
    doc = document(oracle)
    col = columns_of(doc)
    pairs = [(j, u) for j in range(oracle.ring_count) for u in sorted(oracle.query_vertices)]
    expected = outcomes(oracle, pairs)
    start, parent, k = col["tree_start"], col["node_parent"], len(doc["records"])
    marked = [
        next(m for m in range(a, z) if parent[m] == m - a)
        for a, z in zip(start[k:], start[k + 1:])
    ]
    spokes = [col["node_arc"][m] for m in marked]
    rng = random.Random(16)
    ring, top = col["ring_roots"], oracle.n_original + oracle.ring_count
    damages = [
        ("node_arc", m, a) for m, spoke in zip(marked, spokes)
        for a in col["arc_id"] if a != spoke
    ]
    for j, r in enumerate(ring):
        damages += [("ring_roots", j, v) for v in {r - 1, r + 1, rng.randrange(top)} - {r}]
    for spoke in spokes:
        i = col["arc_id"].index(spoke)
        h = col["arc_head"][i]
        moved = {h - 1, h + 1, rng.randrange(top), rng.randrange(top)} - {h}
        damages += [("arc_head", i, v) for v in moved]
    t0 = time.perf_counter()
    loaded_files = 0
    for name, i, value in damages:
        damaged = dict(col, **{name: [*col[name][:i], value, *col[name][i + 1:]]})
        try:
            loaded = load(io.BytesIO(encode_columns(header_values(doc), damaged)))
        except CorruptFileError:
            continue
        loaded_files += 1
        assert outcomes(loaded, pairs) == expected, (name, i, value)
    assert time.perf_counter() - t0 < 1.0
    assert len(damages) > 600 and loaded_files < len(damages)


@pytest.mark.parametrize("name", [*sorted(GATE_DIGESTS), LARGE_GATE[0]])
def test_ring_roots_and_face_vertices_are_normalizes(name):
    # the file stores no face vertex and no arc tail: load reads each
    # root's face vertex from its table's spoke row
    g, face, seed = gate_instance(name)
    norm = normalize(g, face, seed=seed)
    oracle = build(norm)
    for got in (oracle, load(io.BytesIO(saved(oracle)))):
        assert got.ring_roots == norm.ring_roots, name
        assert got.face_vertices == norm.face_vertices, name


def test_self_parent_table_raises_in_bounded_time():
    # a node that holds its own offset is a child of the block's root, so a
    # cycle takes two nodes or more
    oracle = small_oracle()
    doc = document(oracle)
    for r, table in zip(doc["ring_roots"], doc["tables"]):
        # every row but the spoke row, which load checks, in one cycle: each
        # row's parent is the next row's vertex
        rows = [p for p, par in enumerate(table[3]) if par != r]
        if len(rows) > 1:
            for p, q in zip(rows, rows[1:] + rows[:1]):
                table[3][p] = table[1][q]
    loaded = load_doc(doc)
    j, u = 0, max(oracle.query_vertices, key=lambda v: len(oracle.query_path(0, v)))
    t0 = time.perf_counter()
    with pytest.raises(CorruptFileError, match="table 0 cycle"):
        loaded.query_path(j, u)
    assert time.perf_counter() - t0 < 1.0


def test_self_parent_record_raises_in_bounded_time():
    # as for a table, the entries of every record of two or more entries in
    # one cycle: each entry's parent is the next entry's vertex
    oracle = small_oracle()
    doc = document(oracle)
    cycled = set()
    for mid, side, entries in doc["records"]:
        if len(entries) > 1:
            cycled.add((mid, side))
            for entry, after in zip(entries, entries[1:] + entries[:1]):
                entry[3] = after[0]
    loaded = load_doc(doc)
    pair = next(
        (j, u)
        for j in range(oracle.ring_count)
        for u in sorted(oracle.query_vertices)
        if any(key in cycled for key, _ in oracle.explain(j, u).hits)
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


def offsets_damaged(doc: dict, damage) -> bytes:
    """The file of doc with each node's parent offset set to damage(offset,
    own offset, block size, block); blocks are numbered records first."""
    col = columns_of(doc)
    start, parent = col["tree_start"], col["node_parent"]
    for b, (a, z) in enumerate(zip(start, start[1:])):
        for node in range(a, z):
            parent[node] = damage(parent[node], node - a, z - a, b)
    return encode_columns(header_values(doc), col)


def test_record_parent_outside_its_table_raises():
    # a parent offset can name no node of another block: every record
    # node's offset one past its block's last is rejected at load
    doc = document(small_oracle())
    k = len(doc["records"])
    data = offsets_damaged(doc, lambda off, p, size, b: size if b < k else off)
    with pytest.raises(CorruptFileError, match=r"record \(\d+, \d\): a parent offset lies"):
        load(io.BytesIO(data))


def test_fuzz_parent_offsets_fail_typed_or_answer():
    # every parent offset of the fixture, one at a time, one up, one down,
    # to a random offset in its block and to one outside it: load rejects
    # the file, or every (j, u) answers or raises an MsspError; an
    # IndexError or a KeyError fails the test
    oracle = small_oracle()
    doc = document(oracle)
    col = columns_of(doc)
    pairs = [(j, u) for j in range(oracle.ring_count) for u in sorted(oracle.query_vertices)]
    start, parent = col["tree_start"], col["node_parent"]
    rng = random.Random(15)
    t0 = time.perf_counter()
    rejected = answered = 0
    for a, z in zip(start, start[1:]):
        size = z - a
        for node in range(a, z):
            off = parent[node]
            outside = rng.choice((-1 - rng.randrange(size), size + rng.randrange(size)))
            for value in (off + 1, off - 1, rng.randrange(size), outside):
                damaged = dict(col, node_parent=parent[:node] + [value] + parent[node + 1:])
                try:
                    loaded = load(io.BytesIO(encode_columns(header_values(doc), damaged)))
                except CorruptFileError:
                    rejected += 1
                    continue
                answered += 1
                for j, u in pairs:
                    answer_or_error(loaded, j, u)
    assert time.perf_counter() - t0 < 2.0
    assert rejected and answered and rejected + answered == 4 * len(parent)


def test_chain_key_without_record_raises():
    doc = document(small_oracle())
    chains = [chain for table in doc["tables"] for _, chain in table[5]]
    assert chains, "fixture oracle has no tail chains"
    for chain in chains:
        for hop in chain:
            hop[0] = 10**6  # midpoint of no record
    assert corrupt_path_answers(doc) > 0


def test_chain_that_expands_into_itself_raises():
    # a record entry whose tail chain hops back to the entry itself: the
    # expansion would recurse without end
    doc = document(small_oracle())
    for mid, side, entries in doc["records"]:
        for entry in entries:
            if entry[0] != entry[1]:  # not the record tree's root
                entry[5] = [[mid, side, entry[0]]]
    t0 = time.perf_counter()
    assert corrupt_path_answers(doc) > 0
    assert time.perf_counter() - t0 < 5.0


def test_chains_of_two_records_that_hop_into_each_other_raise():
    # entries a and b, each a child of its record's root, in two records:
    # a's chain hops to b and b's to a, every hop naming a real record and
    # vertex, so the file loads. A walk through a expands its chain before
    # it appends an arc, so the path never grows and the length bound never
    # fires: the recursion limit ends it
    oracle = small_oracle()
    doc = document(oracle)
    j, u, (key, v) = next(
        (j, u, hit)
        for j in range(oracle.ring_count)
        for u in sorted(oracle.query_vertices)
        for hit in oracle.explain(j, u).hits
    )
    records = {(mid, side): entries for mid, side, entries in doc["records"]}
    by_vertex = {e[0]: e for e in records[key]}
    a = by_vertex[v]
    while a[3] != a[1]:  # climb to the child of the record's root
        a = by_vertex[a[3]]
    other, b = next(
        (k, e) for k, entries in records.items() if k != key
        for e in entries if e[3] == e[1]
    )
    a[5] = [[*other, b[0]]]
    b[5] = [[*key, a[0]]]
    loaded = load_doc(doc)
    t0 = time.perf_counter()
    with pytest.raises(CorruptFileError, match="tail chains of the path expand") as exc:
        loaded.query_path(j, u)
    assert time.perf_counter() - t0 < 1.0
    assert isinstance(exc.value.__cause__, RecursionError)


def nested_chains(d: int, m: int = 10) -> tuple[dict, int, int]:
    """gen_grid(8, seed=1)'s document with tail chains nested d deep.

    In record (1, 0), d entries become children of one tree root, and entry
    i gets a chain of m hops into the record at entry i + 1's vertex, so a
    walk of the first entry would expand m ** (d - 1) hops. One table row,
    of an original vertex, gets a chain of one hop to the first entry's
    vertex. Returns the document and the (root index, vertex) of a query
    whose path walks that row.
    """
    g, outer = gen_grid(8, seed=1)
    oracle = build(normalize(g, outer, seed=1))
    doc = document(oracle)
    entries = next(e for mid, side, e in doc["records"] if (mid, side) == (1, 0))
    assert len(entries) >= d
    root = entries[0][1]
    nested = entries[:d]
    for i, entry in enumerate(nested):
        entry[1] = entry[3] = root
        entry[5] = [[1, 0, nested[i + 1][0]]] * m if i + 1 < d else []
    for j, (r, table) in enumerate(zip(doc["ring_roots"], doc["tables"])):
        # a row without a chain whose parent is not the ring vertex: not the
        # spoke's row, which load checks
        for p in range(len(table[5]), len(table[1])):
            if table[1][p] < oracle.n_original and table[3][p] != r:
                table[5].append([p, [[1, 0, nested[0][0]]]])
                return doc, j, table[1][p]
    raise AssertionError("no table row to chain")


def test_chains_nested_past_the_longest_path_raise():
    # a path from r_j is simple and enters no other ring vertex, so it has
    # at most n_original arcs; unbounded, the d = 6 file's path had 111 112
    # arcs and d = 12 would hang
    for d in (6, 12):
        doc, j, u = nested_chains(d)
        loaded = load_doc(doc)
        t0 = time.perf_counter()
        with pytest.raises(CorruptFileError, match="past 64 arcs"):
            loaded.query_path(j, u)
        assert time.perf_counter() - t0 < 1.0


def test_parent_vertex_outside_its_node_raises():
    # every table row's offset but the spoke row's, one past its block's
    # last, is rejected at load
    doc = document(small_oracle())
    k = len(doc["records"])
    data = offsets_damaged(doc, lambda off, p, size, b: size if b >= k and off != p else off)
    with pytest.raises(CorruptFileError, match="table 0: a parent offset lies outside"):
        load(io.BytesIO(data))


@pytest.mark.parametrize("block", ["first", "last"])
@pytest.mark.parametrize("offset", ["negative", "block size"])
def test_one_parent_offset_outside_its_block_is_rejected(block, offset):
    # the first block is a record and the last a table; the block's last
    # node gets offset -1 or the block's size, one past its last node
    doc = document(small_oracle())
    col = columns_of(doc)
    start = col["tree_start"]
    b = 0 if block == "first" else len(start) - 2
    size = start[b + 1] - start[b]
    col["node_parent"][start[b + 1] - 1] = -1 if offset == "negative" else size
    name = "record" if block == "first" else f"table {len(doc['tables']) - 1}"
    with pytest.raises(CorruptFileError, match=f"{name}.*: a parent offset lies outside"):
        load(io.BytesIO(encode_columns(header_values(doc), col)))


@pytest.mark.parametrize("typecode", ["h", "i", "q"])
def test_offset_range_check_matches_a_plain_loop(typecode):
    # load's C-level range check against the per-item loop it replaces, on
    # blocks of 0 to 40 items, each item at, just under or past its
    # block's size, or random, up to the typecode's largest value
    rng = random.Random(typecode)
    top = (1 << 8 * array(typecode).itemsize - 1) - 1
    for _ in range(300):
        sizes = [rng.choice((0, 1, 2, rng.randrange(41))) for _ in range(rng.randrange(1, 6))]
        items = []
        for size in sizes:
            for _ in range(size):
                items.append(rng.choice((size, size - 1, rng.randrange(size + 2), top)))
        starts = accumulate(sizes, initial=0)
        expected = all(x < size for size, a in zip(sizes, starts) for x in items[a:a + size])
        assert mssp._below_block_sizes(array(typecode, items), sizes) == expected, (sizes, items)


def test_second_root_marked_row_in_a_table_is_rejected():
    # a row that holds its own offset has the ring vertex as its parent:
    # one more such row in table 3 would start a path without the spoke
    doc = document(small_oracle())
    col = columns_of(doc)
    start, k = col["tree_start"], len(doc["records"])
    a, z = start[k + 3], start[k + 4]
    marked = [p for p in range(z - a) if col["node_parent"][a + p] == p]
    # a row after the spoke row's, so that the spoke row is the first mark
    assert len(marked) == 1 and marked[0] < z - a - 1
    col["node_parent"][z - 1] = z - a - 1
    with pytest.raises(CorruptFileError, match="table 3: the row whose parent is the ring vertex"):
        load(io.BytesIO(encode_columns(header_values(doc), col)))


def test_parent_arc_outside_the_arc_list_raises():
    doc = document(small_oracle())
    for table in doc["tables"]:
        table[4] = [10**6] * len(table[4])
    with pytest.raises(CorruptFileError, match="arc ids"):
        load_doc(doc)


def test_unknown_arc_later_in_a_path_is_rejected_at_load():
    # one parent arc that is never a path's first arc (not a spoke): a
    # path walk would report it after the arcs before it
    doc = document(small_oracle())
    spokes = spoke_ids(doc)
    par_arc = next(
        table[4] for table in doc["tables"]
        if any(a not in spokes for a in table[4])
    )
    row = next(r for r, a in enumerate(par_arc) if a not in spokes)
    par_arc[row] = 10**6
    with pytest.raises(CorruptFileError, match="arc ids"):
        load_doc(doc)


def test_unknown_record_arc_is_rejected_at_load():
    doc = document(small_oracle())
    entry = doc["records"][0][2][0]
    entry[4] = 10**6
    with pytest.raises(CorruptFileError, match="arc ids"):
        load_doc(doc)


def test_value_wider_than_its_column_raises_a_typed_error():
    # build makes a column at the narrowest typecode that holds its range,
    # and the file holds it at the narrowest that holds its values; only a
    # value beyond int64 has no column. Each ceiling, and one past it:
    for hi, typecode in [
        (2**15 - 1, "h"), (2**15, "i"), (2**31 - 1, "i"), (2**31, "q"), (2**63 - 1, "q"),
        (2**63, None),
    ]:
        if typecode is None:
            with pytest.raises(FormatLimitError, match="64-bit"):
                _narrowest(hi)
            with pytest.raises(FormatLimitError, match="64-bit"):
                _fitted([0, hi])
            continue
        assert _narrowest(hi) == typecode, hi
        wide = _fitted([0, hi])
        assert wide.typecode == typecode and wide.tolist() == [0, hi], hi


@pytest.mark.parametrize("name", [*sorted(GATE_DIGESTS), LARGE_GATE[0]])
def test_each_column_is_stored_at_its_narrowest_width(name):
    # the narrowest of int16, int32 and int64 that holds the column's
    # minimum and maximum, named in its section entry; a loaded oracle holds
    # the columns at the widths of its file
    g, face, seed = gate_instance(name)
    oracle = build(normalize(g, face, seed=seed))
    data = saved(oracle)
    loaded = load(io.BytesIO(data))
    sections = header_of(data)["sections"]
    assert [entry[0] for entry in sections] == list(columns_of(document(oracle)))
    for section, typecode, count, _ in sections:
        col = getattr(oracle._cols, section)
        assert typecode == col.typecode == narrowest(col), (name, section)
        assert getattr(loaded._cols, section).typecode == typecode, (name, section)
        assert count == len(col)


def test_bases_near_the_admission_cap_are_stored_as_int64():
    # every weight just below the largest W_big that normalize admits, so
    # distances pass int32, and that W_big passes load's rules
    n = 16
    cap = ((1 << 62) - 1) // (2 * n)  # the largest W_big admitted
    top = (cap - 1) // n  # the largest weight admitted
    doc = graph_to_json(*gen_grid(4, seed=3))
    for slot in doc["slots"]:
        slot[2], slot[3] = top - slot[2], top - slot[3]
    norm = normalize(*graph_from_json(doc), seed=1)
    oracle = build(norm)
    assert oracle._cols.node_base.typecode == "q"
    data = saved(oracle)
    loaded = load(io.BytesIO(data))
    assert saved(loaded) == data
    snap = [(tail, head, a[0], a[1]) for tail, head, a in norm.graph.arc_items()]
    ring = set(norm.ring_roots)
    for j, r in enumerate(norm.ring_roots):
        expected = brute_distances(snap, r, ring - {r})
        for u in sorted(oracle.query_vertices):
            assert answers(loaded, j, u) == answers(oracle, j, u), (j, u)
            assert oracle.distance(j, u) == expected[u][0], (j, u)
            assert path_weight(norm, oracle, j, u) == expected[u], (j, u)


@pytest.mark.parametrize("typecode", ["b", "Q", "d", "hh", 4])
def test_section_of_another_typecode_is_rejected(typecode):
    doc = document(small_oracle())
    data = encode_columns(
        header_values(doc), columns_of(doc), typecodes={"node_base": typecode}
    )
    with pytest.raises(CorruptFileError, match="typecode"):
        load(io.BytesIO(data))


@pytest.mark.parametrize("typecode", ["h", "i", "q"])
def test_negative_base_is_rejected_at_any_width(typecode):
    # the sign test reads the most significant byte of each base, whatever
    # its width; the same file without the negative base loads
    oracle = small_oracle()
    doc = document(oracle)
    widths = {"node_base": typecode}
    loaded = load(io.BytesIO(encode_columns(header_values(doc), columns_of(doc), True, widths)))
    assert loaded._cols.node_base.typecode == typecode
    assert document(loaded) == doc
    table = doc["tables"][1]
    ring = doc["ring_roots"]
    for col, value in zip(table[1:5], (ring[2], -1, ring[1], -1)):
        col.append(value)
    with pytest.raises(CorruptFileError, match="negative base"):
        load(io.BytesIO(encode_columns(header_values(doc), columns_of(doc), True, widths)))


def test_bases_of_mixed_widths_are_joined_at_the_widest():
    # W_big is 57 601 here, so some blocks' bases fit int16 and others need
    # int32: node_base joins them at int32
    g, face = oneway_grid(24)
    norm = normalize(g, face, seed=7)
    oracle = build(norm)
    c = oracle._cols
    blocks = {narrowest(c.node_base[a:z]) for a, z in zip(c.tree_start, c.tree_start[1:])}
    assert norm.w_big == 57601 and blocks == {"h", "i"}
    assert c.node_base.typecode == "i"
    data = saved(oracle)
    loaded = load(io.BytesIO(data))
    assert saved(loaded) == data
    snap = [(tail, head, a[0], a[1]) for tail, head, a in norm.graph.arc_items()]
    ring = set(norm.ring_roots)
    unreachable = 0
    for j, r in enumerate(norm.ring_roots):
        expected = brute_distances(snap, r, ring - {r})
        for u in sorted(oracle.query_vertices):
            base = expected[u][0]
            if base >= norm.w_big:
                # query_path raises UnreachableError
                assert answers(oracle, j, u) == (UNREACHABLE, None), (j, u)
                unreachable += 1
            else:
                assert oracle.distance(j, u) == base, (j, u)
                assert path_weight(norm, oracle, j, u) == expected[u], (j, u)
            assert answers(loaded, j, u) == answers(oracle, j, u), (j, u)
    assert unreachable > 0


def test_big_endian_host_byteswaps_each_column(monkeypatch):
    # a big-endian host byteswaps each column to write it little-endian and
    # swaps it back when it reads it. With the swap forced on a
    # little-endian host, save() writes each column byteswapped and
    # _read_columns reads that file back to the original columns. load()
    # is not run: its negative-base check reads the host's byte order
    oracle = small_oracle()
    data = saved(oracle)
    monkeypatch.setattr(mssp, "_SWAP", True)
    swapped = saved(oracle)
    sections = header_of(data)["sections"]
    swapped_sections = header_of(swapped)["sections"]
    assert [s[:3] for s in swapped_sections] == [s[:3] for s in sections]
    pos = 16 + struct.unpack_from("<I", data, 8)[0]
    body = at = 16 + struct.unpack_from("<I", swapped, 8)[0]
    for name, typecode, count, _ in sections:
        col = array(typecode)
        col.frombytes(data[pos:pos + count * col.itemsize])
        col.byteswap()
        assert swapped[at:at + count * col.itemsize] == col.tobytes(), name
        pos += count * col.itemsize
        at += count * col.itemsize
    assert at == len(swapped)
    cols = mssp._read_columns(swapped, body, swapped_sections)
    for name in mssp._SECTIONS:
        assert getattr(cols, name) == getattr(oracle._cols, name), name


class _FailingSink:
    def write(self, data) -> int:
        raise OSError("disk full")


def test_gc_stays_enabled_after_failed_load_and_save():
    assert gc.isenabled()
    with pytest.raises(CorruptFileError):
        load(io.BytesIO(b'{"format":"planar-mssp-oracle","version":3}'))
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
        data = saved(oracle)
        assert not gc.isenabled()
        load(io.BytesIO(data))
        assert not gc.isenabled()
        with pytest.raises(CorruptFileError):
            load(io.BytesIO(b"{oops"))
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


def test_loaded_tables_and_records_are_not_tracked_by_gc():
    loaded = load(io.BytesIO(saved(small_oracle())))
    assert loaded.records
    for index in [*loaded.tables, *loaded.records.values()]:
        assert not gc.is_tracked(index)


# ----------------------------------------------------------------------
# damaged bytes: every truncation and byte flip must fail with a typed
# error, fast

_FUZZ_DATA = saved(small_oracle())
# the bytes whose change is a version change: both digits of "version":11,
# which may become "version":21 or "version":10
_VERSION = f'"version":{ORACLE_VERSION}'.encode()
_VERSION_AT = range(
    _FUZZ_DATA.index(_VERSION) + len(b'"version":'),
    _FUZZ_DATA.index(_VERSION) + len(_VERSION),
)


def assert_rejected(data: bytes, version_byte_changed: bool) -> None:
    t0 = time.perf_counter()
    with pytest.raises(MsspError) as info:
        load(io.BytesIO(data))
    assert time.perf_counter() - t0 < 1.0
    if info.type is not CorruptFileError:
        assert info.type is VersionMismatchError and version_byte_changed, info.value


@settings(max_examples=300, deadline=1000, suppress_health_check=[HealthCheck.too_slow])
@given(cut=st.integers(0, len(_FUZZ_DATA) - 1))
def test_fuzz_truncated_file_raises_a_typed_error(cut):
    assert_rejected(_FUZZ_DATA[:cut], False)


@settings(max_examples=1000, deadline=1000, suppress_health_check=[HealthCheck.too_slow])
@given(
    at=st.integers(0, len(_FUZZ_DATA) - 1),
    mask=st.integers(1, 255),
)
def test_fuzz_flipped_byte_raises_a_typed_error(at, mask):
    data = bytearray(_FUZZ_DATA)
    data[at] ^= mask
    assert_rejected(bytes(data), at in _VERSION_AT)
