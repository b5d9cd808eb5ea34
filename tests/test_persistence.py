"""Oracle persistence: pinned bytes, validation at load, bounded walks, GC state."""

from __future__ import annotations

import gc
import hashlib
import io
import json
import random
import struct
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from planar_mssp import (
    CorruptFileError,
    FormatLimitError,
    MsspError,
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
from planar_mssp.mssp import ORACLE_VERSION, _column
from planar_mssp.normalize import ARC_SPOKE
from tests.conftest import BOWTIE_SLOTS, TRI_ONEWAY_SLOTS, build_right_first
from tests.oracle_file import columns_of, encode_columns, encode_document, header_values

# SHA-256 of each saved oracle with stats.build_seconds set to 0.0, and of
# the compact JSON of its to_json()["records"]. The record digests were
# taken from the version 8 code, whose records version 9 keeps byte for
# byte. The file digests were taken from the version 9 code once these
# held for each instance: its records match the version 8 digest; every
# table row's base is the brute-force distance from its root
# (test_mssp.py); an instrumented build, which compares every inherited
# tree with a fresh Dijkstra on its node's graph, saves the same bytes;
# tests/oracle_file.py, which shares no code with save(), encodes its
# to_json() to the same bytes; and its document differs from version 8's
# only in "version", "tables" and "stats" (stored_rows, chain_elements,
# each level's tree counts, and no per-level record_entries). Any change
# to these bytes is a format change and needs a version bump.
GATE_DIGESTS = {
    "grid8-outer": "08682638b786c2ba888fba1844889cfca00f3477f011338038ed8653a5c2d2ba",
    "grid16-outer": "620ef0ffbd278841cbccad9de7650455797bf0622f40a61987882694a348c98b",
    "random10-outer": "8b0f3965fe28613064352dbd791bffaf764389b3f571d0d0e2809cd10dc76fdb",
    "bowtie-inner": "51d7edf1320e95bf2d8535357ae0bfd5f1ee2c527c898763617615c8ba6d57e8",
    "tri_oneway-inner": "ddcc340797e438e4d895c6bfdfb566397bbb38986a4a90f67428d08e9c154afa",
    "grid32-outer": "7e615ac523c9170cef87cb805ed99f5977df42c1720cfde74f7757dffb2b3c9e",
    "grid16-oneway-inner": "03c08b7b7d26d2be4dae1f4530552c3366bf9342c27074231a16598ba57c647b",
    "random12-inner": "5de49f60ad1893ff9da6640c3a3db7d50cfadb504ed2c560bed3e3c34820f734",
}
# the 4096-vertex grid of the benchmark's grid-outer workload; one save only
LARGE_GATE = (
    "grid64-outer", "690e5c6e22b9fac30030b46c792fc656377d17fa227a804b9d0f8aeffa8ea005"
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
    records = oracle.to_json()["records"]
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
    oracle.stats.build_seconds = 0.0
    path = tmp_path / "oracle.bin"
    oracle.save(str(path))
    data = saved(oracle)
    assert path.read_bytes() == data
    assert encode_document(oracle.to_json()) == data
    assert records_digest(oracle) == RECORD_DIGESTS[name]
    assert hashlib.sha256(data).hexdigest() == GATE_DIGESTS[name]
    # the stored tables depend on position, not on the order children are built
    other = build_right_first(norm)
    other.stats.build_seconds = 0.0
    assert saved(other) == data


def test_saved_bytes_match_gate_digest_large():
    name, digest = LARGE_GATE
    g, face, seed = gate_instance(name)
    oracle = build(normalize(g, face, seed=seed))
    oracle.stats.build_seconds = 0.0
    data = saved(oracle)
    assert records_digest(oracle) == RECORD_DIGESTS[name]
    assert hashlib.sha256(data).hexdigest() == digest
    assert saved(load(io.BytesIO(data))) == data


def test_oracle_version_is_nine():
    assert ORACLE_VERSION == 9


def json_oracle_file(doc: dict) -> io.BytesIO:
    """A document written as versions 1 to 3 wrote oracle files."""
    return io.BytesIO(
        (json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n").encode("utf-8")
    )


def test_version_one_file_is_rejected():
    doc = small_oracle().to_json()
    doc["version"] = 1
    with pytest.raises(VersionMismatchError):
        load(json_oracle_file(doc))


def test_version_two_file_is_rejected():
    doc = small_oracle().to_json()
    doc["version"] = 2
    with pytest.raises(VersionMismatchError):
        load(json_oracle_file(doc))


def test_version_three_file_is_rejected():
    doc = small_oracle().to_json()
    doc["version"] = 3
    with pytest.raises(VersionMismatchError, match="version 3"):
        load(json_oracle_file(doc))
    # a binary file of another version says so too, whatever its layout
    with pytest.raises(VersionMismatchError, match="version 3"):
        load_doc(doc)


def test_version_four_file_is_rejected():
    doc = small_oracle().to_json()
    doc["version"] = 4
    with pytest.raises(VersionMismatchError, match="version 4"):
        load_doc(doc)


def test_version_five_file_is_rejected():
    # version 5 files have the same layout; they also hold records no
    # query reads
    doc = small_oracle().to_json()
    doc["version"] = 5
    with pytest.raises(VersionMismatchError, match="version 5"):
        load_doc(doc)


def test_version_six_file_is_rejected():
    # version 6 files also held each distance's perturbation, the arc kinds
    # and arcs no path reports
    doc = small_oracle().to_json()
    doc["version"] = 6
    with pytest.raises(VersionMismatchError, match="version 6"):
        load_doc(doc)


def test_version_seven_file_is_rejected():
    # version 7 files also held a record entry for each record tree's root
    # and a table row, with base -1, for each ring vertex a table's root
    # does not reach
    doc = small_oracle().to_json()
    doc["version"] = 7
    with pytest.raises(VersionMismatchError, match="version 7"):
        load_doc(doc)


def test_version_eight_file_is_rejected():
    # version 8 files have the layout of version 9 but store each root's
    # table at the first node with the root as an endpoint; which node
    # stores it follows from the ring count, not from the file, so a
    # version 8 file read as version 9 could give wrong answers
    doc = small_oracle().to_json()
    doc["version"] = 8
    with pytest.raises(VersionMismatchError, match="version 8"):
        load_doc(doc)


def test_header_without_a_version_number_is_corrupt():
    # one flipped bit in the "version" key: a damaged header, not a file of
    # another version
    data = saved(small_oracle())
    at = data.index(b'"version"') + 2
    damaged = data[:at] + bytes([data[at] ^ 1]) + data[at + 1:]
    with pytest.raises(CorruptFileError, match="no version number"):
        load(io.BytesIO(damaged))


def test_header_stats_missing_a_field_or_not_an_object_is_rejected():
    doc = small_oracle().to_json()
    load_doc(doc)
    del doc["stats"]["chain_elements"]
    with pytest.raises(CorruptFileError, match="malformed header"):
        load_doc(doc)
    for stats in ([], "stats", 3, None):
        doc["stats"] = stats
        with pytest.raises(CorruptFileError, match="malformed header"):
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
    # a table holds no ring vertex but its own, so table 1 now lacks r_1
    with pytest.raises(CorruptFileError, match="lacks its ring root"):
        load_doc(doc)


def test_table_root_off_distance_zero_is_rejected():
    # every distance read from table 5 would be 7 too long
    doc = small_oracle().to_json()
    table = doc["tables"][5]
    table[2][table[1].index(doc["ring_roots"][5])] = 7
    with pytest.raises(CorruptFileError, match="labelled root"):
        load_doc(doc)


def test_empty_record_stream_round_trips():
    oracle = build(normalize(build_graph(1, []), 0, seed=0))
    assert not oracle.records
    data = saved(oracle)
    sections = {name: count for name, count, _ in header_of(data)["sections"]}
    assert sections["record_key"] == 0 and sections["record_root"] == 0
    assert sections["tree_start"] == oracle.ring_count + 1  # the tables' blocks only
    loaded = load(io.BytesIO(data))
    assert loaded.distance(0, 0) == 0
    assert saved(loaded) == data


def test_truncated_column_is_rejected():
    doc = small_oracle().to_json()
    base = doc["tables"][0][2]
    del base[-3:]
    t0 = time.perf_counter()
    # the table loses its last three rows, its ring root, which sorts last,
    # among them
    with pytest.raises(CorruptFileError, match="lacks its ring root"):
        load_doc(doc)
    assert time.perf_counter() - t0 < 1.0


def test_table_zero_missing_a_row_is_rejected():
    # vertex 1 would silently stop being queryable: query_vertices is read
    # from root 0's descent, the records its plan reads and table 0
    doc = small_oracle().to_json()
    table = doc["tables"][0]
    row = query_vertex_at(table)
    for col in table[1:5]:
        del col[row]
    with pytest.raises(CorruptFileError, match="root 0's descent holds 16 vertices"):
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
    # the later row would answer for the repeated vertex, without an error
    doc = small_oracle().to_json()
    vertices = doc["tables"][5][1]
    vertices[1] = vertices[0]
    with pytest.raises(CorruptFileError, match="listed twice"):
        load_doc(doc)


def query_vertex_at(table: list) -> int:
    """Position, in a table item's vertex list, of an original vertex."""
    return next(pos for pos, v in enumerate(table[1]) if v == 1)


def test_table_vertex_outside_table_zero_is_rejected():
    # distance(5, 1) raised a bare internal MsspError when this loaded
    doc = small_oracle().to_json()
    table = doc["tables"][5]
    table[1][query_vertex_at(table)] = 10**6
    with pytest.raises(
        CorruptFileError, match="table 5 lists vertex 1000000, which root 0's descent"
    ):
        load_doc(doc)


def test_table_zero_vertex_replaced_is_rejected():
    # vertex 1 would silently stop being queryable: query_vertices is read
    # from root 0's descent. Root 0's descent still holds 17 vertices, but
    # table 1, stored at the same leaf, lists vertex 1
    doc = small_oracle().to_json()
    table = doc["tables"][0]
    table[1][query_vertex_at(table)] = 10**6
    with pytest.raises(
        CorruptFileError, match="table 1 lists vertex 1, which root 0's descent"
    ):
        load_doc(doc)


def test_table_zero_holding_another_ring_vertex_is_rejected():
    # root 0's descent holds its own ring vertex and the original vertices
    # only
    doc = small_oracle().to_json()
    table = doc["tables"][0]
    table[1][query_vertex_at(table)] = doc["ring_roots"][1]
    with pytest.raises(CorruptFileError, match="root 0's descent lists root 1's ring vertex"):
        load_doc(doc)


def test_table_missing_a_row_raises_at_query():
    # a table other than table 0 may hold fewer vertices than root 0's
    # descent; a query that ends at the missing one raises a typed error,
    # not a KeyError
    doc = small_oracle().to_json()
    table = doc["tables"][5]
    row = query_vertex_at(table)
    for col in table[1:5]:
        del col[row]
    loaded = load_doc(doc)
    with pytest.raises(CorruptFileError, match="table 5 holds no row for vertex 1"):
        loaded.distance(5, 1)


def test_table_without_its_ring_root_is_rejected():
    doc = small_oracle().to_json()
    table = doc["tables"][5]
    table[1][table[1].index(doc["ring_roots"][5])] = 10**6
    with pytest.raises(CorruptFileError, match="lacks its ring root"):
        load_doc(doc)


def test_record_entry_that_is_its_own_root_is_rejected():
    # _descend reroutes on every record hit: this entry would add its delta
    # to every distance through its vertex, with no error
    doc = small_oracle().to_json()
    entry = doc["records"][0][2][0]
    entry[1] = entry[0]
    assert entry[2] != 0
    with pytest.raises(CorruptFileError, match="own tree root"):
        load_doc(doc)


def test_record_under_a_key_of_no_node_is_rejected():
    # key (1, 1) is the right leaf [1, 2] of the 12 roots' recursion, which
    # is not built: no descent would read the record, yet it loaded
    doc = small_oracle().to_json()
    assert all((mid, side) != (1, 1) for mid, side, _ in doc["records"])
    doc["records"].append([1, 1, [list(doc["records"][0][2][0])]])
    with pytest.raises(CorruptFileError, match=r"record \(1, 1\) is keyed by no node"):
        load_doc(doc)


def test_foreign_vertex_on_root_zero_descent_is_rejected():
    # record (2, 0) lies on root 0's descent; with its entry for vertex 5
    # renamed 10**6, the descent still holds 17 distinct vertices, so it
    # loaded, 10**6 became a query vertex and 5 stopped being one. Every
    # node but a table's root is the head of its parent arc, and no stored
    # arc enters 10**6
    doc = small_oracle().to_json()
    entries = next(e for mid, side, e in doc["records"] if (mid, side) == (2, 0))
    entry = next(e for e in entries if e[0] == 5)
    entry[0] = 10**6
    with pytest.raises(
        CorruptFileError, match="root 0's descent lists vertex 1000000, which no stored arc"
    ):
        load_doc(doc)


def test_negative_base_is_rejected():
    # a version 7 unreached row: another ring vertex at base -1
    doc = small_oracle().to_json()
    table = doc["tables"][1]
    for col, value in zip(table[1:5], (doc["ring_roots"][2], -1, -1, -1)):
        col.append(value)
    with pytest.raises(CorruptFileError, match="negative base"):
        load_doc(doc)


def test_block_with_more_chains_than_nodes_is_rejected():
    # a block's chains belong to its first nodes, one each; the first block
    # is given one chain more than it has nodes
    doc = small_oracle().to_json()
    col = columns_of(doc)
    start, chains = col["tree_start"], col["tree_chain_start"]
    more = start[1] - start[0] + 1
    assert chains[-1] >= more, "fixture oracle has too few tail chains"
    col["tree_chain_start"] = [0] + [max(c, more) for c in chains[1:]]
    with pytest.raises(CorruptFileError, match="more tail chains than nodes"):
        load(io.BytesIO(encode_columns(header_values(doc), col)))


def test_non_spoke_first_path_arc_is_rejected_at_load():
    # every path's first arc is its root's spoke, which query_path drops;
    # with another arc there, every path raised a bare internal MsspError
    oracle = small_oracle()
    doc = oracle.to_json()
    spokes = {aid for aid, a in oracle.arcs.items() if a.kind == ARC_SPOKE}
    other = min(set(oracle.arcs) - spokes)
    damaged = json.loads(json.dumps(doc))
    for table in damaged["tables"]:
        table[4] = [other if a in spokes else a for a in table[4]]
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


def test_self_parent_table_raises_in_bounded_time():
    oracle = small_oracle()
    doc = oracle.to_json()
    for r, table in zip(doc["ring_roots"], doc["tables"]):
        # every row its own parent, but those of the spoke rows, which load
        # checks
        table[3] = [p if p in (-1, r) else v for v, p in zip(table[1], table[3])]
    loaded = load_doc(doc)
    j, u = 0, max(oracle.query_vertices, key=lambda v: len(oracle.query_path(0, v)))
    t0 = time.perf_counter()
    with pytest.raises(CorruptFileError, match="cycle"):
        loaded.query_path(j, u)
    assert time.perf_counter() - t0 < 1.0


def test_self_parent_record_raises_in_bounded_time():
    oracle = small_oracle()
    doc = oracle.to_json()
    parent = {
        (mid, side, entry[0]): entry[3]
        for mid, side, entries in doc["records"]
        for entry in entries
    }
    for record in doc["records"]:
        for entry in record[2]:
            if entry[0] != entry[1]:  # not the record tree's root
                entry[3] = entry[0]
    loaded = load_doc(doc)
    pair = next(
        (j, u)
        for j in range(oracle.ring_count)
        for u in sorted(oracle.query_vertices)
        if any(vert != parent[(*key, vert)] for key, vert in oracle.explain(j, u).hits)
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
                entry[3] = 10**6
    assert corrupt_path_answers(doc) > 0


def test_chain_key_without_record_raises():
    doc = small_oracle().to_json()
    chains = [chain for table in doc["tables"] for _, chain in table[5]]
    assert chains, "fixture oracle has no tail chains"
    for chain in chains:
        for hop in chain:
            hop[0] = 10**6  # midpoint of no record
    assert corrupt_path_answers(doc) > 0


def test_chain_that_expands_into_itself_raises():
    # a record entry whose tail chain hops back to the entry itself: the
    # expansion would recurse without end
    doc = small_oracle().to_json()
    for mid, side, entries in doc["records"]:
        for entry in entries:
            if entry[0] != entry[1]:  # not the record tree's root
                entry[5] = [[mid, side, entry[0]]]
    t0 = time.perf_counter()
    assert corrupt_path_answers(doc) > 0
    assert time.perf_counter() - t0 < 5.0


def test_parent_vertex_outside_its_node_raises():
    doc = small_oracle().to_json()
    for r, table in zip(doc["ring_roots"], doc["tables"]):
        table[3] = [p if p < 0 or p == r else 10**6 for p in table[3]]
    assert corrupt_path_answers(doc) > 0


def test_parent_arc_outside_the_arc_list_raises():
    doc = small_oracle().to_json()
    for table in doc["tables"]:
        table[4] = [-1 if a < 0 else 10**6 for a in table[4]]
    with pytest.raises(CorruptFileError, match="arc ids"):
        load_doc(doc)


def test_unknown_arc_later_in_a_path_is_rejected_at_load():
    # one parent arc that is never a path's first arc (not a spoke): a
    # path walk would report it after the arcs before it
    oracle = small_oracle()
    doc = oracle.to_json()
    spokes = {aid for aid, a in oracle.arcs.items() if a.kind == ARC_SPOKE}
    par_arc = next(
        table[4] for table in doc["tables"]
        if any(a >= 0 and a not in spokes for a in table[4])
    )
    row = next(r for r, a in enumerate(par_arc) if a >= 0 and a not in spokes)
    par_arc[row] = 10**6
    with pytest.raises(CorruptFileError, match="arc ids"):
        load_doc(doc)


def test_unknown_record_arc_is_rejected_at_load():
    doc = small_oracle().to_json()
    entry = next(e for rec in doc["records"] for e in rec[2] if e[4] >= 0)
    entry[4] = 10**6
    with pytest.raises(CorruptFileError, match="arc ids"):
        load_doc(doc)


def test_value_wider_than_its_column_raises_a_typed_error():
    # ids are int32 in the file, bases and arc perturbations int64
    with pytest.raises(FormatLimitError, match="32-bit"):
        _column("i", [0, 2**31])
    with pytest.raises(FormatLimitError, match="64-bit"):
        _column("q", [2**63])


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
# the one byte whose change is a version change: the digit of "version":9
_VERSION_AT = _FUZZ_DATA.index(b'"version":9') + len(b'"version":')


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
    assert_rejected(bytes(data), at == _VERSION_AT)
