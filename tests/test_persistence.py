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
from tests.conftest import BOWTIE_SLOTS, TRI_ONEWAY_SLOTS

# SHA-256 of each saved oracle with stats.build_seconds set to 0.0. The
# first five were recorded with the json.dump writer that the streaming
# writer replaced, the other four with the vertex-keyed build core that
# the row-indexed one replaced. Any change to these bytes is a format
# change and needs a version bump.
GATE_DIGESTS = {
    "grid8-outer": "fb1f986511c2996140e351ab89a2f040db3d148a0da3035f791991e4aee47e02",
    "grid16-outer": "d3ea1526d9b780d753c5123df0134c2d8230189a9692e110616c79dd10884cf6",
    "random10-outer": "1b3764bb19d748c072a9dc1e0e3b11bd09e5944d303c0098ad82b05e82f05bc4",
    "bowtie-inner": "ef507fed9582e23157f0480e011cd4fa1acb0b417e2d023fdfd17a531742bf84",
    "tri_oneway-inner": "e26ff3600439143f6850586a3f9ccadc1d24327c50e78d2302c20b69b86a3e41",
    "grid32-outer": "96410ea8cf59bbb6ec9463770fd8f854b7dee6964f7bb49d6222c013e0912332",
    "grid16-oneway-inner": "7dc771c4a87734cc7754492c6ad5e3594d26a84c3bb7ef200583b35f539c49a2",
    "random12-inner": "b4609414f2d75a4909462e010c531d47283a2ef1331703224dfe1b9d55e1984a",
}
# the 4096-vertex grid of the benchmark's grid-outer workload; one save only
LARGE_GATE = (
    "grid64-outer", "44c037417d9d5d829c2fdb29737c111a9f4f737ba290032f66d6c9f0e9fab03c"
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


def test_oracle_version_is_one():
    assert ORACLE_VERSION == 1


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
    assert corrupt_path_answers(doc) > 0


class _FailingSink:
    def write(self, text: str) -> int:
        raise OSError("disk full")


def test_gc_stays_enabled_after_failed_load_and_save():
    assert gc.isenabled()
    with pytest.raises(CorruptFileError):
        load(io.StringIO('{"format":"planar-mssp-oracle","version":1}'))
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
