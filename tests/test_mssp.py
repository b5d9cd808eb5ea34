"""The distance oracle itself: exactness, paths, persistence, stats."""

from __future__ import annotations

import io
import json
import math
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from planar_mssp import (
    BadRootIndexError,
    CorruptFileError,
    FaceVertexQueryError,
    UNREACHABLE,
    UnreachableError,
    VersionMismatchError,
    build,
    gen_grid,
    load,
    normalize,
)
from planar_mssp.mssp import BuildStats
from planar_mssp.normalize import ARC_ORIGINAL, map_answer
from tests.conftest import TRI_ONEWAY_SLOTS
from tests.oracle_file import columns_of, encode_columns, encode_document, header_values
from tests.test_persistence import oneway_grid

from planar_mssp import build_graph

# Derived by tests/oracles/grid3_seed1_distances.py (standalone weight
# replay plus plain Dijkstra). Keys are boundary vertices of the 3x3,
# seed 1 grid; values are distances to vertices 0..8.
GRID3_SLOTS = [
    [0, 1, 17, 72],
    [0, 3, 97, 8],
    [1, 2, 32, 15],
    [1, 4, 63, 97],
    [2, 5, 57, 60],
    [3, 4, 83, 48],
    [3, 6, 100, 26],
    [4, 5, 12, 62],
    [4, 7, 3, 49],
    [5, 8, 55, 77],
    [6, 7, 97, 98],
    [7, 8, 0, 89],
]
GRID3_DIST = {
    0: [0, 17, 49, 97, 80, 92, 181, 83, 83],
    1: [72, 0, 32, 111, 63, 75, 164, 66, 66],
    2: [87, 15, 0, 126, 78, 57, 179, 81, 81],
    5: [118, 75, 60, 110, 62, 0, 163, 65, 55],
    8: [194, 152, 137, 186, 138, 77, 187, 89, 0],
    7: [105, 122, 121, 97, 49, 61, 98, 0, 0],
    6: [34, 51, 83, 26, 109, 121, 0, 97, 97],
    3: [8, 25, 57, 0, 83, 95, 100, 86, 86],
}


def test_grid3_weights_match_draw_contract(grid3):
    g, _ = grid3
    got = []
    for sid in sorted(g.slots):
        slot = g.slots[sid]
        got.append([slot.v0, slot.v1, slot.a01[0], slot.a10[0]])
    assert got == GRID3_SLOTS


def test_grid3_distances_exact(oracle3):
    assert oracle3.ring_count == 8
    for j, b in enumerate(oracle3.face_vertices):
        for u in range(9):
            assert oracle3.distance(j, u) == GRID3_DIST[b][u], (j, b, u)


def test_query_dist_carries_perturbation(oracle3, norm3):
    for j, b in enumerate(oracle3.face_vertices):
        d = oracle3.query_dist(j, b)
        # distance to the root's own face vertex is the spoke alone
        spoke = next(
            a for a in norm3.arcs.values()
            if a.kind == "spoke" and a.tail == norm3.ring_roots[j]
        )
        assert (d.base, d.perturb) == (0, spoke.perturb)


def test_query_argument_validation(oracle3):
    ring_vertex = oracle3.ring_roots[0]
    for ask in (oracle3.query_dist, oracle3.distance, oracle3.query_path, oracle3.explain):
        for bad in (-1, 8, 10**9, True, "0"):
            with pytest.raises(BadRootIndexError):
                ask(bad, 0)
        with pytest.raises(FaceVertexQueryError, match="ring"):
            ask(0, ring_vertex)
        with pytest.raises(FaceVertexQueryError):
            ask(0, 999)
    assert oracle3.query_vertices == frozenset(range(9))


def test_paths_are_shortest_contiguous_and_simple(oracle3, norm3):
    arcs = norm3.arcs
    for j, b in enumerate(oracle3.face_vertices):
        for u in range(9):
            path = oracle3.query_path(j, u)
            if u == b:
                assert path == []
                continue
            infos = [arcs[aid] for aid in path]
            assert all(i.kind == ARC_ORIGINAL for i in infos)
            assert infos[0].tail == b
            assert infos[-1].head == u
            for a, nxt in zip(infos, infos[1:]):
                assert a.head == nxt.tail
            visited = [infos[0].tail] + [i.head for i in infos]
            assert len(set(visited)) == len(visited)
            assert sum(i.base for i in infos) == GRID3_DIST[b][u]


def test_path_perturbation_sums_to_query_dist(oracle3, norm3):
    for j, b in enumerate(oracle3.face_vertices):
        spoke = next(
            a for a in norm3.arcs.values()
            if a.kind == "spoke" and a.tail == norm3.ring_roots[j]
        )
        for u in range(9):
            d = oracle3.query_dist(j, u)
            infos = [norm3.arcs[aid] for aid in oracle3.query_path(j, u)]
            assert sum(i.base for i in infos) == d.base
            assert spoke.perturb + sum(i.perturb for i in infos) == d.perturb


def test_one_way_triangle_unreachable():
    g = build_graph(3, TRI_ONEWAY_SLOTS)
    norm = normalize(g, 0, seed=0)
    oracle = build(norm, instrument=True)
    by_vertex = {b: j for j, b in enumerate(oracle.face_vertices)}
    assert oracle.distance(by_vertex[0], 1) == 5
    assert oracle.distance(by_vertex[0], 2) == 4
    assert oracle.distance(by_vertex[1], 2) == 7
    assert oracle.distance(by_vertex[1], 0) is UNREACHABLE
    assert oracle.distance(by_vertex[2], 0) is UNREACHABLE
    assert oracle.distance(by_vertex[2], 1) is UNREACHABLE
    assert oracle.query_path(by_vertex[0], 2) == [4]
    with pytest.raises(UnreachableError):
        oracle.query_path(by_vertex[1], 0)


def test_descent_intervals(oracle3):
    n = oracle3.ring_count
    bound = math.ceil(math.log2(n)) + 1
    for j in range(n):
        ivs = oracle3.descent_intervals(j)
        assert ivs[0] == (0, n - 1)
        assert len(ivs) <= bound
        for (a1, a2), (b1, b2) in zip(ivs, ivs[1:]):
            # intervals nest, halve, keep j, and only the last may have j
            # on its boundary (boundary roots answer without descending)
            assert a1 <= b1 <= b2 <= a2
            assert (b2 - b1) <= (a2 - a1 + 1) // 2 + 1
            assert b1 <= j <= b2
            assert j not in (a1, a2)
        assert j in ivs[-1]
    assert max(len(oracle3.descent_intervals(j)) for j in range(n)) == bound
    with pytest.raises(BadRootIndexError):
        oracle3.descent_intervals(n)


def test_stored_tables_are_the_read_tables(oracle5):
    # every stored table is some query's terminal table, and the counters
    # count only what is stored
    oracle = oracle5
    assert len(oracle.tables) == oracle.ring_count
    for j in range(oracle.ring_count):
        assert oracle._plans[j].index is oracle.tables[j]
    s = oracle.stats
    assert s.stored_rows == sum(len(t) for t in oracle.tables)
    doc = oracle.to_json()
    record_chains = sum(len(e[6]) for _, _, entries in doc["records"] for e in entries)
    table_chains = sum(len(hops) for table in doc["tables"] for _, hops in table[7])
    assert table_chains > 0
    assert s.chain_elements == record_chains + table_chains


def test_explain_follows_the_descent(oracle5):
    n = oracle5.ring_count
    # record key -> vertex -> the root of its record tree
    roots = {
        (mid, side): {e[0]: e[1] for e in entries}
        for mid, side, entries in oracle5.to_json()["records"]
    }
    for j in range(n):
        intervals = oracle5.descent_intervals(j)
        # the record tables a descent probes, read off its intervals
        keys = [
            ((a1 + a2) // 2, int(b1 != a1))
            for (a1, a2), (b1, _) in zip(intervals, intervals[1:])
        ]
        probed = [key for key in keys if key in roots]
        for u in sorted(oracle5.query_vertices):
            ex = oracle5.explain(j, u)
            assert ex.intervals == intervals
            assert ex.terminal == intervals[-1]
            assert ex.probes == len(probed)
            # replay the rerouting through the probed tables
            hits = []
            v = u
            for key in probed:
                root = roots[key].get(v)
                if root is not None and root != v:
                    hits.append((key, v))
                    v = root
            assert ex.hits == hits


def test_distance_is_map_answer_of_query_dist():
    g, face = oneway_grid(16)
    oracle = build(normalize(g, face, seed=7))
    unreachable = 0
    for j in range(oracle.ring_count):
        for u in sorted(oracle.query_vertices):
            got = oracle.distance(j, u)
            assert got == map_answer(oracle.query_dist(j, u), oracle.w_big), (j, u)
            unreachable += got is UNREACHABLE
    assert unreachable > 0


def test_probe_budget(oracle5):
    n = oracle5.ring_count
    allowance = 2 * math.ceil(math.log2(n)) + 4
    for j in range(n):
        for u in oracle5.query_vertices:
            path, probes = oracle5._query_path_counted(j, u)
            assert probes <= len(path) + allowance, (j, u, probes, len(path))


def test_exactness_on_5x5_against_brute(oracle5, norm5):
    from planar_mssp import brute_distances

    snap = [(tail, head, a[0], a[1]) for tail, head, a in norm5.graph.arc_items()]
    ring = set(norm5.ring_roots)
    for j, r in enumerate(norm5.ring_roots):
        expected = brute_distances(snap, r, ring - {r})
        for u in range(norm5.n_original):
            got = oracle5.query_dist(j, u)
            assert (got.base, got.perturb) == expected[u], (j, u)


def test_build_order_independence(norm3, oracle3):
    other = build(norm3, right_first=True)
    for j in range(oracle3.ring_count):
        for u in range(9):
            assert oracle3.query_dist(j, u) == other.query_dist(j, u)
            assert oracle3.query_path(j, u) == other.query_path(j, u)
    # the stored tables depend on position, not on visit order
    a, b = oracle3.to_json(), other.to_json()
    a["stats"].pop("build_seconds")
    b["stats"].pop("build_seconds")
    assert a == b


def test_build_determinism(norm3, oracle3):
    again = build(norm3)
    a, b = oracle3.to_json(), again.to_json()
    a["stats"].pop("build_seconds")
    b["stats"].pop("build_seconds")
    assert a == b


def test_queries_from_several_threads_match_serial_answers():
    # a built oracle is read-only apart from its arcs dict, made on first
    # use; four threads race that and every query, switching often
    g, outer = gen_grid(8, seed=0)
    norm = normalize(g, outer, seed=0)
    oracle = build(norm)
    pairs = [(j, u) for j in range(oracle.ring_count) for u in sorted(oracle.query_vertices)]
    serial = (
        [oracle.query_dist(j, u) for j, u in pairs],
        [oracle.query_path(j, u) for j, u in pairs],
        norm.arcs,
    )
    start = threading.Barrier(4)

    def answers(_):
        start.wait(timeout=30)
        return (
            [oracle.query_dist(j, u) for j, u in pairs],
            [oracle.query_path(j, u) for j, u in pairs],
            oracle.arcs,
        )

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            results = list(pool.map(answers, range(4), timeout=60))
    finally:
        sys.setswitchinterval(interval)
    assert all(r == serial for r in results)


def test_round_trip_file_object(oracle3):
    buf = io.BytesIO()
    oracle3.save(buf)
    loaded = load(io.BytesIO(buf.getvalue()))
    for j in range(oracle3.ring_count):
        for u in range(9):
            assert loaded.query_dist(j, u) == oracle3.query_dist(j, u)
            assert loaded.query_path(j, u) == oracle3.query_path(j, u)
    again = io.BytesIO()
    loaded.save(again)
    assert again.getvalue() == buf.getvalue()
    assert loaded.to_json() == oracle3.to_json()


def test_round_trip_path(tmp_path, oracle3):
    p = tmp_path / "oracle.json"
    oracle3.save(str(p))
    loaded = load(str(p))
    assert loaded.distance(0, 8) == oracle3.distance(0, 8)
    assert loaded.stats.node_count == oracle3.stats.node_count


def test_load_rejects_bad_documents(tmp_path, oracle3):
    doc = oracle3.to_json()

    wrong_version = json.loads(json.dumps(doc))
    wrong_version["version"] = 99
    p = tmp_path / "v.bin"
    p.write_bytes(encode_document(wrong_version))
    with pytest.raises(VersionMismatchError):
        load(str(p))

    wrong_format = json.loads(json.dumps(doc))
    wrong_format["format"] = "nope"
    with pytest.raises(CorruptFileError):
        load(io.BytesIO(encode_document(wrong_format)))

    with pytest.raises(CorruptFileError, match="starts with"):
        load(io.BytesIO(b"{oops"))

    with pytest.raises(CorruptFileError, match="not a planar-mssp-oracle file"):
        load(io.BytesIO(b"oops"))

    # the header lists no table sections
    columns = columns_of(doc)
    for name in ("tree_start", "node_vertex"):
        del columns[name]
    with pytest.raises(CorruptFileError, match="sections"):
        load(io.BytesIO(encode_columns(header_values(doc), columns, strict=False)))

    with pytest.raises(TypeError, match="binary"):
        load(io.StringIO("{}"))


def test_trace_shape(oracle3):
    t = oracle3.trace()
    assert t["ring_count"] == 8
    assert len(t["nodes"]) == oracle3.stats.node_count
    root_rows = [n for n in t["nodes"] if (n["i1"], n["i2"]) == (0, 7)]
    assert len(root_rows) == 1 and root_rows[0]["level"] == 0
    for rec in t["records"]:
        assert rec["side"] in (0, 1)
        assert rec["entries"] >= 1


def test_stats_shape(oracle3):
    s = oracle3.stats
    assert s.n_original == 9
    assert s.ring_count == 8
    assert s.node_count == len(oracle3.trace()["nodes"])
    assert s.max_level + 1 == len(s.per_level)
    assert s.stored_rows > 0
    assert s.record_entries == sum(len(t) for t in oracle3.records.values())
    assert s.stored_entries == s.stored_rows + s.record_entries
    assert s.build_seconds >= 0
    total_tree_vertices = sum(lv["tree_vertices"] for lv in s.per_level)
    assert total_tree_vertices > 0
    rt = BuildStats.from_json(s.to_json())
    assert rt.to_json() == s.to_json()


def test_single_vertex_instance():
    norm = normalize(build_graph(1, []), 0, seed=0)
    oracle = build(norm)
    assert oracle.ring_count == 1
    assert oracle.distance(0, 0) == 0
    assert oracle.query_path(0, 0) == []


def test_two_ring_instance():
    # a single edge has one face with two distinct vertices
    g = build_graph(2, [(0, 1, 0, 0, 4, 9)])
    norm = normalize(g, 0, seed=0)
    oracle = build(norm, instrument=True)
    by_vertex = {b: j for j, b in enumerate(oracle.face_vertices)}
    assert oracle.distance(by_vertex[0], 1) == 4
    assert oracle.distance(by_vertex[1], 0) == 9
    assert oracle.query_path(by_vertex[0], 1) == [0]
    assert oracle.query_path(by_vertex[1], 0) == [1]


def test_larger_grid_round_trip_identity(oracle5):
    buf = io.BytesIO()
    oracle5.save(buf)
    loaded = load(io.BytesIO(buf.getvalue()))
    for j in (0, oracle5.ring_count - 1):
        for u in oracle5.query_vertices:
            assert loaded.query_dist(j, u) == oracle5.query_dist(j, u)
