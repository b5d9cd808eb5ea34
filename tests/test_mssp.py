"""The distance oracle itself: exactness, paths, persistence, stats."""

from __future__ import annotations

import dataclasses
import errno
import hashlib
import io
import json
import math
import os
import random
import re
import signal
import sys
import threading
import weakref
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from enum import IntEnum
from itertools import chain
from operator import eq

import pytest

from planar_mssp import (
    BadRootIndexError,
    brute_distances,
    CorruptFileError,
    EmbeddedDigraph,
    FaceVertexQueryError,
    MsspError,
    PerturbationTieError,
    UNREACHABLE,
    UnreachableError,
    VersionMismatchError,
    build,
    gen_grid,
    graph_to_json,
    load,
    normalize,
)
from planar_mssp import contraction, mssp
from planar_mssp.contraction import SelectedTree
from planar_mssp.normalize import ARC_ORIGINAL
from tests.conftest import (
    TRI_ONEWAY_SLOTS,
    answers,
    build_right_first,
    path_weight,
    schedule_children,
)
from tests.oracle_file import (
    columns_of,
    document,
    encode_columns,
    encode_document,
    header_values,
)
from tests.test_persistence import GATE_DIGESTS, gate_instance

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
    # the graph file lists each slot as [u, v, w_uv, w_vu], in slot order
    assert graph_to_json(g)["slots"] == GRID3_SLOTS


def test_grid3_distances_exact(oracle3):
    assert oracle3.ring_count == 8
    for j, b in enumerate(oracle3.face_vertices):
        for u in range(9):
            assert oracle3.distance(j, u) == GRID3_DIST[b][u], (j, b, u)


def test_query_argument_validation(oracle3):
    ring_vertex = oracle3.ring_roots[0]
    for ask in (oracle3.distance, oracle3.query_path, oracle3.explain):
        for bad in (-1, 8, 10**9, True, "0"):
            with pytest.raises(BadRootIndexError):
                ask(bad, 0)
        with pytest.raises(FaceVertexQueryError, match="ring"):
            ask(0, ring_vertex)
        with pytest.raises(FaceVertexQueryError):
            ask(0, 999)
    assert oracle3.query_vertices == frozenset(range(9))


@pytest.mark.parametrize("bad", (True, 1.0, [1]), ids=("bool", "float", "list"))
def test_query_vertex_that_is_not_an_int_is_rejected(oracle3, bad):
    # True and 1.0 hash as vertex 1, and a list does not hash at all
    for ask in (oracle3.distance, oracle3.query_path, oracle3.explain):
        with pytest.raises(FaceVertexQueryError, match="not an int"):
            ask(0, bad)


def test_root_index_off_the_fast_path(oracle3):
    # an int subclass is a root index, read as its int value, and every
    # query that names a root rejects a non-int or out-of-range one
    Root = IntEnum("Root", [(f"r{j}", j) for j in range(oracle3.ring_count)])
    for j in Root:
        assert oracle3.descent_intervals(j) == oracle3.descent_intervals(int(j))
        for u in range(9):
            assert oracle3.distance(j, u) == oracle3.distance(int(j), u)
            assert oracle3.explain(j, u) == oracle3.explain(int(j), u)
            assert oracle3.query_path(j, u) == oracle3.query_path(int(j), u)
    for bad in (-1, oracle3.ring_count, True, "0", 1.0):
        with pytest.raises(BadRootIndexError):
            oracle3.descent_intervals(bad)


def test_a_bad_root_is_reported_before_a_bad_vertex(oracle3):
    # distance's inline descent and _descend raise in one order: the root
    # first, then the vertex, whichever way the root fails
    ring_vertex = oracle3.ring_roots[0]
    messages = {
        999: "vertex 999 is not in the graph",
        1.0: "vertex 1.0 is not an int",
        ring_vertex: f"vertex {ring_vertex} is a ring vertex, not queryable",
    }
    Root = IntEnum("Root", [("r0", 0)])
    for ask in (oracle3.distance, oracle3.explain, oracle3.query_path):
        for u, message in messages.items():
            for bad in (-1, True):
                with pytest.raises(BadRootIndexError):
                    ask(bad, u)
            with pytest.raises(FaceVertexQueryError, match=f"^{re.escape(message)}$"):
                ask(Root.r0, u)


def test_distance_is_the_base_of_the_reported_path():
    # the inline descent of distance and the recording one of query_path
    # agree: UNREACHABLE exactly where the path is unreachable, else the
    # base of r_j's spoke and the reported arcs over norm.arcs, the sum
    # verify takes
    for name in sorted(GATE_DIGESTS):
        g, face, seed = gate_instance(name)
        norm = normalize(g, face, seed=seed)
        oracle = build(norm)
        arcs = norm.arcs
        for j, r in enumerate(norm.ring_roots):
            spoke = arcs[norm.graph.rotation(r)[0]]
            assert spoke.base == 0, (name, j)
            for u in sorted(oracle.query_vertices):
                d = oracle.distance(j, u)
                try:
                    path = oracle.query_path(j, u)
                except UnreachableError:
                    assert d == UNREACHABLE, (name, j, u)
                    continue
                assert d == spoke.base + sum(arcs[a].base for a in path), (name, j, u)


def test_distance_runs_in_one_python_frame(oracle3):
    # distance answers a valid pair without a Python-level call of its
    # own: one "call" event per answer (C calls such as dict.get are
    # "c_call" events and not counted)
    pairs = [(j, u) for j in range(oracle3.ring_count) for u in sorted(oracle3.query_vertices)]
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    distance = oracle3.distance
    sys.setprofile(profile)
    try:
        for j, u in pairs:
            distance(j, u)
    finally:
        sys.setprofile(None)
    assert calls == len(pairs)


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


def test_path_perturbation_sums_to_brute_force(oracle3, norm3):
    # the spoke's perturbation plus that of the path's arcs, read from
    # norm.arcs, is the full distance from r_j; for u = b_j the path is
    # empty and the spoke alone is the distance
    snap = [(tail, head, a[0], a[1]) for tail, head, a in norm3.graph.arc_items()]
    ring = set(norm3.ring_roots)
    for j, r in enumerate(norm3.ring_roots):
        expected = brute_distances(snap, r, ring - {r})
        for u in range(9):
            assert path_weight(norm3, oracle3, j, u) == expected[u], (j, u)


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
    assert repr(UNREACHABLE) == "UNREACHABLE"
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
            # intervals nest, halve and keep j
            assert a1 <= b1 <= b2 <= a2
            assert (b2 - b1) <= (a2 - a1 + 1) // 2 + 1
            assert b1 <= j <= b2
        # every descent ends at a leaf that has j as an endpoint, but root
        # n - 1's, which ends where the right leaf [n - 2, n - 1] would be
        b1, b2 = ivs[-1]
        assert j in ivs[-1]
        assert b2 - b1 <= 1 or (j == b2 == n - 1 and b2 - (b1 + b2) // 2 == 1), (j, ivs)
    assert max(len(oracle3.descent_intervals(j)) for j in range(n)) == bound
    with pytest.raises(BadRootIndexError):
        oracle3.descent_intervals(n)


# the ring counts the schedule is checked at: every count up to 600, 1 382,
# the root-sweep benchmark's 1 548 and a power of two
SCHEDULE_SIZES = (*range(1, 601), 1382, 1548, 4096)


def schedule_tree(n: int):
    """The schedule for n roots, and each node's children's positions.

    Each node must list its children's intervals in the order they come.
    """
    nodes = list(mssp._schedule(n))
    below = schedule_children(nodes)
    for p, node in enumerate(nodes):
        assert node.children == tuple(nodes[c].interval for c in below[p]), (n, p)
    return nodes, below


def test_schedule_is_a_preorder_tree_of_halved_intervals():
    # preorder, left child first; each child halves its parent's interval,
    # a leaf is an interval of one step or none, no right leaf is listed,
    # and each record key is 2 * the parent's midpoint + side, once
    for n in SCHEDULE_SIZES:
        nodes, below = schedule_tree(n)
        root = nodes[0]
        assert (root.interval, root.level, root.key) == ((0, n - 1), 0, None)
        keys = [node.key for node in nodes[1:]]
        assert len(set(keys)) == len(keys), n
        # in preorder, the nodes of p's subtree are positions p to end[p] - 1
        end = list(range(1, len(nodes) + 1))
        for p in reversed(range(len(nodes))):
            if below[p]:
                end[p] = end[below[p][-1]]
        for p, node in enumerate(nodes):
            i1, i2 = node.interval
            if i2 - i1 <= 1:
                assert below[p] == [], (n, p)
                continue
            assert below[p] in ([p + 1], [p + 1, end[p + 1]]), (n, p)
            left, *right = (nodes[c] for c in below[p])
            mid = left.interval[1]
            assert left.interval == (i1, i1 + (i2 - i1) // 2), (n, p)
            assert left.key == 2 * mid
            assert node.trees == (i1, mid, i2)
            if i2 - mid > 1:
                assert [(r.interval, r.key) for r in right] == [((mid, i2), 2 * mid + 1)]
            else:
                assert right == [], (n, p)  # a right leaf


def test_schedule_stores_each_root_once_where_its_descent_ends():
    # root j's table is stored once, at the first leaf in preorder with j
    # as an endpoint; only n - 1 may have none, the right leaf [n - 2,
    # n - 1] not being built, and then the node whose right child it would
    # be stores n - 1. No other internal node stores anything, and a leaf
    # has only the trees it stores. A descent is the path to the storing
    # node: at most ceil(log2 n) + 1 nodes, and one fewer only where n - 1
    # is a power of two (the halves split evenly down to a right leaf)
    for n in SCHEDULE_SIZES:
        nodes, below = schedule_tree(n)
        first: dict[int, int] = {}
        for p, node in enumerate(nodes):
            if not below[p]:
                for j in node.interval:
                    first.setdefault(j, p)
        if n - 1 not in first:
            first[n - 1] = next(
                p for p, node in enumerate(nodes)
                if below[p] and node.interval[1] == n - 1
                and nodes[below[p][-1]].interval[1] != n - 1
            )
        stored = Counter(j for node in nodes for j in node.stores)
        assert stored == Counter(range(n)), n
        assert {j: p for p, node in enumerate(nodes) for j in node.stores} == first, n
        for p, node in enumerate(nodes):
            if not below[p]:
                assert node.trees == node.stores, (n, p)
        depth = max(nodes[first[j]].level + 1 for j in range(n))
        bound = math.ceil(math.log2(n)) + 1
        exact = 1 + math.ceil(math.log2(n - 1)) if n > 1 else 1
        assert depth == exact <= bound, n
        assert (exact < bound) == (n > 1 and (n - 1) & (n - 2) == 0), n


# sha256 of every root's descent on every gate instance: per root j, as
# compact JSON, [name, j, descent_intervals(j)] followed by [hits, probes]
# of explain(j, u) for each query vertex u in increasing order. Derived
# with the version 8 code, whose records version 9 keeps, by a descent of
# its own that takes each root down to the first built leaf with the root
# as an endpoint, or, for root n - 1 alone, to the parent of the right
# leaf [n - 2, n - 1] where that leaf is not built
DESCENT_DIGEST = "b98eaaa95afabc68ac91a5724d74ee2276cd55fb5760250cd64d0ac2d9cc1ac9"


def test_descents_match_the_pinned_digest():
    digest = hashlib.sha256()
    for name in sorted(GATE_DIGESTS):
        g, face, seed = gate_instance(name)
        oracle = build(normalize(g, face, seed=seed))
        vertices = sorted(oracle.query_vertices)
        for j in range(oracle.ring_count):
            rows = [name, j, oracle.descent_intervals(j)]
            for u in vertices:
                ex = oracle.explain(j, u)
                rows.append([ex.hits, ex.probes])
            digest.update(json.dumps(rows, separators=(",", ":")).encode())
    assert digest.hexdigest() == DESCENT_DIGEST


def test_stored_tables_are_the_read_tables(oracle5):
    # every stored table is some query's terminal table, and the counters
    # count only what is stored
    oracle = oracle5
    assert len(oracle.tables) == oracle.ring_count
    for j in range(oracle.ring_count):
        assert oracle._plans[j].index is oracle.tables[j]
    s = oracle.stats
    assert s.stored_rows == sum(len(t) for t in oracle.tables)
    doc = document(oracle)
    record_chains = sum(len(e[5]) for _, _, entries in doc["records"] for e in entries)
    table_chains = sum(len(hops) for table in doc["tables"] for _, hops in table[5])
    assert table_chains > 0
    assert s.chain_elements == record_chains + table_chains


@pytest.mark.parametrize("right_first", (False, True))
def test_nothing_stored_goes_unread(right_first):
    # every record table is probed by some root's descent or named by a
    # tail-chain hop, every table is its root's terminal table and holds
    # all the stored rows, and every stored arc is some node's parent arc,
    # as (id, head) of the normalized graph's arc;
    # no record entry is its own tree root, no table row is unreached, no
    # table lists a ring vertex and every node has a parent (no -1 is
    # stored), root 0's descent (its records, then table 0) holds each
    # original vertex once and nothing else, and the stats count every
    # node the file holds
    for name in sorted(GATE_DIGESTS):
        g, face, seed = gate_instance(name)
        norm = normalize(g, face, seed=seed)
        oracle = build_right_first(norm) if right_first else build(norm)
        read = {key for plan in oracle._plans for key in plan.keys}
        read.update(oracle._cols.hop_key)
        assert set(oracle.records) <= read, name
        assert len(oracle.tables) == oracle.ring_count
        for plan, table in zip(oracle._plans, oracle.tables):
            assert plan.index is table
        assert oracle.stats.stored_rows == sum(map(len, oracle.tables)), name
        c = oracle._cols
        assert set(c.arc_id) == set(c.node_arc), name
        assert all(norm.arcs[a].head == h for a, h in zip(c.arc_id, c.arc_head)), name
        record_vertices = chain.from_iterable(oracle.records[key] for key in c.record_key)
        assert not any(map(eq, c.record_root, record_vertices)), name
        assert min(c.node_base) >= 0, name
        descent = [*oracle._plans[0].probes, oracle.tables[0]]
        held = Counter(chain.from_iterable(descent))
        assert set(held.values()) == {1}, name
        assert held.keys() == set(range(oracle.n_original)), name
        assert all(set(oracle.ring_roots).isdisjoint(table) for table in oracle.tables), name
        assert min(c.node_parent) >= 0, name
        assert oracle.stats.stored_entries == len(c.node_arc), name


def test_tables_hold_a_few_rows_per_vertex():
    # every descent ends at a leaf, whose graph is small, so the tables
    # hold under 3 rows per vertex (n_original + N); stored at the first
    # node with the root as an endpoint, they held 9.7 to 14.3 on 32- to
    # 256-grids
    for name in [*sorted(GATE_DIGESTS), "grid64-outer"]:
        g, face, seed = gate_instance(name)
        s = build(normalize(g, face, seed=seed)).stats
        assert s.stored_rows <= 3 * (s.n_original + s.ring_count), (name, s.stored_rows)


def test_every_table_row_is_its_brute_force_distance():
    # checked apart from build: each row's base is the distance from the
    # table's ring vertex in the normalized graph, by plain Dijkstra over
    # its arc list (contraction keeps the distances from a child's roots)
    for name in sorted(GATE_DIGESTS):
        g, face, seed = gate_instance(name)
        norm = normalize(g, face, seed=seed)
        doc = document(build(norm))
        snap = [(tail, head, a[0], a[1]) for tail, head, a in norm.graph.arc_items()]
        ring = set(norm.ring_roots)
        for r, (j, vertices, bases, *_) in zip(norm.ring_roots, doc["tables"]):
            expected = brute_distances(snap, r, ring - {r})
            for v, b in zip(vertices, bases):
                assert b == expected[v][0], (name, j, v)


def test_walks_follow_the_tree_path_of_every_stored_node():
    # every node of every block, walked as a path query walks it: the arcs
    # run from the block's root to the node, through the node's tree path,
    # each tree arc after its tail chain's arcs
    for name in sorted(GATE_DIGESTS):
        g, face, seed = gate_instance(name)
        norm = normalize(g, face, seed=seed)
        oracle = build(norm)
        c, arcs = oracle._cols, norm.arcs
        k = len(c.record_key)
        # block order: the records in key order, then the tables
        blocks = [*oracle._record_walks.values(), *oracle._table_walks]
        for b, block in enumerate(blocks):
            index, first = block[0], block[1]
            for v, node in index.items():
                root = oracle.ring_roots[b - k] if b >= k else c.record_root[node]
                # up by parent offsets to the node that holds its own
                tree_path, e = [c.node_arc[node]], node
                while first + c.node_parent[e] != e:
                    e = first + c.node_parent[e]
                    tree_path.append(c.node_arc[e])
                    assert len(tree_path) <= len(index), (name, b, v)
                out: list[int] = []
                oracle._walk(block, v, out)
                assert arcs[out[0]].tail == root and arcs[out[-1]].head == v, (name, b, v)
                assert all(arcs[a].head == arcs[z].tail for a, z in zip(out, out[1:]))
                assert out[-1] == tree_path[0]
                rest = iter(out)
                assert all(a in rest for a in reversed(tree_path)), (name, b, v)


def test_walk_bound_fits_a_chain_as_long_as_its_block():
    # a record tree that is one chain of m members: its deepest member's
    # path has m arcs, as many as the block has nodes, as the block does not
    # hold its root. The walk fits a bound of m steps; one step fewer
    # reports a cycle, so the oracle's bound, the largest block's size,
    # leaves no step to spare
    g, face, seed = gate_instance("random10-outer")
    oracle = build(normalize(g, face, seed=seed))
    c = oracle._cols
    walk_cols = oracle._walk_cols
    assert len(walk_cols[-1]) == max(map(len, [*oracle.tables, *oracle.records.values()]))
    chains = 0
    try:
        for block in oracle._record_walks.values():
            index, first, m = block[0], block[1], len(block[0])
            # the offsets the nodes name as parents, but their own offsets,
            # which mark a child of the record's root
            named = {
                c.node_parent[e] for e in index.values() if c.node_parent[e] != e - first
            }
            roots = {c.record_root[e] for e in index.values()}
            # one tree, each of whose nodes is at most one node's parent and
            # only one of which is the root's child, and no tail chain, whose
            # walks would take the bound too
            if block[3] or len(roots) != 1 or m < 2 or len(named) != m - 1:
                continue
            deepest = next(v for v, e in index.items() if e - first not in named)
            oracle._walk_cols = (*walk_cols[:-1], range(m))
            out: list[int] = []
            oracle._walk(block, deepest, out)
            assert len(out) == m
            oracle._walk_cols = (*walk_cols[:-1], range(m - 1))
            with pytest.raises(CorruptFileError, match="cycle"):
                oracle._walk(block, deepest, [])
            chains += 1
    finally:
        oracle._walk_cols = walk_cols
    assert chains


def test_instrument_rejects_a_wrong_inherited_tree(monkeypatch, norm3):
    # the first parent tree a child inherits names the reverse dart as one
    # surviving vertex's parent dart; an instrumented build compares the
    # inherited tree with a fresh Dijkstra and stops there
    inherit = mssp.inherit_tree
    calls = []

    def corrupted(tree, snap):
        if not calls:
            row_of = tree.snap.row_of
            row = next(
                row_of[v] for v in snap.vertices if tree.par_dart[row_of[v]] >= 0
            )
            par_dart = list(tree.par_dart)
            par_dart[row] ^= 1
            tree = dataclasses.replace(tree, par_dart=par_dart)
        calls.append(tree.root)
        return inherit(tree, snap)

    monkeypatch.setattr(mssp, "inherit_tree", corrupted)
    with pytest.raises(MsspError, match="instrument: inherited tree .* par_dart"):
        build(norm3, instrument=True)
    assert len(calls) == 1


def test_instrument_rejects_a_ring_vertex_selected_for_contraction(monkeypatch, norm3):
    # the first child's selection gains a one-vertex tree at the ring vertex
    # its high tree grows from; an instrumented build checks each selection
    # before it contracts anything and stops there
    select = mssp.select_trees
    rings = []

    def with_a_ring_tree(h, t_low, t_high):
        selected = select(h, t_low, t_high)
        if not rings:
            rings.append(t_high.root)
            selected.append(SelectedTree([t_high.root], [-1], [0], [0]))
        return selected

    monkeypatch.setattr(mssp, "select_trees", with_a_ring_tree)
    with pytest.raises(MsspError) as exc:
        build(norm3, instrument=True)
    assert rings[0] in norm3.ring_roots
    assert str(exc.value) == f"instrument: ring vertices [{rings[0]}] selected for contraction"


@pytest.mark.parametrize("side", (3, 5, 6))
def test_instrument_rejects_a_contraction_that_changes_distances(monkeypatch, side):
    # the first tree merged with a nonzero delta is merged as if every
    # member sat at its root: the arcs leaving it are not reweighted, so
    # some distance from a child's root shrinks; an instrumented build
    # compares the child graph with a fresh Dijkstra taken before the
    # contraction and stops there
    g, outer = gen_grid(side, seed=1)
    norm = normalize(g, outer, seed=1)
    merge = EmbeddedDigraph._merge_tree
    zeroed = []

    def unweighted(self, vertex, dart, dbase, dpert):
        if not zeroed and (any(dbase) or any(dpert)):
            zeroed.append(vertex[0])
            dbase, dpert = [0] * len(dbase), [0] * len(dpert)
        return merge(self, vertex, dart, dbase, dpert)

    monkeypatch.setattr(EmbeddedDigraph, "_merge_tree", unweighted)
    with pytest.raises(MsspError, match="instrument: contraction changed dist"):
        build(norm, instrument=True)
    assert zeroed


class OutLists(list):
    """Out-lists that a weak reference can follow."""


@pytest.mark.parametrize(
    "builder, options",
    [(build, {}), (build, {"instrument": True}), (build_right_first, {})],
    ids=["plain", "instrument", "right_first"],
)
def test_one_node_out_lists_at_a_time(monkeypatch, builder, options):
    # a node's out-lists serve only its own Dijkstra runs, so none is
    # alive when the next node takes its snapshot; the build pauses GC,
    # so reference counting alone must free them
    g, outer = gen_grid(12, seed=1)
    norm = normalize(g, outer, seed=1)
    adjacency = mssp.out_adjacency
    made = []

    def tracked(h):
        assert all(ref() is None for ref in made), "an earlier node's out-lists are alive"
        adj = adjacency(h)
        adj = adj._replace(out=OutLists(adj.out))
        made.append(weakref.ref(adj.out))
        return adj

    monkeypatch.setattr(mssp, "out_adjacency", tracked)
    oracle = builder(norm, **options)
    assert len(made) == oracle.stats.node_count > 1
    assert all(ref() is None for ref in made)


def test_instrumented_build_takes_the_production_graph_path(monkeypatch):
    # an instrumented build checks the graphs a plain build makes: its last
    # child takes the parent's graph over in place, so both copy as often
    g, outer = gen_grid(6, seed=1)
    norm = normalize(g, outer, seed=1)
    copies = []
    copy = EmbeddedDigraph.copy

    def counting(self, *args, **kwargs):
        copies[-1] += 1
        return copy(self, *args, **kwargs)

    monkeypatch.setattr(EmbeddedDigraph, "copy", counting)
    for instrument in (False, True):
        copies.append(0)
        build(norm, instrument=instrument)
    assert copies[0] > 1
    assert copies[1] == copies[0]


@pytest.fixture
def fork_at(monkeypatch):
    """fork_at(forked): make the next builds fork their root node's first
    child (mssp._FORK_MIN_VERTICES 0) or run in one process (a threshold
    no graph reaches). A machine that cannot fork skips the test."""
    if not mssp._can_fork(sys.maxsize):
        pytest.skip("this process cannot fork a worker: one CPU or one of several threads")

    def fork_at(forked: bool) -> None:
        monkeypatch.setattr(mssp, "_FORK_MIN_VERTICES", 0 if forked else sys.maxsize)

    return fork_at


def saved_bytes(oracle) -> bytes:
    buf = io.BytesIO()
    oracle.save(buf)
    return buf.getvalue()


def on_side(side: str, call, original):
    """call in place of original in the worker (side "worker") or in this
    process (side "parent"), original on the other side."""
    parent = os.getpid()

    def wrapped(*args):
        here = "parent" if os.getpid() == parent else "worker"
        return (call if here == side else original)(*args)

    return wrapped


def raising(exc):
    def call(*args):
        raise exc

    return call


@pytest.mark.parametrize("name", ["grid8-outer", "random12-inner"])
@pytest.mark.parametrize(
    "builder, options",
    [(build, {}), (build, {"instrument": True, "collect_edge_stats": True}),
     (build_right_first, {})],
    ids=["plain", "instrument_edge_stats", "right_first"],
)
def test_forked_build_matches_the_serial_build(fork_at, name, builder, options):
    # the worker's blocks, level counts and edge counters merge into the
    # parent's, and the file lays blocks out by place: the same bytes
    g, face, seed = gate_instance(name)
    norm = normalize(g, face, seed=seed)
    fork_at(False)
    serial = builder(norm, **options)
    fork_at(True)
    forked = builder(norm, **options)
    assert serial.stats.worker_cpu_seconds is serial.stats.worker_peak_rss_mb is None
    assert forked.stats.worker_cpu_seconds >= 0 and forked.stats.worker_peak_rss_mb > 0
    assert saved_bytes(forked) == saved_bytes(serial)
    assert forked.stats.per_level == serial.stats.per_level
    assert dataclasses.replace(
        forked.stats, build_seconds=0, worker_cpu_seconds=None, worker_peak_rss_mb=None
    ) == dataclasses.replace(serial.stats, build_seconds=0)


def test_only_a_large_graph_forks():
    # below mssp._FORK_MIN_VERTICES no worker is forked; the benchmark's
    # grid, pinned by LARGE_GATE, is above it
    g, face, seed = gate_instance("grid8-outer")
    norm = normalize(g, face, seed=seed)
    assert norm.graph.vertex_count < mssp._FORK_MIN_VERTICES
    assert build(norm).stats.worker_cpu_seconds is None
    g, face, seed = gate_instance("grid64-outer")
    assert normalize(g, face, seed=seed).graph.vertex_count >= mssp._FORK_MIN_VERTICES


class Unpicklable(Exception):
    """An exception that pickles but does not unpickle: its __init__
    takes two arguments, its args hold one."""

    def __init__(self, what, where):
        super().__init__(f"{what} at {where}")


def test_worker_errors_reach_the_caller(monkeypatch, fork_at):
    # faults go in through the store: a rebound layer function would keep
    # the build in one process (mssp._layers_rebound)
    g, face, seed = gate_instance("grid8-outer")
    norm = normalize(g, face, seed=seed)
    fork_at(True)
    add_record = mssp._Store.add_record

    def in_worker(call):
        monkeypatch.setattr(mssp._Store, "add_record", on_side("worker", call, add_record))

    in_worker(raising(ValueError("injected in the worker")))
    with pytest.raises(ValueError, match="injected in the worker") as info:
        build(norm)
    if sys.version_info >= (3, 11):
        assert "raised in the build's worker process" in "".join(info.value.__notes__)
    in_worker(raising(Unpicklable("injected", "the worker")))
    with pytest.raises(MsspError, match=r"raised Unpicklable\('injected at the worker'\)"):
        build(norm)
    # a tie in the worker's contractions reaches the caller typed
    in_worker(raising(PerturbationTieError("injected in the worker")))
    with pytest.raises(PerturbationTieError, match="injected in the worker"):
        build(norm)


def test_a_failed_fork_makes_the_child_here(monkeypatch, fork_at):
    # os.fork failing for want of a process: the build makes the child in
    # this process, saves the serial bytes, reports no worker and leaves
    # neither a child process nor a pipe's fd behind
    g, face, seed = gate_instance("grid8-outer")
    norm = normalize(g, face, seed=seed)
    fork_at(False)
    serial = saved_bytes(build(norm))
    fork_at(True)
    tried = []

    def no_fork():
        tried.append(errno.EAGAIN)
        raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))

    monkeypatch.setattr(os, "fork", no_fork)
    fds = "/proc/self/fd"
    before = sorted(os.listdir(fds)) if os.path.isdir(fds) else None
    oracle = build(norm)
    assert tried == [errno.EAGAIN]
    assert saved_bytes(oracle) == serial
    assert oracle.stats.worker_cpu_seconds is None
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    if before is not None:
        assert sorted(os.listdir(fds)) == before


def test_a_killed_worker_raises_mssp_error(monkeypatch, fork_at):
    g, face, seed = gate_instance("grid8-outer")
    norm = normalize(g, face, seed=seed)
    fork_at(True)

    def killed(*args):
        os.kill(os.getpid(), signal.SIGKILL)

    monkeypatch.setattr(
        mssp._Store, "add_record", on_side("worker", killed, mssp._Store.add_record)
    )
    with pytest.raises(MsspError, match=r"without a result \(killed by signal 9\)"):
        build(norm)


@pytest.mark.parametrize("exc", [ValueError("injected in the parent"), KeyboardInterrupt()])
def test_a_failure_in_the_parents_half_reaps_the_worker(monkeypatch, fork_at, exc):
    g, face, seed = gate_instance("random12-inner")
    norm = normalize(g, face, seed=seed)
    fork_at(True)
    workers = []

    class Recorded(mssp._Worker):
        def __init__(self, call):
            super().__init__(call)
            workers.append(self)

    monkeypatch.setattr(mssp, "_Worker", Recorded)
    # the parent stores its first record, its own child's, after the fork
    monkeypatch.setattr(
        mssp._Store, "add_record", on_side("parent", raising(exc), mssp._Store.add_record)
    )
    with pytest.raises(type(exc)):
        build(norm)
    (worker,) = workers
    assert worker.rusage is not None
    with pytest.raises(ChildProcessError):
        os.waitpid(worker.pid, os.WNOHANG)


def test_a_failure_after_the_fork_reaps_the_worker(monkeypatch, fork_at):
    # the parent fails between the fork and handing the worker to build
    g, face, seed = gate_instance("grid8-outer")
    norm = normalize(g, face, seed=seed)
    fork_at(True)
    monkeypatch.setattr(os, "fdopen", on_side("parent", raising(KeyboardInterrupt()), os.fdopen))
    with pytest.raises(KeyboardInterrupt):
        build(norm)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_a_rebound_layer_function_keeps_the_build_in_process(monkeypatch, fork_at):
    # a wrapper from outside the package, as a tracer installs, sees every
    # call only if the build runs here
    g, face, seed = gate_instance("grid8-outer")
    norm = normalize(g, face, seed=seed)
    fork_at(True)
    assert build(norm).stats.worker_cpu_seconds is not None
    for owner, name in [(mssp, "select_trees"), (contraction, "shared_forest"),
                        (EmbeddedDigraph, "copy")]:
        calls = []
        original = getattr(owner, name)

        def counting(*args, original=original, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        with monkeypatch.context() as m:
            m.setattr(owner, name, counting)
            oracle = build(norm)
        assert calls and oracle.stats.worker_cpu_seconds is None


def test_explain_follows_the_descent(oracle5):
    n = oracle5.ring_count
    # record key -> vertex -> the root of its record tree
    roots = {
        (mid, side): {e[0]: e[1] for e in entries}
        for mid, side, entries in document(oracle5)["records"]
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
                if root is not None:
                    hits.append((key, v))
                    v = root
            assert ex.hits == hits


def test_probe_budget(norm5, counted_lookups):
    # a path query looks up a vertex in a record or table at most
    # 2 * ceil(log2 N) + 4 times more than it reports arcs
    oracle = build(norm5)
    n = oracle.ring_count
    allowance = 2 * math.ceil(math.log2(n)) + 4
    for j in range(n):
        for u in oracle.query_vertices:
            path, probes = counted_lookups(oracle.query_path, j, u)
            assert probes <= len(path) + allowance, (j, u, probes, len(path))


def test_exactness_on_5x5_against_brute(oracle5, norm5):
    snap = [(tail, head, a[0], a[1]) for tail, head, a in norm5.graph.arc_items()]
    ring = set(norm5.ring_roots)
    for j, r in enumerate(norm5.ring_roots):
        expected = brute_distances(snap, r, ring - {r})
        for u in range(norm5.n_original):
            assert oracle5.distance(j, u) == expected[u][0], (j, u)
            assert path_weight(norm5, oracle5, j, u) == expected[u], (j, u)


def test_build_order_independence(norm3, oracle3):
    other = build_right_first(norm3)
    for j in range(oracle3.ring_count):
        for u in range(9):
            assert answers(oracle3, j, u) == answers(other, j, u)
    # the stored tables depend on position, not on visit order
    assert saved_bytes(oracle3) == saved_bytes(other)


def test_build_determinism(norm3, oracle3):
    assert saved_bytes(oracle3) == saved_bytes(build(norm3))


def test_forced_perturbation_ties_raise_a_typed_error_or_answer_exactly():
    # grids of weights 0 to 3 whose perturbations are redrawn from {0},
    # {0, 1} or {0, ..., 3}, so that many arcs tie: each build raises an
    # MsspError, never another error, or answers every distance, and every
    # path from b_j to u with its base, exactly. A tie that contraction's
    # dedup let through could leave a stored arc on a deleted dart, which
    # the store then read as None (TypeError)
    outcomes = Counter()
    for k in (4, 5, 6):
        for s in range(14):
            g, outer = gen_grid(k, max_weight=3, seed=s)
            norm = normalize(g, outer, seed=s)
            h = norm.graph
            for top in (0, 1, 3):
                rng = random.Random(100 * s + k)
                for d in sorted(h._arc):
                    if h._arc[d] is not None:
                        h._arc[d] = (h._arc[d][0], rng.randint(0, top))
                try:
                    oracle = build(norm)
                except MsspError as exc:
                    outcomes[type(exc).__name__] += 1
                    continue
                snap = [(tail, head, a[0], a[1]) for tail, head, a in h.arc_items()]
                ring = set(norm.ring_roots)
                for j, (r, b) in enumerate(zip(norm.ring_roots, norm.face_vertices)):
                    expected = brute_distances(snap, r, ring - {r})
                    for u in range(norm.n_original):
                        path = oracle.query_path(j, u)
                        at = b
                        for a in path:
                            assert h.dart_vertex(a) == at, (k, s, top, j, u)
                            at = h.dart_vertex(a ^ 1)
                        assert at == u, (k, s, top, j, u)
                        base = sum(h._arc[a][0] for a in path)
                        assert oracle.distance(j, u) == base == expected[u][0], (k, s, top, j, u)
                outcomes["exact"] += 1
    assert outcomes["PerturbationTieError"] and outcomes["exact"], outcomes


def test_queries_from_several_threads_match_serial_answers():
    # a built oracle is read-only; four threads race every distance and
    # path query, switching often, and must give a twin's serial answers
    g, outer = gen_grid(8, seed=0)
    norm = normalize(g, outer, seed=0)
    oracle, twin = build(norm), build(norm)
    pairs = [(j, u) for j in range(oracle.ring_count) for u in sorted(oracle.query_vertices)]
    serial = (
        [twin.distance(j, u) for j, u in pairs],
        [twin.query_path(j, u) for j, u in pairs],
    )
    start = threading.Barrier(4)

    def race(_):
        start.wait(timeout=30)
        return (
            [oracle.distance(j, u) for j, u in pairs],
            [oracle.query_path(j, u) for j, u in pairs],
        )

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            results = list(pool.map(race, range(4), timeout=60))
    finally:
        sys.setswitchinterval(interval)
    assert all(r == serial for r in results)


def test_round_trip_file_object(oracle3):
    buf = io.BytesIO()
    oracle3.save(buf)
    loaded = load(io.BytesIO(buf.getvalue()))
    for j in range(oracle3.ring_count):
        for u in range(9):
            assert answers(loaded, j, u) == answers(oracle3, j, u)
    again = io.BytesIO()
    loaded.save(again)
    assert again.getvalue() == buf.getvalue()


def test_round_trip_path(tmp_path, oracle3):
    p = tmp_path / "oracle.json"
    oracle3.save(str(p))
    loaded = load(str(p))
    assert loaded.distance(0, 8) == oracle3.distance(0, 8)
    # the file holds no build report; the recursion follows from the ring count
    assert loaded.stats is None
    assert loaded.trace() == oracle3.trace()


def test_load_rejects_bad_documents(tmp_path, oracle3):
    doc = document(oracle3)

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
    for name in ("tree_start", "node_arc"):
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
    # each level counts its contracted vertices once, one per record entry
    assert s.record_entries == sum(lv["contracted_vertices"] for lv in s.per_level)
    assert not any("record_entries" in lv for lv in s.per_level)
    assert s.stored_entries == s.stored_rows + s.record_entries
    assert s.build_seconds >= 0
    total_tree_vertices = sum(lv["tree_vertices"] for lv in s.per_level)
    assert total_tree_vertices > 0


def test_edge_stats_count_every_level(norm5):
    # every built node has a tree, so every level counts some arc, within
    # acceptance criterion 2's bound of six trees per arc and level
    stats = build(norm5, collect_edge_stats=True).stats
    assert all(1 <= lv["tree_arc_max"] <= 6 for lv in stats.per_level), stats.per_level


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
            assert answers(loaded, j, u) == answers(oracle5, j, u)
