"""Generators, the brute-force oracle, and the end-to-end verifier."""

from __future__ import annotations

import functools
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planar_mssp import (
    MsspOracle,
    UnreachableError,
    brute_distances,
    build,
    build_graph,
    gen_grid,
    gen_random_planar,
    normalize,
    sssp_tree,
    verify,
)
from planar_mssp.normalize import ARC_SPOKE
from tests.conftest import TRI_ONEWAY_SLOTS
from tests.test_io import graphs_equal


def test_gen_grid_shape():
    g, outer = gen_grid(3, seed=1)
    assert g.vertex_count == 9
    assert g.slot_count == 12
    assert len(g.face_walks()[outer]) == 8
    g.check()


def test_gen_grid_single_cell():
    g, outer = gen_grid(1, seed=0)
    assert g.vertex_count == 1
    assert g.slot_count == 0
    assert outer == 0


def test_gen_grid_seed_determinism():
    a, oa = gen_grid(4, seed=5)
    b, ob = gen_grid(4, seed=5)
    c, _ = gen_grid(4, seed=6)
    assert oa == ob
    assert graphs_equal(a, b)
    assert not graphs_equal(a, c)


def test_gen_arguments_validated():
    with pytest.raises(ValueError):
        gen_grid(0)
    with pytest.raises(ValueError):
        gen_random_planar(3, delete_prob=1.5)
    with pytest.raises(ValueError):
        gen_random_planar(0)
    with pytest.raises(ValueError, match="max weight must be non-negative, got -1"):
        gen_random_planar(3, max_weight=-1)


def test_delete_prob_zero_is_gen_grid():
    for seed in (0, 3, 11):
        a, oa = gen_grid(4, seed=seed)
        b, ob = gen_random_planar(4, seed=seed, delete_prob=0.0)
        assert oa == ob
        assert graphs_equal(a, b)


def test_random_planar_stays_connected():
    for seed in range(6):
        g, outer = gen_random_planar(5, seed=seed, delete_prob=0.4)
        assert g.connected_undirected()
        g.check()
        assert 0 <= outer < g.face_count()
        assert g.slot_count <= 40  # never more slots than the full grid


def test_delete_prob_one_leaves_spanning_tree():
    # every slot is tried in order; a deletion is only kept when the rest
    # stays connected, so probability one strips the grid to a tree
    g, _ = gen_random_planar(4, seed=2, delete_prob=1.0)
    assert g.vertex_count == 16
    assert g.slot_count == 15
    assert g.connected_undirected()
    assert g.face_count() == 1


def test_brute_distances_hand_values():
    arcs = [(0, 1, 5, 1), (1, 2, 7, 2), (0, 2, 4, 3)]
    assert brute_distances(arcs, 0) == {0: (0, 0), 1: (5, 1), 2: (4, 3)}
    assert brute_distances(arcs, 1) == {1: (0, 0), 2: (7, 2)}
    assert brute_distances(arcs, 2) == {2: (0, 0)}
    assert brute_distances(arcs, 0, {1}) == {0: (0, 0), 2: (4, 3)}


def test_brute_agrees_with_tree_dijkstra(norm3):
    # the two implementations share no code; their answers must agree
    snap = [(tail, head, a[0], a[1]) for tail, head, a in norm3.graph.arc_items()]
    ring = set(norm3.ring_roots)
    for r in norm3.ring_roots:
        tree = sssp_tree(norm3.graph, r, ring - {r})
        flat = brute_distances(snap, r, ring - {r})
        assert flat == dict(tree.dist)


def test_verify_grid3(grid3):
    g, outer = grid3
    report = verify(g, outer, seed=1)
    assert report.passed
    assert report.exhaustive
    assert report.mismatch_count == 0
    assert report.pairs_checked == 8 * 9
    assert report.path_failure_count == 0
    assert not report.path_failures
    assert report.perturbs_distinct
    assert report.vertex_count == 9
    assert report.ring_count == 8
    assert report.tree_arc_max <= report.tree_arc_bound
    assert report.max_depth <= report.depth_bound
    assert report.depth_bound == math.ceil(math.log2(8)) + 1
    assert report.size_factor_max > 0
    assert report.per_level


def test_verify_report_serialization(grid3):
    g, outer = grid3
    report = verify(g, outer, seed=1)
    doc = report.to_json()
    assert doc["passed"] is True
    json.dumps(doc)  # plain data, no custom types
    text = report.format_text()
    assert "result: PASS" in text
    assert "mismatches: 0" in text
    assert f"distance pairs: {report.pairs_checked}" in text


def test_verify_sampled_mode():
    # 252 rings x 4096 vertices crosses the exhaustive threshold, so the
    # verifier falls back to a random sample of pairs
    g, outer = gen_grid(64, seed=4)
    report = verify(g, outer, seed=4, sample_pairs=40, instrument=False)
    assert not report.exhaustive
    assert report.pairs_checked == 40
    assert report.passed, report.format_text()


def test_verify_one_way_triangle(tri_oneway):
    report = verify(tri_oneway, 0, seed=0)
    assert report.passed
    assert report.exhaustive
    assert report.pairs_checked == 9


def test_verify_bowtie(bowtie):
    walks = bowtie.face_walks()
    pinched = next(i for i, w in enumerate(walks) if len(w) == 6)
    report = verify(bowtie, pinched, seed=0)
    assert report.passed
    assert report.ring_count == 5


@settings(max_examples=8, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10**6),
    tenths=st.integers(min_value=0, max_value=4),
)
def test_verify_random_instances(seed, tenths):
    g, outer = gen_random_planar(4, seed=seed, delete_prob=tenths / 10)
    report = verify(g, outer, seed=seed)
    assert report.passed, report.format_text()


def test_verify_fails_on_distances_off_by_one(monkeypatch, grid3):
    distance = MsspOracle.distance
    monkeypatch.setattr(MsspOracle, "distance", lambda self, j, u: distance(self, j, u) + 1)
    report = verify(*grid3, seed=1)
    assert not report.passed
    assert report.mismatch_count == report.pairs_checked
    # every path still weighs the brute-force distance; distance() does not
    assert report.path_failure_count == 0
    m = report.mismatches[0]
    assert m["distance"] == repr(m["expected"][0] + 1)
    assert {m["j"], m["u"]} <= set(range(9))
    text = report.format_text()
    assert f"mismatch {m}" in text and "result: FAIL" in text


_QUERY_PATH = MsspOracle.query_path


@functools.cache
def _reweighted_grid3():
    """grid3's oracle for other weights: the same darts, rings and faces."""
    return build(normalize(*gen_grid(3, seed=2), seed=1))


def _no_path(self, j, u):
    raise UnreachableError(f"vertex {u} is not reachable")


def _path_or_nothing(self, j, u):
    try:
        return _QUERY_PATH(self, j, u)
    except UnreachableError:
        return []


def _spoke(oracle, j):
    """Root j's spoke: the parent arc of table j's row whose parent is r_j."""
    _, _, _, parents, arcs, _ = oracle.to_json()["tables"][j]
    return arcs[parents.index(oracle.ring_roots[j])]


def _there_and_back(self, j, u):
    """The path after a step along its first arc and back (grid3 has both)."""
    path = _QUERY_PATH(self, j, u)
    return [path[0], path[0] ^ 1, *path] if path else path


def _weight_issue(norm, j, u, path):
    """The judge's issue with the reweighted grid's path to u, if it is another."""
    other = _QUERY_PATH(_reweighted_grid3(), j, u)
    if other == path:
        return None
    got, want = ([norm.arcs[a] for a in p] for p in (other, path))
    tb, tp = sum(a.base for a in got), sum(a.perturb for a in got)
    base, perturb = sum(a.base for a in want), sum(a.perturb for a in want)
    return f"path weight ({tb}, {tp}) does not match ({base}, {perturb})"


# each case: the instance, the stand-in for MsspOracle.query_path, and the
# issue the judge must report for (j, u) given the normalized instance
# and the true path from b_j to u (None for an unreachable u), or None
# when that path passes
@pytest.mark.parametrize(("instance", "patch", "issue"), [
    pytest.param(
        "grid3", _no_path,
        lambda norm, j, u, path: "unexpected UnreachableError",
        id="unexpected-unreachable",
    ),
    pytest.param(
        "tri_oneway", _path_or_nothing,
        lambda norm, j, u, path: "expected UnreachableError" if path is None else None,
        id="unreachable-not-raised",
    ),
    pytest.param(
        "grid3", lambda self, j, u: _QUERY_PATH(self, j, u)[:-1],
        lambda norm, j, u, path: f"path ends at {norm.arcs[path[-1]].tail}" if path else None,
        id="last-arc-dropped",
    ),
    pytest.param(
        "grid3", lambda self, j, u: [*_QUERY_PATH(self, j, u), 10**9],
        lambda norm, j, u, path: f"unknown arc id {10**9}",
        id="unknown-arc",
    ),
    pytest.param(
        "grid3", lambda self, j, u: [_spoke(self, j), *_QUERY_PATH(self, j, u)],
        lambda norm, j, u, path: (
            f"arc {norm.graph.rotation(norm.ring_roots[j])[0]} has kind {ARC_SPOKE}"
        ),
        id="wrong-kind",
    ),
    pytest.param(
        "grid3", lambda self, j, u: _QUERY_PATH(self, j, u)[::-1],
        lambda norm, j, u, path: (
            f"arc {path[-1]} breaks the walk at {norm.face_vertices[j]}"
            if len(path) > 1 else None
        ),
        id="broken-walk",
    ),
    pytest.param(
        "grid3", _there_and_back,
        lambda norm, j, u, path: f"vertex {norm.face_vertices[j]} repeated" if path else None,
        id="repeated-vertex",
    ),
    pytest.param(
        "grid3", lambda self, j, u: _QUERY_PATH(_reweighted_grid3(), j, u),
        _weight_issue,
        id="wrong-weight",
    ),
])
def test_verify_path_judge_reports_each_issue(monkeypatch, instance, patch, issue):
    if instance == "grid3":
        graph, face, seed = *gen_grid(3, seed=1), 1
    else:
        graph, face, seed = build_graph(3, TRI_ONEWAY_SLOTS), 0, 0
    norm = normalize(graph, face, seed=seed)
    oracle = build(norm)
    monkeypatch.setattr(MsspOracle, "query_path", patch)
    report = verify(graph, face, seed=seed)
    monkeypatch.undo()
    assert report.passed is False
    # distance() is not patched, so only the path judge fails, once per
    # pair whose path has an issue, and the report keeps the first 50
    assert report.mismatch_count == 0
    true_paths = {}
    for j in range(oracle.ring_count):
        for u in oracle.query_vertices:
            try:
                true_paths[j, u] = oracle.query_path(j, u)
            except UnreachableError:
                true_paths[j, u] = None
    failing = sum(issue(norm, j, u, path) is not None for (j, u), path in true_paths.items())
    assert report.path_failure_count == failing > 0
    assert len(report.path_failures) == min(50, failing)
    text = report.format_text()
    for failure in report.path_failures:
        j, u = failure["j"], failure["u"]
        assert failure["issue"] == issue(norm, j, u, true_paths[j, u])
        assert f"path failure {failure}" in text
    assert "result: FAIL" in text
