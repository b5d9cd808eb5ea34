"""Generators, the brute-force oracle, and the end-to-end verifier."""

from __future__ import annotations

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planar_mssp import (
    brute_distances,
    gen_grid,
    gen_random_planar,
    sssp_tree,
    verify,
)
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
        assert flat == {v: (d.base, d.perturb) for v, d in tree.dist.items()}


def test_verify_grid3(grid3):
    g, outer = grid3
    report = verify(g, outer, seed=1)
    assert report.passed
    assert report.exhaustive
    assert report.mismatch_count == 0
    assert report.pairs_checked == 8 * 9
    assert report.path_checks > 0
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
    report = verify(g, outer, seed=1, path_checks=10)
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
    report = verify(
        g, outer, seed=4, path_checks=5, sample_pairs=40, instrument=False
    )
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
    report = verify(g, outer, seed=seed, path_checks=30)
    assert report.passed, report.format_text()
