"""End-to-end acceptance gate.

Each test covers one acceptance criterion and prints a single
machine-greppable verdict line (written past the capture so it always
shows up in the pytest log):

  1. exhaustive exactness against brute force over the instance corpus
  2. structural bounds: per-arc tree count and per-level tree size
  3. preprocessing scaling on growing grids, plus query depth bounds
  4. instrumented builds: child graphs preserve boundary distances
  5. path reporting: validity, weight agreement, and probe budget
  6. contraction safety (Euler, rings untouched) and order independence
  7. persistence: save/load round-trips answer identically
  8. every-face exactness: exhaustive checks on every face of small
     grids, random planar graphs, zero and near-cap weights, one-way
     arcs, a pinched face, a tree and a cycle

Pinned tolerances: per-arc bound 6, per-level size factor bound 9
(measured plateau just above 8 on large grids), entry-count ratio
spread bound 2.0, path probe allowance len + 2*ceil(log2 N) + 4, and a
loose 300 s pathology guard on the scaling run.
"""

from __future__ import annotations

import io
import math
import random
import sys
import time

import pytest

from planar_mssp import (
    MsspError,
    build,
    build_graph,
    gen_grid,
    gen_random_planar,
    graph_from_json,
    graph_to_json,
    load,
    normalize,
    verify,
)
from tests.conftest import BOWTIE_SLOTS, TRI_ONEWAY_SLOTS, acceptance_lines, build_right_first
from tests.test_persistence import oneway_grid

GRID_SIDES = range(2, 13)
GRID_SEEDS = range(20)
RANDOM_SIDES = (5, 8, 10)
RANDOM_PROBS = (0.1, 0.3)
RANDOM_SEEDS = range(20)

SIZE_FACTOR_BOUND = 9.0
TREE_ARC_BOUND = 6
RATIO_SPREAD_BOUND = 2.0
PROBE_SLACK = 4
SCALING_SIDES = (32, 64, 128, 256)
SCALING_WALL_GUARD = 300.0


def announce(line: str) -> None:
    print(line, file=sys.__stdout__, flush=True)
    acceptance_lines.append(line)


def corpus_instances():
    for k in GRID_SIDES:
        for seed in GRID_SEEDS:
            yield ("grid", k, seed, 0.0)
    for k in RANDOM_SIDES:
        for p in RANDOM_PROBS:
            for seed in RANDOM_SEEDS:
                yield ("random", k, seed, p)


@pytest.fixture(scope="module")
def corpus_reports():
    t0 = time.perf_counter()
    out = []
    for kind, k, seed, p in corpus_instances():
        if kind == "grid":
            g, outer = gen_grid(k, seed=seed)
        else:
            g, outer = gen_random_planar(k, seed=seed, delete_prob=p)
        report = verify(g, outer, seed=seed, path_checks=30, instrument=False)
        out.append((kind, k, seed, p, report))
    return time.perf_counter() - t0, out


def test_criterion_1_exhaustive_exactness(corpus_reports):
    seconds, reports = corpus_reports
    pairs = sum(r.pairs_checked for *_, r in reports)
    mismatches = sum(r.mismatch_count for *_, r in reports)
    all_exhaustive = all(r.exhaustive for *_, r in reports)
    distinct = all(r.perturbs_distinct for *_, r in reports)
    ok = mismatches == 0 and all_exhaustive and distinct
    announce(
        f"[PRIMARY 1] exhaustive exactness: {len(reports)} instances,"
        f" {pairs} pairs, {mismatches} mismatches, {seconds:.1f}s:"
        f" {'PASS' if ok else 'FAIL'}"
    )
    assert mismatches == 0, [r.mismatches for *_, r in reports if r.mismatch_count]
    assert all_exhaustive
    assert distinct


def test_criterion_2_structural_bounds(corpus_reports):
    _, reports = corpus_reports
    arc_max = max(r.tree_arc_max for *_, r in reports)
    factor_max = max(r.size_factor_max for *_, r in reports)
    ok = arc_max <= TREE_ARC_BOUND and factor_max <= SIZE_FACTOR_BOUND
    announce(
        f"[PRIMARY 2] structural bounds: per-arc trees/level max {arc_max}"
        f" (bound {TREE_ARC_BOUND}), per-level size factor max {factor_max:.3f}"
        f" (bound c={SIZE_FACTOR_BOUND:g}): {'PASS' if ok else 'FAIL'}"
    )
    assert arc_max <= TREE_ARC_BOUND
    assert factor_max <= SIZE_FACTOR_BOUND


def test_criterion_3_scaling():
    t_start = time.perf_counter()
    rows = []
    for k in SCALING_SIDES:
        g, outer = gen_grid(k, seed=0)
        norm = normalize(g, outer, seed=0)
        t0 = time.perf_counter()
        oracle = build(norm)
        t_build = time.perf_counter() - t0
        n_norm = norm.graph.vertex_count
        n_rings = oracle.ring_count
        ratio = oracle.stats.stored_entries / (n_norm * math.log2(n_rings))
        depth = max(
            len(oracle.descent_intervals(j)) for j in range(n_rings)
        )
        bound = math.ceil(math.log2(n_rings)) + 1
        factor = max(
            lv["tree_vertices"] / n_norm for lv in oracle.stats.per_level
        )
        rows.append((k, t_build, ratio, depth, bound, factor))
    total = time.perf_counter() - t_start
    ratios = [r[2] for r in rows]
    spread = max(ratios) / min(ratios)
    depth_ok = all(d <= b for _, _, _, d, b, _ in rows)
    factor_ok = all(f <= SIZE_FACTOR_BOUND for *_, f in rows)
    ok = (
        spread <= RATIO_SPREAD_BOUND
        and depth_ok
        and factor_ok
        and total <= SCALING_WALL_GUARD
    )
    detail = ", ".join(
        f"k={k} {t:.2f}s ratio={r:.3f} depth={d}/{b}" for k, t, r, d, b, _ in rows
    )
    announce(
        f"[PRIMARY 3] scaling: {detail}; ratio spread {spread:.3f}"
        f" (bound {RATIO_SPREAD_BOUND}), total {total:.1f}s:"
        f" {'PASS' if ok else 'FAIL'}"
    )
    assert spread <= RATIO_SPREAD_BOUND
    assert depth_ok
    assert factor_ok
    assert total <= SCALING_WALL_GUARD


INSTRUMENTED = [
    *[("grid", k, seed, 0.0) for k in (2, 3, 4, 5, 6, 7, 8) for seed in (0, 1)],
    *[("random", k, seed, 0.3) for k in (5, 8) for seed in (0, 1)],
]


def instrumented_builds():
    for kind, k, seed, p in INSTRUMENTED:
        if kind == "grid":
            g, outer = gen_grid(k, seed=seed)
        else:
            g, outer = gen_random_planar(k, seed=seed, delete_prob=p)
        norm = normalize(g, outer, seed=seed)
        yield kind, k, seed, norm


def test_criterion_4_child_graphs_preserve_distances():
    # instrumented builds recompute boundary-root distances in every
    # child graph and raise on the first disagreement with the parent
    count = 0
    nodes = 0
    try:
        for _, _, _, norm in instrumented_builds():
            oracle = build(norm, instrument=True)
            count += 1
            nodes += oracle.stats.node_count
    except MsspError as exc:  # pragma: no cover - failure reporting
        announce(f"[PRIMARY 4] child-graph distance preservation: FAIL ({exc})")
        raise
    announce(
        f"[PRIMARY 4] child-graph distance preservation: {count} instrumented"
        f" builds, {nodes} nodes checked: PASS"
    )


def test_criterion_5_paths_and_probe_budget(corpus_reports, counted_lookups):
    _, reports = corpus_reports
    spot_checks = sum(r.path_checks for *_, r in reports)
    spot_failures = [f for *_, r in reports for f in r.path_failures]

    counted = 0
    max_slack = -(10**9)
    for k, seed, budget_pairs in ((12, 5, 600), (16, 11, 600)):
        g, outer = gen_grid(k, seed=seed)
        norm = normalize(g, outer, seed=seed)
        oracle = build(norm)
        allowance = 2 * math.ceil(math.log2(oracle.ring_count)) + PROBE_SLACK
        verts = sorted(oracle.query_vertices)
        rng = random.Random(f"probe:{seed}")
        for _ in range(budget_pairs):
            j = rng.randrange(oracle.ring_count)
            u = verts[rng.randrange(len(verts))]
            # probes: the query's vertex lookups in records and tables
            path, probes = counted_lookups(oracle.query_path, j, u)
            counted += 1
            max_slack = max(max_slack, probes - len(path) - allowance + PROBE_SLACK)
            assert probes <= len(path) + allowance, (k, seed, j, u)
    ok = not spot_failures
    announce(
        f"[PRIMARY 5] path reporting: {spot_checks} spot checks"
        f" ({len(spot_failures)} failures), {counted} probe-counted paths,"
        f" worst probe overhead {max_slack} of allowed"
        f" 2*ceil(log2 N)+{PROBE_SLACK}: {'PASS' if ok else 'FAIL'}"
    )
    assert not spot_failures, spot_failures[:5]


def test_criterion_6_contraction_safety_and_order_independence():
    # Euler validity after every contraction and the no-ring-contracted
    # rule are enforced inside instrumented builds; build the same
    # instances in both recursion orders and require identical answers.
    instances = 0
    compared = 0
    for _, _, _, norm in instrumented_builds():
        left = build(norm, instrument=True)
        right = build_right_first(norm, instrument=True)
        instances += 1
        verts = sorted(left.query_vertices)
        for j in range(left.ring_count):
            for u in verts:
                assert left.query_dist(j, u) == right.query_dist(j, u)
                compared += 1
        rng = random.Random(f"order:{instances}")
        for _ in range(25):
            j = rng.randrange(left.ring_count)
            u = verts[rng.randrange(len(verts))]
            assert left.query_path(j, u) == right.query_path(j, u)
    announce(
        f"[PRIMARY 6] contraction safety and order independence:"
        f" {instances} instances, {compared} distances and"
        f" {instances * 25} paths compared across recursion orders: PASS"
    )


ROUND_TRIP = [
    ("grid", 2, 0, 0.0),
    ("grid", 3, 0, 0.0),
    ("grid", 4, 0, 0.0),
    ("grid", 6, 0, 0.0),
    ("grid", 9, 0, 0.0),
    ("grid", 12, 0, 0.0),
    ("random", 5, 0, 0.1),
    ("random", 8, 1, 0.3),
    ("random", 10, 3, 0.3),
    ("random", 10, 7, 0.1),
]


def test_criterion_7_save_load_round_trip():
    instances = 0
    compared = 0
    for kind, k, seed, p in ROUND_TRIP:
        if kind == "grid":
            g, outer = gen_grid(k, seed=seed)
        else:
            g, outer = gen_random_planar(k, seed=seed, delete_prob=p)
        norm = normalize(g, outer, seed=seed)
        oracle = build(norm)
        buf = io.BytesIO()
        oracle.save(buf)
        loaded = load(io.BytesIO(buf.getvalue()))
        verts = sorted(oracle.query_vertices)
        for j in range(oracle.ring_count):
            for u in verts:
                assert loaded.query_dist(j, u) == oracle.query_dist(j, u)
                compared += 1
        rng = random.Random(f"roundtrip:{k}:{seed}")
        for _ in range(20):
            j = rng.randrange(oracle.ring_count)
            u = verts[rng.randrange(len(verts))]
            assert loaded.query_path(j, u) == oracle.query_path(j, u)
        again = io.BytesIO()
        loaded.save(again)
        assert again.getvalue() == buf.getvalue()
        instances += 1
    announce(
        f"[PRIMARY 7] persistence round-trip: {instances} instances,"
        f" {compared} distances re-answered identically,"
        f" re-saves byte-identical: PASS"
    )


def near_cap_grid(k: int, seed: int):
    """Graph document of a k-grid whose heaviest arc weighs the most it admits.

    normalize admits an instance while 2 * n * W_big < 2**62, where
    W_big = n * max_weight + 1. The other weights sit up to 100 below the
    cap.
    """
    n = k * k
    cap = ((1 << 62) - 1) // (2 * n)  # the largest W_big admitted
    top = (cap - 1) // n
    doc = graph_to_json(*gen_grid(k, seed=seed))
    for slot in doc["slots"]:
        slot[2] = top - slot[2]
        slot[3] = top - slot[3]
    doc["slots"][0][2] = top
    return doc


def path_graph(n: int, seed: int):
    """A path on n vertices: a tree, whose one face visits inner vertices twice."""
    rng = random.Random(f"path:{seed}")
    return build_graph(
        n,
        [(i, i + 1, 1 if i else 0, 0, rng.randint(0, 100), rng.randint(0, 100))
         for i in range(n - 1)],
    )


def cycle_graph(n: int, seed: int):
    """A cycle on n vertices: two faces, each with every vertex on it."""
    rng = random.Random(f"cycle:{seed}")
    return build_graph(
        n,
        [(i, (i + 1) % n, 1, 0, rng.randint(0, 100), rng.randint(0, 100))
         for i in range(n)],
    )


def every_face_instances():
    """(name, graph, seed) of the instances checked on every face."""
    for k in (2, 3, 4, 6):
        yield f"grid{k}", gen_grid(k, seed=k)[0], k
    for k in (5, 7):
        for seed in range(3):
            yield (
                f"random{k}-s{seed}",
                gen_random_planar(k, seed=seed, delete_prob=0.4)[0],
                seed,
            )
    yield "grid4-zero", gen_grid(4, max_weight=0, seed=1)[0], 1
    yield "grid3-near-cap", graph_from_json(near_cap_grid(3, seed=2))[0], 2
    yield "grid6-oneway", oneway_grid(6)[0], 3
    yield "bowtie", build_graph(5, BOWTIE_SLOTS), 4
    yield "tri_oneway", build_graph(3, TRI_ONEWAY_SLOTS), 5
    yield "path6", path_graph(6, seed=6), 6
    yield "cycle6", cycle_graph(6, seed=7), 7


def test_near_cap_grid_is_at_the_cap():
    doc = near_cap_grid(3, seed=2)
    normalize(*graph_from_json(doc), seed=0)
    doc["slots"][0][2] += 1
    with pytest.raises(MsspError, match="too large"):
        normalize(*graph_from_json(doc), seed=0)


def test_criterion_8_every_face_exactness():
    t0 = time.perf_counter()
    instances = 0
    runs = 0
    pairs = 0
    path_checks = 0
    failed = []
    for name, g, seed in every_face_instances():
        instances += 1
        for face in range(len(g.face_walks())):
            report = verify(g, face, seed=seed, force_exhaustive=True)
            runs += 1
            pairs += report.pairs_checked
            path_checks += report.path_checks
            if not report.passed:
                failed.append((name, face, report.mismatches[:3], report.path_failures[:3]))
    seconds = time.perf_counter() - t0
    announce(
        f"[PRIMARY 8] every-face exactness: {instances} instances, {runs} faces,"
        f" {pairs} pairs, {path_checks} path checks, {len(failed)} failing faces,"
        f" {seconds:.1f}s: {'PASS' if not failed else 'FAIL'}"
    )
    assert not failed, failed[:5]
