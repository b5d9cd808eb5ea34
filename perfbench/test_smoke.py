"""Smoke test of the benchmark itself, at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py -q
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys

import pytest

import run
from checker import Checker, brute_expected
from inputs import WORKLOADS, load_input, make_plan
from planar_mssp import build, normalize

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
LAYER_MAP = json.loads((run.HERE / "layer_map.json").read_text())


def test_benchmark_json_follows_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert all(len(w["why"]) <= 200 for w in SPEC["workloads"])
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    assert set(LAYER_MAP["per_layer"]) == {m["name"] for m in SPEC["per_layer"]}
    assert set(LAYER_MAP["workloads"]) == set(WORKLOADS)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_printed_with_its_unit(workload, trace, capsys):
    result = run.run(workload, seed=5, seconds=0.02, trace=trace, tiny=True)
    run.print_table(workload, result)
    printed = capsys.readouterr().out.splitlines()
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in spec]
    for m in spec:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"])
        assert any(line.split()[0] == m["name"] and line.split()[-1] == m["unit"]
                   for line in printed)
    if trace:
        v = {name: got["value"] for name, got in result["metrics"].items()}
        parts = ("sssp.s", "sssp.adjacency_s", "sssp.shared_forest_s", "contraction.select_s",
                 "contraction.contract_s", "embedded_graph.copy_s", "mssp.build_self_s")
        assert sum(v[p] for p in parts) == pytest.approx(v["mssp.build_s"], rel=1e-9)
        assert (run.OUT_DIR / f"{workload}-seed5-trace1-spans.json").is_file()
    else:
        assert result["metrics"]["answers_ok_frac"]["value"] == 1.0


def test_corrupted_answers_are_counted_as_failures():
    graph, face = load_input("grid-outer", tiny=True)
    norm = normalize(graph, face, 5)
    oracle = build(norm)
    plan = make_plan("grid-outer", 5, True, len(norm.ring_roots), sorted(graph.vertices()))
    expected = brute_expected(norm, plan.dist_pairs + plan.path_pairs)
    depths = [len(oracle.descent_intervals(j)) for j in range(oracle.ring_count)]
    checker = Checker(norm, expected, depths)
    dists = [oracle.distance(j, u) for j, u in plan.dist_pairs]
    paths = [oracle.query_path(j, u) for j, u in plan.path_pairs]
    assert checker.count_failures(plan.dist_pairs, dists, checker.distance_ok) == 0
    assert checker.count_failures(plan.path_pairs, paths, checker.path_ok) == 0

    dists[7] += 1
    k = next(i for i, p in enumerate(paths) if p)
    paths[k] = paths[k][:-1]
    # a repeat of a pair must be judged on its own answer, not the first one
    repeat = dists + [dists[0] + 1]
    assert checker.count_failures(plan.dist_pairs, dists, checker.distance_ok) == 1
    assert checker.count_failures(plan.path_pairs, paths, checker.path_ok) == 1
    failed = checker.count_failures(plan.dist_pairs, repeat, checker.distance_ok)
    assert failed == 2 and failed / len(repeat) > 0
    assert not checker.distance_ok(*plan.dist_pairs[0], RuntimeError("boom"))

    too_deep = Checker(norm, expected, [99] * len(depths))
    assert not too_deep.distance_ok(*plan.dist_pairs[0], dists[0])


def test_fails_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", ".cache", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "grid-outer", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
