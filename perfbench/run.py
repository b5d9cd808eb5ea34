"""Layered pipeline benchmark of planar-mssp.

    python3 perfbench/run.py --workload grid-outer --seed 1 --seconds 4 --trace 0

One run takes a seeded workload graph through the public API: normalize
and build (set-up), save, load, then distance and path queries on the
loaded oracle for --seconds, one client in a closed loop. Every answer is
checked against brute force computed outside the timed loops. Set-up,
save and load are repeated and their medians reported. Times are scaled
to a nominal machine by a reference kernel gauged around each measurement
(reference.py), because other work on the machine slows it by tens of
percent at times.

--trace 0 prints the end-to-end metrics named in BENCHMARK.json, measured
with no tracing, plus peak RSS from child processes run one at a time.
--trace 1 wraps the layer functions (spans.py), prints the per-layer
metrics, and writes the spans to perfbench/out/. Each metric is printed
with its unit; the last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics. --workload all runs every
workload in turn and prefixes each metric with its workload and a dot.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
sys.path.insert(0, str(ROOT / "src"))

try:
    from planar_mssp import build, load, normalize
except ImportError as exc:
    print(f"perfbench: cannot import planar_mssp from {ROOT / 'src'}: {exc}", file=sys.stderr)
    sys.exit(2)

from checker import Checker, brute_expected  # noqa: E402
from inputs import SCALES, WORKLOADS, load_input, make_plan  # noqa: E402
from reference import Reference, scaled  # noqa: E402
from spans import Tracer  # noqa: E402

CHILD_TIMEOUT_S = 170
# Calls are timed in windows of consecutive calls with the reference gauged
# between windows. Each window's figure is scaled by the gauges on either
# side of it and the median over windows is reported, so a burst of other
# work on the machine moves a few windows rather than the figure. A
# distance window keeps 50 calls beyond its p99.
DIST_WINDOW = 5000
PATH_WINDOW = 500


def metric_units() -> tuple[dict[str, str], dict[str, str]]:
    """Units of the end-to-end and per-layer metrics, from BENCHMARK.json."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    return (
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
    )


def environment() -> dict:
    """Interpreter, platform, git rev when there is one, and a source digest."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "planar_mssp").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_rev": _git_rev(),
        "src_sha256": digest.hexdigest(),
    }


def _git_rev() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None  # a plain checkout
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


# ----------------------------------------------------------------------
# measurement


def setup(graph, face, seed):
    norm = normalize(graph, face, seed)
    return norm, build(norm)


def traced_rep(ref: Reference, tracer: Tracer, graph, face, seed, oracle_path):
    """One traced set-up, save and load, like an untraced repetition.

    Returns the instance, build stats and loaded oracle, and per top-level
    span the factor from its measured seconds to nominal seconds.
    """
    gc.collect()
    gauges = [ref.gauge()]
    with tracer.installed():
        with tracer.span("normalize.normalize"):
            norm = normalize(graph, face, seed)
        with tracer.span("mssp.build"):
            oracle = build(norm)
        gc.collect()
        gauges.append(ref.gauge())
        with tracer.span("mssp.save"):
            oracle.save(oracle_path)
        stats = oracle.stats
        del oracle
        gc.collect()
        gauges.append(ref.gauge())
        with tracer.span("mssp.load"):
            loaded = load(oracle_path)
    gauges.append(ref.gauge())
    setup_f, save_f, load_f = (scaled(1.0, gauges[i], gauges[i + 1]) for i in range(3))
    factors = {"normalize.normalize": setup_f, "mssp.build": setup_f,
               "mssp.save": save_f, "mssp.load": load_f}
    return norm, stats, loaded, factors


def time_calls(ref: Reference, fn, pairs, budget_s: float, window: int):
    """Call fn on pairs, cycling, for budget_s, at least one pass over the
    pairs, and whole windows of calls.

    Returns per-call nanoseconds, the answers, and the reference gauged
    before the first window and after each one. An exception is recorded
    as the answer and judged by the checker.
    """
    pc = time.perf_counter_ns
    times: list[int] = []
    answers: list = []
    gc.collect()
    gauges = [ref.sample()]
    deadline = pc() + int(budget_s * 1e9)
    while True:
        for j, u in pairs:
            t0 = pc()
            try:
                answer = fn(j, u)
            except Exception as exc:  # a failed answer, counted by the checker
                answer = exc
            t1 = pc()
            times.append(t1 - t0)
            answers.append(answer)
            if len(times) % window == 0:
                gauges.append(ref.sample())
                if t1 > deadline and len(times) >= len(pairs):
                    return times, answers, gauges


def window_median(stat, size: int, gauges: list[float], *series: list) -> float:
    """Median over windows of `size` calls of stat(*window), in nominal time."""
    return statistics.median(
        scaled(stat(*(s[i * size:(i + 1) * size] for s in series)), gauges[i], gauges[i + 1])
        for i in range(len(gauges) - 1)
    )


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * q)) - 1]


def rss_children(workload: str, seed: int, tiny: bool, oracle_path: Path) -> dict[str, float]:
    """Peak RSS and stage times of a build-and-save child, then of a
    load-and-query child."""
    scale = "tiny" if tiny else "full"
    child_oracle = oracle_path.with_suffix(".child.json")
    out: dict[str, float] = {}
    try:
        for mode, path in (("build", child_oracle), ("load", oracle_path)):
            proc = subprocess.run(
                [sys.executable, str(HERE / "rss_child.py"), "launch", mode, workload,
                 str(seed), scale, str(path)],
                capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True,
            )
            out.update(json.loads(proc.stdout.strip().splitlines()[-1]))
    finally:
        child_oracle.unlink(missing_ok=True)
    return out


# ----------------------------------------------------------------------
# metrics


def layer_metrics(tracer: Tracer, rep: int, factors: dict[str, float]) -> dict[str, float]:
    """Self times (nominal seconds), calls and work of one traced repetition."""
    self_s: dict[tuple[str, str], float] = defaultdict(float)
    calls: Counter = Counter()
    work: Counter = Counter()
    whole: dict[str, float] = {}
    for span, own, top in zip(tracer.spans, tracer.self_times(), tracer.top_names()):
        if span.trace != rep:
            continue
        key = (top, span.name)
        self_s[key] += own * factors[top]
        calls[key] += 1
        work[key] += span.count or 0
        if span.parent < 0:
            whole[span.name] = span.duration * factors[top]
    b = "mssp.build"
    return {
        "normalize.s": whole["normalize.normalize"],
        "sssp.s": self_s[b, "sssp.sssp_tree"],
        "sssp.calls": calls[b, "sssp.sssp_tree"],
        "sssp.adjacency_s": self_s[b, "sssp.out_adjacency"],
        "sssp.shared_forest_s": self_s[b, "sssp.shared_forest"],
        "contraction.select_s": self_s[b, "contraction.select_trees"],
        "contraction.select_calls": calls[b, "contraction.select_trees"],
        "contraction.trees_selected": work[b, "contraction.select_trees"],
        "contraction.contract_s": self_s[b, "contraction.contract_tree"],
        "contraction.contract_calls": calls[b, "contraction.contract_tree"],
        "embedded_graph.copy_s": self_s[b, "embedded_graph.copy"],
        "embedded_graph.copy_calls": calls[b, "embedded_graph.copy"],
        "embedded_graph.vertices_copied": work[b, "embedded_graph.copy"],
        "mssp.build_s": whole[b],
        "mssp.build_self_s": self_s[b, b],
        "mssp.to_json_s": self_s["mssp.save", "mssp.to_json"],
        "mssp.save_encode_s": self_s["mssp.save", "mssp.save"],
        "mssp.load_parse_s": self_s["mssp.load", "mssp.json_loads"],
        "mssp.load_rebuild_s": self_s["mssp.load", "mssp.load"],
        "trace.setup_traced_s": whole["normalize.normalize"] + whole[b],
    }


def stats_metrics(norm, stats) -> dict[str, float]:
    """Counts the build reports about itself (oracle.stats, per level)."""
    n = norm.graph.vertex_count
    roots = len(norm.ring_roots)
    levels = stats.per_level
    return {
        "normalize.ring_count": roots,
        "normalize.reverse_arcs": sum(1 for a in norm.arcs.values() if a.kind == "reverse"),
        "sssp.vertices_settled": sum(e["tree_vertices"] for e in levels),
        "contraction.vertices_contracted": sum(e["contracted_vertices"] for e in levels),
        "contraction.record_entries": stats.record_entries,
        "mssp.nodes": stats.node_count,
        "mssp.max_level": stats.max_level,
        "mssp.stored_rows": stats.stored_rows,
        "mssp.chain_elements": stats.chain_elements,
        "mssp.entries_per_nlogN": stats.stored_entries / (n * max(1.0, math.log2(roots))),
        "mssp.level_factor_max": max(e["tree_vertices"] / n for e in levels),
    }


def run(workload: str, seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    """One benchmark run; returns the result object and writes a report."""
    scale = SCALES[workload, tiny]
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{int(trace)}"
    oracle_path = OUT_DIR / f"{stem}-{os.getpid()}.oracle.json"
    graph, face = load_input(workload, tiny)
    ref = Reference()
    tracer = Tracer()
    samples: dict[str, list[float]] = {"setup_s": [], "save_s": [], "load_s": []}
    rep_factors: list[dict[str, float]] = []
    try:
        for rep in range(scale.reps):
            (norm, oracle), t = ref.measure(setup, graph, face, seed)
            samples["setup_s"].append(t)
            if trace:
                del norm, oracle
                tracer.trace_id = rep
                norm, stats, loaded, factors = traced_rep(
                    ref, tracer, graph, face, seed, oracle_path
                )
                rep_factors.append(factors)
            else:
                _, t = ref.measure(oracle.save, oracle_path)
                samples["save_s"].append(t)
                # load with the built oracle gone, as in a process that queries
                stats = oracle.stats
                del oracle
                loaded, t = ref.measure(load, oracle_path)
                samples["load_s"].append(t)
            if rep + 1 < scale.reps:
                del norm, loaded
        oracle_bytes = oracle_path.stat().st_size

        plan = make_plan(workload, seed, tiny, len(norm.ring_roots), sorted(graph.vertices()))
        expected, brute_s = ref.measure(brute_expected, norm, plan.dist_pairs + plan.path_pairs)
        depths = [len(loaded.descent_intervals(j)) for j in range(loaded.ring_count)]
        checker = Checker(norm, expected, depths)
        dist_ns, dist_answers, dist_gauges = time_calls(
            ref, loaded.distance, plan.dist_pairs, seconds / 2, DIST_WINDOW
        )
        path_ns, path_answers, path_gauges = time_calls(
            ref, loaded.query_path, plan.path_pairs, seconds / 2, PATH_WINDOW
        )
        failed = checker.count_failures(plan.dist_pairs, dist_answers, checker.distance_ok)
        failed += checker.count_failures(plan.path_pairs, path_answers, checker.path_ok)
        attempted = len(dist_answers) + len(path_answers)
        path_arcs = [len(a) if isinstance(a, list) else 0 for a in path_answers]
        paths = sum(isinstance(a, list) for a in path_answers)

        if trace:
            traced_setup = [
                layer_metrics(tracer, rep, f)["trace.setup_traced_s"]
                for rep, f in enumerate(rep_factors)
            ]
            mid = sorted(range(scale.reps), key=traced_setup.__getitem__)[scale.reps // 2]
            query_depth = [depths[j] for j, _ in plan.dist_pairs]
            values = layer_metrics(tracer, mid, rep_factors[mid])
            values.update(stats_metrics(norm, stats))
            values.update(
                {
                    "sssp.ns_per_vertex": values["sssp.s"] * 1e9 / values["sssp.vertices_settled"],
                    "mssp.query_depth_mean": statistics.fmean(query_depth),
                    "mssp.query_depth_max": max(query_depth),
                    "mssp.path_arcs_mean": sum(path_arcs) / max(1, paths),
                    "harness.brute_s": brute_s,
                    "trace.setup_untraced_s": statistics.median(samples["setup_s"]),
                    "trace.setup_traced_s": statistics.median(traced_setup),
                }
            )
            values["trace.overhead_frac"] = (
                values["trace.setup_traced_s"] / values["trace.setup_untraced_s"] - 1.0
            )
            tracer.dump(OUT_DIR / f"{stem}-spans.json")
        else:
            values = {
                "dist_us.p50": window_median(
                    lambda w: percentile(w, 0.50), DIST_WINDOW, dist_gauges, dist_ns) / 1e3,
                "dist_us.p99": window_median(
                    lambda w: percentile(w, 0.99), DIST_WINDOW, dist_gauges, dist_ns) / 1e3,
                "path_us_per_arc": window_median(
                    lambda ns, arcs: sum(ns) / max(1, sum(arcs)), PATH_WINDOW,
                    path_gauges, path_ns, path_arcs) / 1e3,
                "oracle_bytes": oracle_bytes,
                "stored_entries": stats.stored_entries,
                "answers_ok_frac": 1.0 - failed / attempted,
            }
            del norm, loaded, checker, expected, dist_answers, path_answers
            gc.collect()
            child = rss_children(workload, seed, tiny, oracle_path)
            values["build_peak_rss_mb"] = child["build_rss_mb"]
            values["save_peak_rss_mb"] = child["save_rss_mb"]
            values["load_peak_rss_mb"] = child["load_rss_mb"]
            for name, ts in samples.items():
                ts.append(child[name])  # one more repetition, in a fresh process
                values[name] = statistics.median(ts)
    finally:
        oracle_path.unlink(missing_ok=True)

    e2e_units, layer_units = metric_units()
    units = layer_units if trace else e2e_units
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    report = dict(result)
    report.update(
        workload=workload,
        seed=seed,
        seconds=seconds,
        env=environment(),
        samples=samples,
        calls={"distance": len(dist_ns), "path": len(path_ns)},
        reference_s=ref.samples,
        per_level=stats.per_level,
    )
    with open(OUT_DIR / f"{stem}.json", "w", encoding="utf-8") as fh:
        fh.write(json.dumps(report, indent=1))
        fh.write("\n")
    return result


def print_table(workload: str, result: dict) -> None:
    print(f"# {workload}: {result['attempted']} answers checked, {result['failed']} failed")
    for name, m in result["metrics"].items():
        print(f"{name:<34} {m['value']:>16.6g} {m['unit']}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    print(json.dumps({"env": environment()}))
    results = {}
    for workload in workloads:
        results[workload] = run(workload, args.seed, args.seconds, bool(args.trace))
        print_table(workload, results[workload])
    if len(results) == 1:
        final = results[workloads[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{w}.{name}": m for w, r in results.items() for name, m in r["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
