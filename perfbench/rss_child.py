"""Peak-RSS child of the benchmark; run.py starts it, one at a time.

    python3 perfbench/rss_child.py launch build <workload> <seed> <full|tiny> <oracle path>
    python3 perfbench/rss_child.py launch load  <workload> <seed> <full|tiny> <oracle path>

``build`` reads the workload's graph, normalizes, builds and saves; it
reads its own peak RSS after the build and again after the save. ``load``
loads the oracle file and asks it the start of the workload's query plan,
then reads its peak RSS. Both also time their stages as run.py does, which
gives one more repetition from a fresh process. The last line of output is
a JSON object: peak RSS in MB, times in nominal seconds.

On Linux a process's ``ru_maxrss`` starts from the resident size of the
process that started it, because the memory image it replaced at exec is
counted too. A child of the benchmark, which holds oracles of hundreds of
MB, would report at least that. ``launch`` therefore only starts the
measuring process and waits for it: the launcher is a fresh interpreter,
smaller than any build, so the measuring child reports its own peak.
"""

from __future__ import annotations

import json
import resource
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from planar_mssp import UnreachableError, build, load, normalize  # noqa: E402

from inputs import load_input, make_plan  # noqa: E402
from reference import Reference  # noqa: E402

TIMEOUT_S = 160  # below run.py's timeout for the launcher, so both end


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv: list[str]) -> int:
    if argv[0] == "launch":
        proc = subprocess.run([sys.executable, __file__, *argv[1:]], check=True,
                              stdout=subprocess.PIPE, text=True, timeout=TIMEOUT_S)
        print(proc.stdout.strip().splitlines()[-1])
        return 0
    mode, workload, seed, scale, path = argv
    seed_i = int(seed)
    tiny = scale == "tiny"
    ref = Reference()
    if mode == "build":
        graph, face = load_input(workload, tiny)
        oracle, setup_s = ref.measure(lambda: build(normalize(graph, face, seed_i)))
        after_build = peak_rss_mb()
        _, save_s = ref.measure(oracle.save, path)
        print(json.dumps({"build_rss_mb": after_build, "save_rss_mb": peak_rss_mb(),
                          "setup_s": setup_s, "save_s": save_s}))
        return 0
    if mode == "load":
        oracle, load_s = ref.measure(load, path)
        plan = make_plan(workload, seed_i, tiny, oracle.ring_count, sorted(oracle.query_vertices))
        for j, u in plan.dist_pairs[:1000]:
            oracle.distance(j, u)
        for j, u in plan.path_pairs[:100]:
            try:
                oracle.query_path(j, u)
            except UnreachableError:
                pass
        print(json.dumps({"load_rss_mb": peak_rss_mb(), "load_s": load_s}))
        return 0
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
