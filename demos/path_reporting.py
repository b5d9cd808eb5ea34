"""Shortest paths as arc id sequences, and what a query pays for them.

Run:  python3 demos/path_reporting.py
"""

from __future__ import annotations

import math
import random

from planar_mssp import build, gen_random_planar, normalize


def main() -> None:
    g, outer = gen_random_planar(8, seed=13, delete_prob=0.25)
    norm = normalize(g, outer, seed=13)
    oracle = build(norm)
    n = oracle.ring_count
    print(f"random planar instance: {g.vertex_count} vertices,"
          f" {g.slot_count} slots, {n} ring roots")

    print("\na few shortest paths from boundary roots:")
    rng = random.Random(2)
    verts = sorted(oracle.query_vertices)
    for _ in range(5):
        j = rng.randrange(n)
        u = verts[rng.randrange(len(verts))]
        path = oracle.query_path(j, u)
        hops = []
        for aid in path:
            a = norm.arcs[aid]
            hops.append(f"{a.tail}-({a.base})->{a.head}")
        total = sum(norm.arcs[aid].base for aid in path)
        print(f"  b_{j} (vertex {oracle.face_vertices[j]}) to {u}:"
              f" dist {oracle.distance(j, u)}")
        print(f"    arcs {path}")
        print(f"    walk {' '.join(hops) if hops else '(already there)'}"
              f" | weight sum {total}")

    # cost accounting: a descent probes one record table per level below
    # the top at most, and a path walk then reads one node per reported arc
    bound = math.ceil(math.log2(n))
    worst = 0
    for _ in range(2000):
        j = rng.randrange(n)
        u = verts[rng.randrange(len(verts))]
        worst = max(worst, oracle.explain(j, u).probes)
    print(f"\nover 2000 random queries: at most {worst} record tables probed"
          f" per descent (bound ceil(log2 N) = {bound})")


if __name__ == "__main__":
    main()
