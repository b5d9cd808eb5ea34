"""A first tour: generate a grid, build the oracle, query it.

Run:  python3 demos/grid_tour.py
"""

from __future__ import annotations

from planar_mssp import UNREACHABLE, brute_distances, build, gen_grid, normalize


def main() -> None:
    # a 6x6 grid with random weights; gen_grid also names the outer face
    g, outer = gen_grid(6, seed=42)
    print(f"grid: {g.vertex_count} vertices, {g.slot_count} slots,"
          f" {g.face_count()} faces (outer is face {outer})")

    # normalization adds one ring vertex per outer-boundary vertex; the
    # rings are the query sources
    norm = normalize(g, outer, seed=42)
    print(f"normalized: {norm.graph.vertex_count} vertices,"
          f" {norm.root_count} ring roots over boundary {norm.face_vertices}")

    oracle = build(norm)
    s = oracle.stats
    print(f"oracle: {s.node_count} recursion nodes, {s.stored_entries} stored"
          f" entries, deepest level {s.max_level}, built in {s.build_seconds:.3f}s")

    # distances from two opposite boundary corners to every vertex
    print("\ndistances from the first and the opposite boundary root:")
    far = oracle.ring_count // 2
    for j in (0, far):
        row = [oracle.distance(j, u) for u in range(g.vertex_count)]
        print(f"  from b_{j} (vertex {oracle.face_vertices[j]}): {row}")

    # the same numbers the slow way, straight Dijkstra per source over
    # (base, perturbation) weights; a base from W_big up is UNREACHABLE.
    # Each reported path, from the spoke r_j -> b_j on, weighs exactly that
    snap = [(tail, head, a[0], a[1]) for tail, head, a in norm.graph.arc_items()]
    ring = set(norm.ring_roots)
    agreements = 0
    for j in (0, far):
        src = norm.ring_roots[j]
        flat = brute_distances(snap, src, ring - {src})
        spoke = next(a for a in norm.arcs.values() if a.tail == src)
        for u in range(g.vertex_count):
            base, perturb = flat[u]
            if base >= norm.w_big:
                assert oracle.distance(j, u) is UNREACHABLE
            else:
                assert oracle.distance(j, u) == base
                arcs = [norm.arcs[aid] for aid in oracle.query_path(j, u)]
                assert sum(a.base for a in arcs) == base
                assert spoke.perturb + sum(a.perturb for a in arcs) == perturb
            agreements += 1
    print(f"\nbrute-force cross-check: {agreements} answers, all equal")


if __name__ == "__main__":
    main()
