"""Independent single-source distances on the normalized 2x2 grid.

The instance is written out by hand: vertices 0..3 in row-major order
(0 1 / 2 3), every grid edge carrying weight 1 in both directions, and
one ring vertex per boundary vertex joined by a zero-weight spoke. The
other ring vertices have no incoming arcs and stay unreachable, exactly
as the shortest-path trees built by the package should see them.

Prints base distances from each ring root, keyed by boundary vertex.
"""

import heapq

GRID_ARCS = [
    (0, 1, 1), (1, 0, 1),
    (0, 2, 1), (2, 0, 1),
    (1, 3, 1), (3, 1, 1),
    (2, 3, 1), (3, 2, 1),
]
BOUNDARY = [0, 1, 3, 2]  # clockwise outer cycle


def dijkstra(arcs, source, n):
    dist = {source: 0}
    heap = [(0, source)]
    out: dict[int, list[tuple[int, int]]] = {}
    for u, v, w in arcs:
        out.setdefault(u, []).append((v, w))
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist.get(u, d):
            continue
        for v, w in out.get(u, ()):
            nd = d + w
            if nd < dist.get(v, nd + 1):
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    return dist


def main() -> None:
    for b in BOUNDARY:
        root = 4 + BOUNDARY.index(b)
        arcs = GRID_ARCS + [(root, b, 0)]
        dist = dijkstra(arcs, root, 8)
        row = [dist.get(u) for u in range(4)]
        print(f"from ring over vertex {b}: {row}")


if __name__ == "__main__":
    main()
