"""Instance generators, a brute-force oracle, and the end-to-end verifier.

brute_distances is deliberately primitive: it reads a flat arc list and
runs textbook Dijkstra over (base, perturbation) tuples, sharing no graph
traversal code with the oracle it is used to check.
"""

from __future__ import annotations

import heapq
import math
import random
import time
from dataclasses import dataclass, field

from .embedded_graph import EmbeddedDigraph, build_graph
from .errors import UnreachableError
from .mssp import MsspOracle, build
from .normalize import ARC_ORIGINAL, ARC_SPOKE, UNREACHABLE, ArcInfo, normalize

ArcTuple = tuple[int, int, int, int]  # (tail, head, base, perturb)


def brute_distances(
    arcs: list[ArcTuple], source: int, excluded: frozenset[int] | set[int] = frozenset()
) -> dict[int, tuple[int, int]]:
    """Plain Dijkstra over an arc list; returns vertex -> (base, perturb).

    Arcs whose head is excluded are never relaxed. Only reached vertices
    appear in the result.
    """
    adj: dict[int, list[tuple[int, int, int]]] = {}
    for tail, head, base, perturb in arcs:
        adj.setdefault(tail, []).append((head, base, perturb))
    settled: dict[int, tuple[int, int]] = {}
    heap: list[tuple[int, int, int]] = [(0, 0, source)]
    while heap:
        base, pert, v = heapq.heappop(heap)
        if v in settled:
            continue
        settled[v] = (base, pert)
        for head, wb, wp in adj.get(v, ()):
            if head in settled or head in excluded:
                continue
            heapq.heappush(heap, (base + wb, pert + wp, head))
    return settled


# ----------------------------------------------------------------------
# generators


def _grid_slot_weights(k: int, max_weight: int, rng: random.Random) -> list[list[int]]:
    """Grid slots as [u, v, w_uv, w_vu], weights drawn in canonical order.

    Canonical order: row by row, each cell emits its rightward slot then
    its downward slot. The deletion pass of gen_random_planar walks the
    same order.
    """
    out: list[list[int]] = []
    for r in range(k):
        for c in range(k):
            v = r * k + c
            if c + 1 < k:
                out.append([v, v + 1, rng.randint(0, max_weight), rng.randint(0, max_weight)])
            if r + 1 < k:
                out.append([v, v + k, rng.randint(0, max_weight), rng.randint(0, max_weight)])
    return out


def _connected_after(n: int, raw: list[list[int]], alive: set[int]) -> bool:
    adj: dict[int, list[int]] = {v: [] for v in range(n)}
    for si in alive:
        u, v = raw[si][0], raw[si][1]
        adj[u].append(v)
        adj[v].append(u)
    seen = {0}
    stack = [0]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == n


def _assemble_grid(k: int, raw: list[list[int]], alive: set[int]) -> tuple[EmbeddedDigraph, int]:
    """Build the embedded graph for grid slots and find its outer face.

    Rotations come from plane coordinates (column, -row): neighbours are
    sorted by decreasing angle, which is clockwise order. The outer face
    is the walk with the most negative shoelace area — its boundary is
    the one walked clockwise when every face lies left of its own walk.
    """
    n = k * k
    order = sorted(alive)
    incident: dict[int, list[tuple[int, int]]] = {v: [] for v in range(n)}
    for si, ri in enumerate(order):
        u, v = raw[ri][0], raw[ri][1]
        incident[u].append((si, 0))
        incident[v].append((si, 1))
    coords = {r * k + c: (float(c), float(-r)) for r in range(k) for c in range(k)}
    positions: dict[tuple[int, int], int] = {}
    for v, inc in incident.items():
        vx, vy = coords[v]

        def angle(item: tuple[int, int]) -> float:
            si, end = item
            other = raw[order[si]][1 - end]
            ox, oy = coords[other]
            return -math.atan2(oy - vy, ox - vx)

        inc.sort(key=angle)
        for pos, item in enumerate(inc):
            positions[item] = pos
    slot_list = []
    for si, ri in enumerate(order):
        u, v, wuv, wvu = raw[ri]
        slot_list.append((u, v, positions[(si, 0)], positions[(si, 1)], wuv, wvu))
    g = build_graph(n, slot_list)
    if not g.slot_count:
        return g, 0
    best_face = 0
    best_area = math.inf
    for fi, walk in enumerate(g.face_walks()):
        area = 0.0
        for d in walk:
            x1, y1 = coords[g.dart_vertex(d)]
            x2, y2 = coords[g.dart_vertex(d ^ 1)]
            area += x1 * y2 - x2 * y1
        if area < best_area:
            best_area = area
            best_face = fi
    return g, best_face


def gen_grid(k: int, max_weight: int = 100, seed: int = 0) -> tuple[EmbeddedDigraph, int]:
    """A k-by-k grid with independent uniform weights per direction:
    gen_random_planar with nothing deleted.

    Returns (graph, outer face index).
    """
    return gen_random_planar(k, max_weight, seed)


def gen_random_planar(
    k: int, max_weight: int = 100, seed: int = 0, delete_prob: float = 0.0
) -> tuple[EmbeddedDigraph, int]:
    """A connected random subgraph of the k-by-k grid.

    Each slot is deleted with probability delete_prob, in canonical slot
    order, except when the deletion would disconnect the graph. Raises
    ValueError for k < 1, max_weight < 0 or delete_prob outside [0, 1].
    """
    if not 0.0 <= delete_prob <= 1.0:
        raise ValueError(f"delete probability must be in [0, 1], got {delete_prob}")
    if k < 1:
        raise ValueError(f"grid side must be positive, got {k}")
    if max_weight < 0:
        raise ValueError(f"max weight must be non-negative, got {max_weight}")
    rng = random.Random(seed)
    raw = _grid_slot_weights(k, max_weight, rng)
    alive = set(range(len(raw)))
    for si in range(len(raw)):
        if rng.random() < delete_prob:
            alive.discard(si)
            if not _connected_after(k * k, raw, alive):
                alive.add(si)
    return _assemble_grid(k, raw, alive)


# ----------------------------------------------------------------------
# verification


@dataclass
class VerificationReport:
    """Everything verify() measured, with a single pass/fail verdict."""

    vertex_count: int
    slot_count: int
    ring_count: int
    seed: int
    exhaustive: bool
    pairs_checked: int = 0
    mismatch_count: int = 0
    mismatches: list[dict] = field(default_factory=list)  # first few only
    path_failure_count: int = 0
    path_failures: list[dict] = field(default_factory=list)  # first few only
    perturbs_distinct: bool = True
    tree_arc_max: int = 0
    tree_arc_bound: int = 6
    max_depth: int = 0
    depth_bound: int = 0
    size_factor_max: float = 0.0
    per_level: list[dict] = field(default_factory=list)
    build_seconds: float = 0.0
    brute_seconds: float = 0.0

    @property
    def passed(self) -> bool:
        return (
            self.mismatch_count == 0
            and self.path_failure_count == 0
            and self.perturbs_distinct
            and self.tree_arc_max <= self.tree_arc_bound
            and self.max_depth <= self.depth_bound
        )

    def to_json(self) -> dict:
        out = {f: getattr(self, f) for f in self.__dataclass_fields__}
        out["passed"] = self.passed
        return out

    def format_text(self) -> str:
        lines = [
            "verification report",
            f"  graph: {self.vertex_count} vertices, {self.slot_count} slots;"
            f" {self.ring_count} ring roots; seed {self.seed}",
            f"  distance pairs: {self.pairs_checked}"
            f" ({'exhaustive' if self.exhaustive else 'sampled'});"
            f" mismatches: {self.mismatch_count}",
            f"  path failures: {self.path_failure_count}",
            f"  perturbations distinct: {'yes' if self.perturbs_distinct else 'NO'}",
            f"  query depth: max {self.max_depth} (bound {self.depth_bound})",
            f"  per-arc trees per level: max {self.tree_arc_max}"
            f" (bound {self.tree_arc_bound})",
            f"  per-level tree size factor: max {self.size_factor_max:.3f}",
            f"  build {self.build_seconds:.2f}s, brute force {self.brute_seconds:.2f}s",
        ]
        for entry in self.per_level:
            lines.append(
                f"    level {entry['level']}: {entry['nodes']} nodes,"
                f" {entry['vertices']} vertices, {entry['tree_vertices']} tree"
                f" vertices (factor {entry['factor']:.3f}),"
                f" {entry['contracted_vertices']} vertices contracted"
            )
        for m in self.mismatches:
            lines.append(f"    mismatch {m}")
        for p in self.path_failures:
            lines.append(f"    path failure {p}")
        lines.append(f"  result: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines)


def _check_path(
    oracle: MsspOracle,
    arcs: dict[int, ArcInfo],
    j: int,
    u: int,
    expected: tuple[int, int] | None,
    spoke_perturb: int,
) -> dict | None:
    """Validate one reported path against the brute-force distance.

    A pair that brute force reaches by no real path (expected None or a
    base from w_big up) must raise UnreachableError. The path's arcs are
    read from arcs, the normalized graph's, not from the oracle's own
    table, so a damaged stored arc cannot vouch for it.
    """
    if expected is None or expected[0] >= oracle.w_big:
        try:
            oracle.query_path(j, u)
        except UnreachableError:
            return None
        return {"j": j, "u": u, "issue": "expected UnreachableError"}
    try:
        path = oracle.query_path(j, u)
    except UnreachableError:
        return {"j": j, "u": u, "issue": "unexpected UnreachableError"}
    cur = oracle.face_vertices[j]
    seen = {cur}
    tb = 0
    tp = 0
    for aid in path:
        a = arcs.get(aid)
        if a is None:
            return {"j": j, "u": u, "issue": f"unknown arc id {aid}"}
        if a.kind != ARC_ORIGINAL:
            return {"j": j, "u": u, "issue": f"arc {aid} has kind {a.kind}"}
        if a.tail != cur:
            return {"j": j, "u": u, "issue": f"arc {aid} breaks the walk at {cur}"}
        cur = a.head
        if cur in seen:
            return {"j": j, "u": u, "issue": f"vertex {cur} repeated"}
        seen.add(cur)
        tb += a.base
        tp += a.perturb
    if cur != u:
        return {"j": j, "u": u, "issue": f"path ends at {cur}"}
    if tb != expected[0] or tp != expected[1] - spoke_perturb:
        return {
            "j": j,
            "u": u,
            "issue": f"path weight ({tb}, {tp}) does not match"
            f" ({expected[0]}, {expected[1] - spoke_perturb})",
        }
    return None


def verify(
    graph: EmbeddedDigraph,
    face,
    seed: int = 0,
    *,
    force_exhaustive: bool = False,
    sample_pairs: int = 20000,
    instrument: bool | None = None,
) -> VerificationReport:
    """Build an oracle for (graph, face, seed) and check it end to end.

    Answers are compared against brute-force Dijkstra for every (root,
    vertex) pair when ring_count * vertices <= 1e6 (or always, with
    force_exhaustive), else for sample_pairs random pairs. On every pair,
    distance() must give the base, or UNREACHABLE from w_big up, and
    query_path must give a simple walk of original arcs whose full (base,
    perturbation) weight over norm.arcs, r_j's spoke included, is the
    brute-force one, or raise UnreachableError if the pair is unreachable.
    The report keeps the first 50 failures of each kind and counts them
    all. instrument defaults to on for graphs up to 200 vertices.
    """
    norm = normalize(graph, face, seed)
    if instrument is None:
        instrument = norm.graph.vertex_count <= 200
    t0 = time.perf_counter()
    oracle = build(norm, instrument=instrument, collect_edge_stats=True)
    build_seconds = time.perf_counter() - t0

    ring_set = set(norm.ring_roots)
    vertices = sorted(set(norm.graph.vertices()) - ring_set)
    n_rings = norm.root_count
    total = n_rings * len(vertices)
    exhaustive = force_exhaustive or total <= 1_000_000

    report = VerificationReport(
        vertex_count=graph.vertex_count,
        slot_count=graph.slot_count,
        ring_count=n_rings,
        seed=seed,
        exhaustive=exhaustive,
        build_seconds=build_seconds,
    )

    # independent arc snapshot
    snap: list[ArcTuple] = [
        (tail, head, arc[0], arc[1]) for tail, head, arc in norm.graph.arc_items()
    ]
    spoke_perturbs = {
        norm.ring_index[a.tail]: a.perturb
        for a in norm.arcs.values()
        if a.kind == ARC_SPOKE
    }

    perturbs = [a.perturb for a in norm.arcs.values()]
    report.perturbs_distinct = len(perturbs) == len(set(perturbs))

    def brute_for(j: int) -> dict[int, tuple[int, int]]:
        src = norm.ring_roots[j]
        return brute_distances(snap, src, ring_set - {src})

    rng = random.Random(f"verify:{seed}")
    if exhaustive:
        pair_groups: list[tuple[int, list[int]]] = [(j, vertices) for j in range(n_rings)]
    else:
        wanted: dict[int, list[int]] = {}
        for _ in range(min(sample_pairs, total)):
            j = rng.randrange(n_rings)
            wanted.setdefault(j, []).append(vertices[rng.randrange(len(vertices))])
        pair_groups = sorted(wanted.items())

    t0 = time.perf_counter()
    brutes = {j: brute_for(j) for j, _ in pair_groups}
    report.brute_seconds = time.perf_counter() - t0

    w_big = norm.w_big
    arcs = norm.arcs
    for j, us in pair_groups:
        bd = brutes[j]
        for u in us:
            expected = bd.get(u)
            got = oracle.distance(j, u)
            report.pairs_checked += 1
            if expected is None or got != (UNREACHABLE if expected[0] >= w_big else expected[0]):
                report.mismatch_count += 1
                if len(report.mismatches) < 50:
                    report.mismatches.append(
                        {
                            "j": j,
                            "u": u,
                            "expected": list(expected) if expected else None,
                            "distance": repr(got),
                        }
                    )
            failure = _check_path(oracle, arcs, j, u, expected, spoke_perturbs[j])
            if failure is not None:
                report.path_failure_count += 1
                if len(report.path_failures) < 50:
                    report.path_failures.append(failure)

    report.max_depth = max(len(oracle.descent_intervals(j)) for j in range(n_rings))
    report.depth_bound = (math.ceil(math.log2(n_rings)) + 1) if n_rings > 1 else 1

    n_norm = norm.graph.vertex_count
    for entry in oracle.stats.per_level:
        factor = entry["tree_vertices"] / n_norm
        row = dict(entry)
        row["factor"] = factor
        report.per_level.append(row)
        report.size_factor_max = max(report.size_factor_max, factor)
        report.tree_arc_max = max(report.tree_arc_max, entry.get("tree_arc_max", 0))
    return report
