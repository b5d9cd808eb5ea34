"""Input normalization for the multi-source distance oracle.

Given an embedded digraph and one of its faces, this module produces an
equivalent instance with three extra guarantees the recursion relies on:

* every distinct vertex b_i on the chosen face walk gains a private ring
  vertex r_i, a pendant vertex whose one arc is the zero-weight spoke
  (r_i, b_i), embedded inside the face; no arc enters a ring vertex;
* the non-ring part becomes strongly connected by adding, for each slot
  carrying only one direction, the reverse arc at a large weight W_big
  (chosen so any path using such an arc is distinguishable from every
  real path);
* every arc receives a distinct pseudo-random perturbation so that
  shortest paths are unique under lexicographic (base, perturb) order.

Ring vertices are enumerated by the first appearance of their face vertex
along the face walk, in the orbit order of ``face_walks`` (face kept on
the walk's left, so the rest of the graph is on its right).

``map_answer`` folds a query result back to original-graph terms: any base
distance reaching W_big means the target is unreachable in the input.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import NamedTuple

from .embedded_graph import EmbeddedDigraph, reverse_dart
from .errors import DisconnectedInputError, FaceNotFoundError, GraphError
from .weights import LexWeight

# path base weights must stay well inside 64-bit range for table storage
_MAX_PATH_BASE = 1 << 62

ARC_ORIGINAL = "arc"
ARC_REVERSE = "reverse"
ARC_SPOKE = "spoke"


class ArcInfo(NamedTuple):
    """Static description of one directed arc of the normalized graph."""

    tail: int
    head: int
    base: int
    perturb: int
    kind: str


class _Unreachable:
    __slots__ = ()

    def __repr__(self) -> str:
        return "UNREACHABLE"


UNREACHABLE = _Unreachable()


def map_answer(d: LexWeight, w_big: int):
    """Fold a normalized-graph distance back to the original graph.

    Returns the base distance, or UNREACHABLE when the distance relies
    on augmentation arcs (base >= w_big).
    """
    if d.base >= w_big:
        return UNREACHABLE
    return d.base


@dataclass
class NormalizedInstance:
    graph: EmbeddedDigraph
    ring_roots: list[int]  # r_0 .. r_{N-1}
    face_vertices: list[int]  # b_i for each r_i
    w_big: int
    seed: int
    n_original: int
    arcs: dict[int, ArcInfo]  # arc id -> static info
    ring_index: dict[int, int] = field(default_factory=dict)  # r_i -> i

    def __post_init__(self) -> None:
        if not self.ring_index:
            self.ring_index = {r: i for i, r in enumerate(self.ring_roots)}

    @property
    def root_count(self) -> int:
        return len(self.ring_roots)


def _resolve_face(walks: list[list[int]], face, graph: EmbeddedDigraph) -> list[int]:
    """Accept a face as an index into face_walks or as an explicit walk."""
    if isinstance(face, bool):
        raise FaceNotFoundError(f"face {face!r} is neither an index nor a walk")
    if isinstance(face, int):
        if not walks:
            if face == 0 and graph.vertex_count == 1:
                return []
            raise FaceNotFoundError(f"face index {face} out of range")
        if not 0 <= face < len(walks):
            raise FaceNotFoundError(f"face index {face} out of range (0..{len(walks) - 1})")
        return walks[face]
    given = list(face)
    if not given:
        if graph.vertex_count == 1 and not walks:
            return []
        raise FaceNotFoundError("empty dart sequence is not a face of this graph")
    for walk in walks:
        if given[0] in walk:
            k = walk.index(given[0])
            if walk[k:] + walk[:k] == given:
                return walk
            break
    raise FaceNotFoundError("dart sequence is not a face walk of this graph")


def normalize(g: EmbeddedDigraph, face, seed: int = 0) -> NormalizedInstance:
    """Build the normalized instance; the input graph is left untouched.

    `face` is an index into g.face_walks() or an explicit dart walk equal
    to one of them. `seed` drives the perturbation generator; equal seeds
    give identical instances.

    Admission: with n input vertices and W_big = n * max_weight + 1, an
    instance is admitted only while 2 * n * W_big < 2**62, else GraphError.
    Every arc base is at most W_big (the added reverse arcs weigh exactly
    W_big), and that bounds every base the oracle stores:

    * distances: a shortest path from a ring vertex is its zero-weight
      spoke plus a simple path over at most n input vertices (ring
      vertices are pendant, so no path passes through one), so at most
      (n - 1) * W_big;
    * record deltas: the in-tree distance from a contracted tree's root
      is the difference of two such distances from the same root, so it
      lies in [0, (n - 1) * W_big];
    * reweighted arcs: contraction adds those deltas to arc bases inside
      the build, where bases are Python ints and do not overflow; what is
      stored of them is distances and deltas again, and arc bases are
      stored as normalized, at most W_big.

    So every stored base, and every sum a query forms (a stored delta
    sum plus a table base is a distance), is below n * W_big < 2**61,
    half of the 2**62 cap and a quarter of the int64 range of the
    oracle file's base columns.
    """
    if g.vertex_count == 0:
        raise GraphError("cannot normalize an empty graph")
    if not g.connected_undirected():
        raise DisconnectedInputError("underlying undirected graph is not connected")
    work = g.copy()
    walk = _resolve_face(work.face_walks(), face, work)
    n_original = work.vertex_count

    if walk:
        b_list: list[int] = []
        seen: set[int] = set()
        for d in walk:
            v = work.dart_vertex(d)
            if v not in seen:
                seen.add(v)
                b_list.append(v)
    else:
        b_list = [next(iter(work.vertices()))]

    max_base = max((arc[0] for _, _, arc in work.arc_items()), default=0)
    w_big = n_original * max_base + 1
    # a simple path has fewer than n arcs besides its spoke, each at most
    # w_big; the rule keeps a 2x margin over that (see the docstring)
    if 2 * n_original * w_big >= _MAX_PATH_BASE:
        raise GraphError("base weights too large for 62-bit path sums")

    # strong connectivity: add the missing direction of single-arc slots,
    # unless some other slot already carries that ordered pair
    present: set[tuple[int, int]] = set()
    for tail, head, _ in work.arc_items():
        present.add((tail, head))
    reverse_ids: set[int] = set()
    for sid in sorted(work.slots):
        slot = work.slots[sid]
        for direction, arc, pair in (
            (0, slot.a01, (slot.v0, slot.v1)),
            (1, slot.a10, (slot.v1, slot.v0)),
        ):
            if arc is None and pair not in present:
                aid = 2 * sid + direction
                work.set_arc(sid, direction, (w_big, 0, aid))
                reverse_ids.add(aid)
                present.add(pair)

    # ring vertices, one per distinct face vertex, id-allocated past the input
    first_ring_id = max(work.vertices()) + 1
    rings = [first_ring_id + i for i in range(len(b_list))]
    for r in rings:
        work.add_vertex(r)

    # spoke insertion corner: at b_i's first appearance the walk arrives on
    # reverse_dart(w_{j-1}) and leaves on w_j, its immediate cw successor;
    # the spoke dart goes between them, i.e. inside the face
    corner: dict[int, int] = {}
    if walk:
        seen = set()
        for pos, d in enumerate(walk):
            v = work.dart_vertex(d)
            if v not in seen:
                seen.add(v)
                corner[v] = reverse_dart(walk[pos - 1])

    spoke_ids: set[int] = set()
    for r, bv in zip(rings, b_list):
        sid = work._next_slot
        aid = 2 * sid
        work.add_slot(r, bv, (0, 0, aid), None, None, corner.get(bv))
        spoke_ids.add(aid)

    # distinct perturbations on all arcs, in deterministic arc order
    rng = random.Random(seed)
    used: set[int] = set()
    arcs: dict[int, ArcInfo] = {}
    for sid in sorted(work.slots):
        slot = work.slots[sid]
        for direction, arc in ((0, slot.a01), (1, slot.a10)):
            if arc is None:
                continue
            tail = slot.endpoint(direction)
            head = slot.endpoint(1 - direction)
            aid = arc[2]
            p = rng.getrandbits(63)
            while p in used:
                p = rng.getrandbits(63)
            used.add(p)
            work.set_arc(sid, direction, (arc[0], p, aid))
            if aid in spoke_ids:
                kind = ARC_SPOKE
            elif aid in reverse_ids:
                kind = ARC_REVERSE
            else:
                kind = ARC_ORIGINAL
            arcs[aid] = ArcInfo(tail, head, arc[0], p, kind)

    work.check()
    return NormalizedInstance(
        graph=work,
        ring_roots=rings,
        face_vertices=b_list,
        w_big=w_big,
        seed=seed,
        n_original=n_original,
        arcs=arcs,
    )
