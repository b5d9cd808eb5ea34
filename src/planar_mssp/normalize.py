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

A distance whose base reaches W_big uses a reverse arc, so its target is
unreachable in the input: the oracle's ``distance`` answers UNREACHABLE.

The normalized graph is the whole instance: ``normalize`` builds no arc
table. ``NormalizedInstance.arcs``, arc id -> ArcInfo, is derived from the
graph on first read (an arc's id is its tail dart), and so are the
oracle's arc columns. An arc's kind follows from its tail and base
(``arc_kind``; the oracle file stores no kinds): a spoke if its tail is
a ring vertex, else a reverse arc if its base equals W_big, else an
original arc. That is what ``normalize`` decides, because ring ids lie
above every input id and only spokes leave ring vertices, and every
original base is at most the input's maximum base, which is below
W_big = n * max_base + 1.

Input contract. ``normalize`` checks these rules on its input graph, once,
before it builds anything; ``EmbeddedDigraph.check`` checks the same rules
on any graph:

* every vertex id is an int (bools excluded);
* rotations and links are consistent, and every slot's two darts sit in
  the rotations of its two endpoints;
* a slot joins two different vertices (else SelfLoopSlotError) and
  carries at least one arc;
* every arc is an (int, int) pair (base, perturb), bools excluded, with
  a non-negative base and perturbation (else NegativeWeightError); its
  id is its tail dart, 2 * slot_id + direction, and is stored nowhere;
* no ordered pair of vertices carries two arcs (else DuplicateArcError);
* the graph is connected and its Euler characteristic is 2.

Errors come in this order: an empty graph raises GraphError; a
disconnected one DisconnectedInputError, whatever else is wrong with it;
a face that is not one of the graph's face walks FaceNotFoundError; any
other broken rule GraphError or a subclass of it. The rings, spokes,
reverse arcs and perturbations keep every rule by construction, so the
normalized graph is not checked again.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

from .embedded_graph import EmbeddedDigraph, reverse_dart
from .errors import DisconnectedInputError, FaceNotFoundError, GraphError

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


def arc_kind(tail: int, base: int, ring, w_big: int) -> str:
    """An arc's kind by the rule in the module docstring; ring holds the ring vertices."""
    return ARC_SPOKE if tail in ring else ARC_REVERSE if base == w_big else ARC_ORIGINAL


class _Unreachable:
    __slots__ = ()

    def __repr__(self) -> str:
        return "UNREACHABLE"


UNREACHABLE = _Unreachable()


@dataclass
class NormalizedInstance:
    graph: EmbeddedDigraph
    ring_roots: list[int]  # r_0 .. r_{N-1}
    face_vertices: list[int]  # b_i for each r_i
    w_big: int
    seed: int
    n_original: int
    ring_index: dict[int, int] = field(init=False)  # r_i -> i

    def __post_init__(self) -> None:
        self.ring_index = {r: i for i, r in enumerate(self.ring_roots)}

    @property
    def root_count(self) -> int:
        return len(self.ring_roots)

    @cached_property
    def arcs(self) -> dict[int, ArcInfo]:
        """Arc id -> ArcInfo in id order, derived from graph on first read."""
        at, arc_at = self.graph._at, self.graph._arc
        ring, w_big = self.ring_index, self.w_big
        return {
            d: ArcInfo(at[d], at[d ^ 1], a[0], a[1], arc_kind(at[d], a[0], ring, w_big))
            for d in sorted(arc_at)
            if (a := arc_at[d]) is not None
        }


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

    The input must meet the contract in the module docstring. Errors come
    in its order: GraphError for an empty graph, then
    DisconnectedInputError, then FaceNotFoundError, then GraphError or a
    subclass of it for any other broken rule and for the admission rule.

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
      stored of them is distances and deltas again, and the oracle file
      stores no arc base.

    So every stored base, and every sum a query forms (a stored delta
    sum plus a table base is a distance), is below n * W_big < 2**61,
    half of the 2**62 cap and a quarter of the int64 range of the
    oracle file's base columns.
    """
    if g.vertex_count == 0:
        raise GraphError("cannot normalize an empty graph")
    if not g.connected_undirected():
        raise DisconnectedInputError("underlying undirected graph is not connected")
    walks = g.face_walks()
    walk = _resolve_face(walks, face, g)
    present, max_base = g._check_rules(walks)
    n_original = g.vertex_count
    w_big = n_original * max_base + 1
    # a simple path has fewer than n arcs besides its spoke, each at most
    # w_big; the rule keeps a 2x margin over that (see the docstring)
    if 2 * n_original * w_big >= _MAX_PATH_BASE:
        raise GraphError("base weights too large for 62-bit path sums")

    # one ring vertex per distinct face vertex b_i, in order of first
    # appearance along the walk, id-allocated past the input. At b_i's
    # first appearance the walk arrives on reverse_dart(w_{j-1}) and leaves
    # on w_j, its immediate cw successor; the spoke dart goes between them,
    # i.e. inside the face
    work = g.copy()
    corner: dict[int, int] = {}
    for pos, d in enumerate(walk):
        v = work.dart_vertex(d)
        if v not in corner:
            corner[v] = reverse_dart(walk[pos - 1])
    b_list = list(corner) if walk else [next(iter(work.vertices()))]
    first_ring_id = max(work.vertices()) + 1
    rings = [first_ring_id + i for i in range(len(b_list))]
    for r in rings:
        work.add_vertex(r)
    # add_slot gives a new slot's first dart the next dart id, len(_at), so
    # the spokes' darts are those from first_spoke on
    first_spoke = len(work._at)
    for r, bv in zip(rings, b_list):
        work.add_slot(r, bv, (0, 0), None, None, corner.get(bv))

    # in dart order: strong connectivity by the missing direction of each
    # single-arc input slot, unless another slot carries that ordered pair
    # (the input has one arc per pair, so no two slots add the same one);
    # and a distinct perturbation on every arc
    rng = random.Random(seed)
    used: set[int] = set()
    at, arc_at = work._at, work._arc
    for d in sorted(arc_at):
        arc = arc_at[d]
        if arc is None:
            if d >= first_spoke or (at[d], at[d ^ 1]) in present:
                continue
            arc = (w_big, 0)
        p = rng.getrandbits(63)
        while p in used:
            p = rng.getrandbits(63)
        used.add(p)
        arc_at[d] = (arc[0], p)

    return NormalizedInstance(
        graph=work,
        ring_roots=rings,
        face_vertices=b_list,
        w_big=w_big,
        seed=seed,
        n_original=n_original,
    )
