"""Planar embedded digraph backed by a clockwise rotation system.

Vertices are integer ids. An undirected *slot* is one embedded curve
between two distinct vertices and carries up to two directed arcs, one per
direction; both arcs share the curve. A *dart* is one end of a slot,
encoded as ``2 * slot_id + end`` where end 0 sits at the slot's first
endpoint and end 1 at its second, so ``d ^ 1`` is the dart at the other
end.

The graph is stored per dart. Two lists indexed by dart id hold each
dart's vertex (``_at``) and its clockwise successor at that vertex
(``_next``); they hold every dart ever made, and a dart that is gone reads
None in both. The dict ``_arc``, keyed by the darts that exist, holds the
arc leaving ``_at[d]`` along d, or None; both darts of a slot come and go
together. ``_entry`` maps each vertex to one dart at it, or None. Each
rotation is a singly linked circular list: taking a dart out of it walks
the rotation once round to find the dart's predecessor.

Faces are the orbits of ``d -> next_cw(reverse_dart(d))``; with clockwise
rotations each face lies to the left of the darts on its walk. For a
connected graph, #vertices - #slots + #faces == 2.

Arcs are pairs ``(base, perturb)`` of ints. An arc's id is the dart at
its tail, ``2 * slot_id + direction``, and is stored nowhere: reweighting
and contraction keep the arc on the same dart. That is what lets reported
paths refer back to input arcs.

``build_graph`` makes a valid graph from a slot list. The construction
methods (``add_vertex``, ``add_slot``) do not check the
input contract, so a graph built with them may break it; ``check()``
validates it, and ``normalize`` checks the same rules on its input (the
contract is written out in the normalize module docstring). ``add_slot``
does check that its endpoints and ``after`` darts exist before it changes
anything.

Contraction (``_merge_tree``) merges a tree of slots into its root with
one walk around the tree, so each dart at a tree vertex is looked at once.
The darts that survive, in the order of that walk, become the root's
rotation, which keeps the embedding planar. On the way, arcs leaving the
tree are reweighted by their tree vertex's delta, arcs entering it below
the root go, and so do slots between two tree vertices, which would become
loops; of the arcs from the root to one neighbour, only the least stays.
Arcs into the root cannot clash: those that survive are the arcs of the
root's own darts, and the graph held at most one per neighbour before the
merge. Nothing checks the tree: contraction.select_trees builds it.
"""

from __future__ import annotations

import warnings
from typing import Iterable, Iterator

from .errors import (
    BadRotationError,
    DisconnectedInputError,
    DuplicateArcError,
    GraphError,
    NegativeWeightError,
    PerturbationCollisionWarning,
    SelfLoopSlotError,
)

Arc = tuple[int, int]  # (base, perturb); its id is its tail dart


def reverse_dart(d: int) -> int:
    """The dart at the other end of d's slot."""
    return d ^ 1


class EmbeddedDigraph:
    """Mutable embedded digraph; see the module docstring for conventions."""

    __slots__ = ("_at", "_next", "_arc", "_entry")

    def __init__(self) -> None:
        self._at: list[int | None] = []  # dart -> its vertex
        self._next: list[int | None] = []  # dart -> clockwise successor
        self._arc: dict[int, Arc | None] = {}  # dart -> arc leaving along it
        self._entry: dict[int, int | None] = {}  # vertex -> any dart at it

    # ------------------------------------------------------------------
    # basic accessors

    @property
    def vertex_count(self) -> int:
        return len(self._entry)

    def vertices(self) -> Iterator[int]:
        return iter(self._entry)

    @property
    def slot_count(self) -> int:
        return len(self._arc) // 2

    def dart_vertex(self, d: int) -> int:
        """The vertex dart d sits at; KeyError unless dart d exists."""
        if d not in self._arc:
            raise KeyError(f"no dart {d!r}")
        return self._at[d]

    def rotation(self, v: int) -> list[int]:
        """Darts at v in clockwise order, starting at an arbitrary dart."""
        first = self._entry[v]
        if first is None:
            return []
        out = [first]
        nxt = self._next
        d = nxt[first]
        while d != first:
            out.append(d)
            d = nxt[d]
        return out

    def arc_into(self, d: int) -> Arc | None:
        """The arc arriving at dart d's vertex along d's slot, if present;
        KeyError unless dart d exists."""
        if d not in self._arc:
            raise KeyError(f"no dart {d!r}")
        return self._arc[d ^ 1]

    def arc_items(self) -> Iterator[tuple[int, int, Arc]]:
        """Yields (tail, head, arc) for every arc, in arc-id order."""
        at, arcs = self._at, self._arc
        for d in sorted(arcs):
            if arcs[d] is not None:
                yield at[d], at[d ^ 1], arcs[d]

    # ------------------------------------------------------------------
    # construction primitives

    def add_vertex(self, v: int) -> None:
        if v in self._entry:
            raise GraphError(f"vertex {v} already present")
        self._entry[v] = None

    def _insert_dart(self, v: int, d: int, after: int | None) -> None:
        """Splice dart d into v's rotation right after `after` (clockwise)."""
        nxt = self._next
        cur = self._entry[v]
        if cur is None:
            self._entry[v] = d
            nxt[d] = d
            return
        if after is None:
            after = cur
        nxt[d] = nxt[after]
        nxt[after] = d

    def _unlink(self, d: int) -> None:
        """Take dart d out of its vertex's rotation and forget its place.

        The rotation is walked once round to find d's predecessor. The
        caller deletes the arcs of d's slot.
        """
        at, nxt = self._at, self._next
        v = at[d]
        n = nxt[d]
        if n == d:
            self._entry[v] = None
        else:
            p = n
            while nxt[p] != d:
                p = nxt[p]
            nxt[p] = n
            if self._entry[v] == d:
                self._entry[v] = n
        at[d] = nxt[d] = None

    def add_slot(
        self,
        u: int,
        v: int,
        arc_uv: Arc | None,
        arc_vu: Arc | None,
        after_u: int | None = None,
        after_v: int | None = None,
    ) -> int:
        """Append a new slot; its darts are spliced in after the given darts.

        With after_X None the dart lands at an arbitrary position of X's
        rotation (fine for fresh or degree<=1 vertices). Raises GraphError,
        and changes nothing, unless both endpoints exist and each given
        after_X is a dart at X.
        """
        for x, after in ((u, after_u), (v, after_v)):
            if x not in self._entry:
                raise GraphError(f"no vertex {x!r}")
            if after is not None and (after not in self._arc or self._at[after] != x):
                raise GraphError(f"dart {after!r} is not at vertex {x!r}")
        d = len(self._at)
        self._at += (u, v)
        self._next += (None, None)
        self._arc[d] = arc_uv
        self._arc[d + 1] = arc_vu
        self._insert_dart(u, d, after_u)
        self._insert_dart(v, d + 1, after_v)
        return d >> 1

    # ------------------------------------------------------------------
    # faces

    def face_walks(self) -> list[list[int]]:
        """All face orbits of next_cw(reverse(d)), each from its least dart.

        Orbits are listed by ascending least dart id, which makes face
        indices deterministic for a given graph. A walk ends early at a
        dart with no successor, which only a broken rotation has.
        """
        nxt = self._next
        seen: set[int] = set()
        walks: list[list[int]] = []
        for d in sorted(self._arc):
            if d in seen:
                continue
            walk = []
            cur = d
            while cur is not None and cur not in seen:
                seen.add(cur)
                walk.append(cur)
                cur = nxt[cur ^ 1]
            walks.append(walk)
        return walks

    def face_count(self) -> int:
        if not self._arc:
            # a lone dartless vertex still bounds the one face of the sphere
            return 1 if self._entry else 0
        return len(self.face_walks())

    # ------------------------------------------------------------------
    # contraction

    def _merge_tree(
        self, vertex: list[int], dart: list[int], dbase: list[int], dpert: list[int]
    ) -> None:
        """Contract a tree into its root vertex[0] with one walk around it.

        dart[i] is, for every other tree vertex vertex[i], the dart at it of
        the slot joining it to its tree parent, and (dbase[i], dpert[i]) its
        delta; these must form a tree of the graph, unchecked. The walk is
        the tour around the tree: clockwise from the root, each dart
        leading down to a child is replaced by the child's darts after its
        own tree dart. On the way, each arc leaving the tree is reweighted
        by its member's delta, each arc entering it anywhere but the root is
        dropped, and each slot joining two tree vertices (tree slots aside,
        which merge) is deleted, as it would become a loop at the root. The
        surviving darts, in tour order, are the root's rotation. Of the arcs
        from the root to one neighbour, only the least (base, perturb)
        stays, the one on the smaller dart if weights are equal, which
        warns. Arcs into the root never clash: the only ones left are those
        of the root's own darts, one per neighbour at most, since an arc
        into a member is dropped.
        """
        at, nxt, arcs, entry = self._at, self._next, self._arc, self._entry
        s = vertex[0]
        members = set(vertex)
        below = {dart[i] ^ 1: i for i in range(1, len(vertex))}  # dart at the parent
        gone: list[int] = []  # darts at tree vertices of slots that went
        inner: list[int] = []  # even darts of slots joining two tree vertices
        tour: list[int] = []
        # the tour dart holding the arc out of s per neighbour so far, and
        # each (dart, neighbour) whose arc out of s met a held one
        best: dict[int, int] = {}
        clashes: list[tuple[int, int]] = []
        first = entry[s]
        if first is not None:
            # walk s's rotation once around; a dart leading down enters the
            # child, whose turn ends back at its own tree dart `stop`
            resume: list[tuple[int, int, int]] = []
            i = b = p = 0  # the vertex walked and its delta
            d = stop = first
            while True:
                if d in below:
                    resume.append((d, stop, i))
                    i = below[d]
                    b = dbase[i]
                    p = dpert[i]
                    stop = dart[i]
                    d = nxt[stop]
                else:
                    head = at[d ^ 1]
                    if head in members:
                        if not d & 1:
                            inner.append(d)
                    elif i and arcs[d] is None:
                        # its one arc enters the tree below the root
                        del arcs[d], arcs[d ^ 1]
                        gone.append(d)
                        self._unlink(d ^ 1)
                    else:
                        out_arc = arcs[d]
                        if i:
                            if b or p:
                                out_arc = (out_arc[0] + b, out_arc[1] + p)
                            at[d] = s
                            arcs[d] = out_arc
                            arcs[d ^ 1] = None
                        tour.append(d)
                        if out_arc is not None:
                            if head in best:
                                clashes.append((d, head))
                            else:
                                best[head] = d
                    d = nxt[d]
                while d == stop and resume:
                    up, stop, i = resume.pop()
                    b = dbase[i]
                    p = dpert[i]
                    d = nxt[up]
                if d == stop:
                    break
        for d in (*dart[1:], *inner):
            del arcs[d], arcs[d ^ 1]
            gone += (d, d ^ 1)
        for v in vertex[1:]:
            del entry[v]
        # of two arcs from s to one neighbour, the greater loses, and a slot
        # left with no arc goes
        for d, head in clashes:
            held = best[head]
            arc = arcs[d]
            held_arc = arcs[held]
            if arc == held_arc:
                warnings.warn(
                    f"equal weight {arc} on the arcs of darts {held} and {d}",
                    PerturbationCollisionWarning,
                    stacklevel=3,
                )
            # equal weights fall through to the smaller dart, the arc's id
            if (arc, d) < (held_arc, held):
                best[head] = d
                d = held
            arcs[d] = None
            if arcs[d ^ 1] is None:
                del arcs[d], arcs[d ^ 1]
                gone.append(d)
                self._unlink(d ^ 1)
        for d in gone:
            at[d] = nxt[d] = None
        if clashes:
            tour = [d for d in tour if d in arcs]
        if not tour:
            entry[s] = None
            return
        for d, n in zip(tour, tour[1:] + tour[:1]):
            nxt[d] = n
        entry[s] = tour[0]

    # ------------------------------------------------------------------
    # copying and validation

    def copy(self, drop_vertices: Iterable[int] = ()) -> "EmbeddedDigraph":
        """Copy the graph, omitting the given vertices and slots touching them.

        Vertex, slot, and dart ids are preserved, as is each surviving
        rotation's relative order.
        """
        g = EmbeddedDigraph()
        g._at = self._at[:]
        g._next = self._next[:]
        g._arc = self._arc.copy()
        g._entry = self._entry.copy()
        g._drop_vertices(drop_vertices)
        return g

    def _drop_vertices(self, vertices: Iterable[int]) -> None:
        """Delete the given vertices and every slot touching them, in place.

        Vertices not in the graph are ignored. Surviving rotations keep
        their relative order.
        """
        at, nxt, arcs, ent = self._at, self._next, self._arc, self._entry
        drop = {v for v in vertices if v in ent}
        rotations = [self.rotation(v) for v in drop]
        for v in drop:
            del ent[v]
        # a dart at a dropped vertex vanishes with its whole rotation; one
        # at a survivor is spliced out of the survivor's rotation
        for rotation in rotations:
            for d in rotation:
                if d not in arcs:  # already removed from its other end
                    continue
                del arcs[d], arcs[d ^ 1]
                if at[d ^ 1] not in drop:
                    self._unlink(d ^ 1)
                at[d] = at[d ^ 1] = nxt[d] = nxt[d ^ 1] = None

    def connected_undirected(self) -> bool:
        """True iff the slots join all vertices; reads no rotation, so it
        answers for any graph, however broken its rotations are."""
        entry = self._entry
        if not entry:
            return True
        at = self._at
        nbrs: dict[int, list[int]] = {v: [] for v in entry}
        for d in self._arc:
            if d & 1:
                continue
            at0 = nbrs.get(at[d])
            at1 = nbrs.get(at[d + 1])
            if at0 is not None and at1 is not None:
                at0.append(at[d + 1])
                at1.append(at[d])
        start = next(iter(entry))
        seen = {start}
        stack = [start]
        while stack:
            for w in nbrs[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == len(entry)

    def check(self) -> None:
        """Validate the input contract of the normalize module docstring.

        Raises DisconnectedInputError if the graph is not connected, else
        GraphError or a subclass of it on the first rule it breaks.
        """
        if not self.connected_undirected():
            raise DisconnectedInputError("underlying undirected graph is not connected")
        self._check_rules(self.face_walks())

    def _check_rules(self, walks: list[list[int]]) -> tuple[set[tuple[int, int]], int]:
        """Check every rule of check() but connectivity, in one pass each
        over the rotations and the slots; walks are face_walks().

        Returns the ordered pairs that carry an arc and the largest base.
        """
        at, nxt, arcs = self._at, self._next, self._arc
        darts_seen: set[int] = set()
        for v, first in self._entry.items():
            if type(v) is not int:
                raise GraphError(f"vertex {v!r} is not an int")
            d = first
            while d is not None:
                if d not in arcs or at[d] != v:
                    raise GraphError(f"dart {d!r} in the rotation of {v} does not sit at it")
                if d in darts_seen:
                    raise GraphError(f"rotation at {v} does not close")
                darts_seen.add(d)
                d = nxt[d]
                if d == first:
                    break
        if len(darts_seen) != len(arcs):
            raise GraphError("orphan darts exist outside all rotations")
        pairs: set[tuple[int, int]] = set()
        max_base = 0
        for d in arcs:
            if d & 1:
                continue
            u = at[d]
            v = at[d + 1]
            if u == v:
                raise SelfLoopSlotError(f"slot {d >> 1} joins {u} to itself")
            if arcs[d] is None and arcs[d + 1] is None:
                raise GraphError(f"slot {d >> 1} has no arcs")
            for tail_dart, pair in ((d, (u, v)), (d + 1, (v, u))):
                arc = arcs[tail_dart]
                if arc is None:
                    continue
                if not (
                    isinstance(arc, tuple) and len(arc) == 2
                    and type(arc[0]) is int and type(arc[1]) is int
                ):
                    raise GraphError(f"arc {pair} is {arc!r}, not an int pair")
                if arc[0] < 0 or arc[1] < 0:
                    raise NegativeWeightError(f"arc {pair} has weight {arc}")
                if pair in pairs:
                    raise DuplicateArcError(f"second arc for ordered pair {pair}")
                pairs.add(pair)
                if arc[0] > max_base:
                    max_base = arc[0]
        # a connected graph with no slots is one vertex in one face
        euler = len(self._entry) - len(arcs) // 2 + (len(walks) if arcs else 1)
        if euler != 2:
            raise GraphError(f"Euler characteristic {euler} != 2")
        return pairs, max_base


def build_graph(
    vertex_count: int,
    slot_list: list[tuple[int, int, int, int, int | None, int | None]],
) -> EmbeddedDigraph:
    """Build a validated embedded digraph.

    Each slot entry is (u, v, pos_u, pos_v, w_uv, w_vu): endpoints, the
    slot's position inside each endpoint's clockwise rotation, and the two
    optional directed base weights (non-negative ints, None for absent).
    Endpoints, positions and weights must be ints; anything else, bools
    included, raises GraphError.
    Positions at each vertex must cover 0..degree-1 exactly once. Each
    arc is the pair (weight, 0); its id is its tail dart,
    2 * slot_index + direction.
    """
    g = EmbeddedDigraph()
    for v in range(vertex_count):
        g.add_vertex(v)
    placed: dict[int, dict[int, int]] = {}  # vertex -> pos -> dart
    pairs: set[tuple[int, int]] = set()
    for sid, (u, v, pos_u, pos_v, w_uv, w_vu) in enumerate(slot_list):
        for x in (u, v):
            if isinstance(x, bool) or not isinstance(x, int) or not 0 <= x < vertex_count:
                raise GraphError(f"slot {sid}: vertex {x!r} out of range")
        if u == v:
            raise SelfLoopSlotError(f"slot {sid} joins {u} to itself")
        if w_uv is None and w_vu is None:
            raise GraphError(f"slot {sid} carries no arcs")
        for d, w, pair in ((2 * sid, w_uv, (u, v)), (2 * sid + 1, w_vu, (v, u))):
            if w is None:
                g._arc[d] = None
                continue
            if isinstance(w, bool) or not isinstance(w, int):
                raise GraphError(f"arc {pair} has weight {w!r}, not an int")
            if w < 0:
                raise NegativeWeightError(f"arc {pair} has weight {w}")
            if pair in pairs:
                raise DuplicateArcError(f"second arc for ordered pair {pair}")
            pairs.add(pair)
            g._arc[d] = (w, 0)
        g._at += (u, v)
        for vertex, pos, end in ((u, pos_u, 0), (v, pos_v, 1)):
            if isinstance(pos, bool) or not isinstance(pos, int):
                raise BadRotationError(f"vertex {vertex}: position {pos!r} is not an int")
            spots = placed.setdefault(vertex, {})
            if pos in spots:
                raise BadRotationError(f"vertex {vertex}: position {pos} used twice")
            spots[pos] = 2 * sid + end
    nxt = g._next = [None] * len(g._at)
    for v, spots in placed.items():
        if sorted(spots) != list(range(len(spots))):
            raise BadRotationError(f"vertex {v}: positions are not 0..{len(spots) - 1}")
        order = [spots[i] for i in range(len(spots))]
        g._entry[v] = order[0]
        for d, n in zip(order, order[1:] + order[:1]):
            nxt[d] = n
    return g
