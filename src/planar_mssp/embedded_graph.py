"""Planar embedded digraph backed by a clockwise rotation system.

Vertices are integer ids. An undirected *slot* is one embedded curve
between two distinct vertices and carries up to two directed arcs, one per
direction; both arcs share the curve. A *dart* is one end of a slot,
encoded as ``2 * slot_id + end`` where end 0 sits at the slot's first
endpoint and end 1 at its second. Every vertex stores the cyclic clockwise
order of the darts at it as a doubly linked circular list.

Faces are the orbits of ``d -> next_cw(reverse_dart(d))``; with clockwise
rotations each face lies to the left of the darts on its walk. For a
connected graph, #vertices - #slots + #faces == 2.

Arcs are triples ``(base, perturb, arc_id)``. The arc id is assigned once
(``2 * slot_id + direction``) and survives reweighting and contraction,
which is what lets reported paths refer back to input arcs.

``build_graph`` makes a valid graph from a slot list. The construction
methods (``add_vertex``, ``add_slot``, ``set_arc``) do not check the
input contract, so a graph built with them may break it; ``check()``
validates it, and ``normalize`` checks the same rules on its input (the
contract is written out in the normalize module docstring).

Contraction (``_merge_tree``) merges a tree of slots into its root with
one walk around the tree, so each dart at a tree vertex is looked at once.
The darts that survive, in the order of that walk, become the root's
rotation, which keeps the embedding planar. On the way, arcs leaving the
tree are reweighted by their tree vertex's delta, arcs entering it below
the root go, and so do slots between two tree vertices, which would become
loops; of the arcs between the root and one neighbour in one direction,
only the least stays. contraction.contract_tree checks the tree first.
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

Arc = tuple[int, int, int]  # (base, perturb, arc_id)


def reverse_dart(d: int) -> int:
    """The dart at the other end of d's slot."""
    return d ^ 1


class EdgeSlot:
    """One embedded curve between v0 and v1 with up to two directed arcs."""

    __slots__ = ("v0", "v1", "a01", "a10")

    def __init__(self, v0: int, v1: int, a01: Arc | None, a10: Arc | None):
        self.v0 = v0
        self.v1 = v1
        self.a01 = a01  # arc v0 -> v1
        self.a10 = a10  # arc v1 -> v0

    def endpoint(self, end: int) -> int:
        return self.v1 if end else self.v0

    def __repr__(self) -> str:
        return f"EdgeSlot({self.v0}, {self.v1}, {self.a01}, {self.a10})"


class EmbeddedDigraph:
    """Mutable embedded digraph; see the module docstring for conventions."""

    __slots__ = ("slots", "_next", "_prev", "_entry", "_next_slot")

    def __init__(self) -> None:
        self.slots: dict[int, EdgeSlot] = {}
        self._next: dict[int, int] = {}  # clockwise successor per dart
        self._prev: dict[int, int] = {}
        self._entry: dict[int, int | None] = {}  # vertex -> any dart at it
        self._next_slot = 0

    # ------------------------------------------------------------------
    # basic accessors

    @property
    def vertex_count(self) -> int:
        return len(self._entry)

    def vertices(self) -> Iterator[int]:
        return iter(self._entry)

    @property
    def slot_count(self) -> int:
        return len(self.slots)

    def dart_vertex(self, d: int) -> int:
        return self.slots[d >> 1].endpoint(d & 1)

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
        """The arc arriving at dart d's vertex along d's slot, if present."""
        slot = self.slots[d >> 1]
        return slot.a01 if d & 1 else slot.a10

    def arc_items(self) -> Iterator[tuple[int, int, Arc]]:
        """Yields (tail, head, arc) for every arc, in slot-id order."""
        for sid in sorted(self.slots):
            slot = self.slots[sid]
            if slot.a01 is not None:
                yield slot.v0, slot.v1, slot.a01
            if slot.a10 is not None:
                yield slot.v1, slot.v0, slot.a10

    # ------------------------------------------------------------------
    # construction primitives

    def add_vertex(self, v: int) -> None:
        if v in self._entry:
            raise GraphError(f"vertex {v} already present")
        self._entry[v] = None

    def _insert_dart(self, v: int, d: int, after: int | None) -> None:
        """Splice dart d into v's rotation right after `after` (clockwise)."""
        cur = self._entry[v]
        if cur is None:
            self._entry[v] = d
            self._next[d] = d
            self._prev[d] = d
            return
        if after is None:
            after = cur
        nxt = self._next[after]
        self._next[after] = d
        self._prev[d] = after
        self._next[d] = nxt
        self._prev[nxt] = d

    def _remove_dart(self, d: int, v: int) -> None:
        """Unlink dart d from the rotation of v, the vertex it sits at."""
        nxt = self._next.pop(d)
        prv = self._prev.pop(d)
        if nxt == d:
            self._entry[v] = None
            return
        self._next[prv] = nxt
        self._prev[nxt] = prv
        if self._entry[v] == d:
            self._entry[v] = nxt

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
        rotation (fine for fresh or degree<=1 vertices).
        """
        sid = self._next_slot
        self._next_slot += 1
        self.slots[sid] = EdgeSlot(u, v, arc_uv, arc_vu)
        self._insert_dart(u, 2 * sid, after_u)
        self._insert_dart(v, 2 * sid + 1, after_v)
        return sid

    def set_arc(self, sid: int, direction: int, arc: Arc | None) -> None:
        if direction:
            self.slots[sid].a10 = arc
        else:
            self.slots[sid].a01 = arc

    # ------------------------------------------------------------------
    # faces

    def face_walks(self) -> list[list[int]]:
        """All face orbits of next_cw(reverse(d)), each from its least dart.

        Orbits are listed by ascending least dart id, which makes face
        indices deterministic for a given graph.
        """
        nxt = self._next
        seen: set[int] = set()
        walks: list[list[int]] = []
        for sid in sorted(self.slots):
            for d in (2 * sid, 2 * sid + 1):
                if d in seen:
                    continue
                walk = []
                cur = d
                while cur not in seen:
                    seen.add(cur)
                    walk.append(cur)
                    cur = nxt[cur ^ 1]
                walks.append(walk)
        return walks

    def face_count(self) -> int:
        if not self.slots:
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
        delta; the caller has checked that these form a tree. The walk is
        the tour around the tree: clockwise from the root, each dart
        leading down to a child is replaced by the child's darts after its
        own tree dart. On the way, each arc leaving the tree is reweighted
        by its member's delta, each arc entering it anywhere but the root is
        dropped, and each slot joining two tree vertices (tree slots aside,
        which merge) is deleted, as it would become a loop at the root. The
        surviving darts, in tour order, are the root's rotation. Of the arcs
        between the root and one neighbour in one direction, only the least
        (base, perturb, arc id) stays; equal weights warn.
        """
        nxt, prv, entry, slots = self._next, self._prev, self._entry, self.slots
        s = vertex[0]
        members = set(vertex)
        below = {dart[i] ^ 1: i for i in range(1, len(vertex))}  # dart at the parent
        gone: list[int] = []  # darts at tree vertices of slots that went
        inner: list[int] = []  # slots joining two tree vertices, tree slots aside
        tour: list[int] = []
        # the tour dart holding the arc out of / into s per neighbour so far,
        # and each (dart, neighbour, 0 out / 1 in) that met a held one
        best_out: dict[int, int] = {}
        best_in: dict[int, int] = {}
        clashes: list[tuple[int, int, int]] = []
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
                    slot = slots[d >> 1]
                    head = slot.v0 if d & 1 else slot.v1
                    if head in members:
                        if not d & 1:
                            inner.append(d >> 1)
                    elif i and (slot.a10 if d & 1 else slot.a01) is None:
                        # its one arc enters the tree below the root
                        del slots[d >> 1]
                        gone.append(d)
                        self._remove_dart(d ^ 1, head)
                    else:
                        if d & 1:
                            out_arc = slot.a10
                            in_arc = slot.a01
                        else:
                            out_arc = slot.a01
                            in_arc = slot.a10
                        if i:
                            in_arc = None
                            if b or p:
                                out_arc = (out_arc[0] + b, out_arc[1] + p, out_arc[2])
                            if d & 1:
                                slot.v1 = s
                                slot.a10 = out_arc
                                slot.a01 = None
                            else:
                                slot.v0 = s
                                slot.a01 = out_arc
                                slot.a10 = None
                        tour.append(d)
                        if out_arc is not None:
                            if head in best_out:
                                clashes.append((d, head, 0))
                            else:
                                best_out[head] = d
                        if in_arc is not None:
                            if head in best_in:
                                clashes.append((d, head, 1))
                            else:
                                best_in[head] = d
                    d = nxt[d]
                while d == stop and resume:
                    up, stop, i = resume.pop()
                    b = dbase[i]
                    p = dpert[i]
                    d = nxt[up]
                if d == stop:
                    break
        for d in dart[1:]:
            del slots[d >> 1], nxt[d], nxt[d ^ 1], prv[d], prv[d ^ 1]
        for sid in inner:
            d = 2 * sid
            del slots[sid], nxt[d], nxt[d + 1], prv[d], prv[d + 1]
        for v in vertex[1:]:
            del entry[v]
        # of two arcs between s and one neighbour in one direction, the
        # greater loses, and a slot left with no arc goes
        for d, head, side in clashes:
            best = best_in if side else best_out
            held = best[head]
            slot = slots[d >> 1]
            held_slot = slots[held >> 1]
            arc = slot.a10 if (d & 1) ^ side else slot.a01
            held_arc = held_slot.a10 if (held & 1) ^ side else held_slot.a01
            if arc[0] == held_arc[0] and arc[1] == held_arc[1]:
                warnings.warn(
                    f"equal LexWeight {arc[:2]} on arcs {held_arc[2]} and {arc[2]}",
                    PerturbationCollisionWarning,
                    stacklevel=3,
                )
            # equal weights fall through to the smaller arc id
            if arc < held_arc:
                best[head] = d
                d, slot = held, held_slot
            if (d & 1) ^ side:
                slot.a10 = None
            else:
                slot.a01 = None
            if slot.a01 is None and slot.a10 is None:
                del slots[d >> 1]
                gone.append(d)
                self._remove_dart(d ^ 1, head)
        for d in gone:
            del nxt[d], prv[d]
        if clashes:
            tour = [d for d in tour if d >> 1 in slots]
        if not tour:
            entry[s] = None
            return
        nxt.update(zip(tour, tour[1:] + tour[:1]))
        prv.update(zip(tour, tour[-1:] + tour[:-1]))
        entry[s] = tour[0]

    # ------------------------------------------------------------------
    # copying and validation

    def copy(self, drop_vertices: Iterable[int] = ()) -> "EmbeddedDigraph":
        """Copy the graph, omitting the given vertices and slots touching them.

        Vertex, slot, and dart ids are preserved, as is each surviving
        rotation's relative order.
        """
        g = EmbeddedDigraph()
        g._next_slot = self._next_slot
        g.slots = {sid: EdgeSlot(s.v0, s.v1, s.a01, s.a10) for sid, s in self.slots.items()}
        g._next = dict(self._next)
        g._prev = dict(self._prev)
        g._entry = dict(self._entry)
        g._drop_vertices(drop_vertices)
        return g

    def _drop_vertices(self, vertices: Iterable[int]) -> None:
        """Delete the given vertices and every slot touching them, in place.

        Vertices not in the graph are ignored. Surviving rotations keep
        their relative order.
        """
        nxt, prv, ent, slots = self._next, self._prev, self._entry, self.slots
        drop = {v for v in vertices if v in ent}
        rotations = [self.rotation(v) for v in drop]
        for v in drop:
            del ent[v]
        # a dart at a dropped vertex vanishes with its whole rotation; one
        # at a survivor is spliced out of the survivor's rotation
        for rotation in rotations:
            for d in rotation:
                slot = slots.pop(d >> 1, None)
                if slot is None:  # already removed from its other end
                    continue
                for x, w in ((d & ~1, slot.v0), (d | 1, slot.v1)):
                    n = nxt.pop(x)
                    p = prv.pop(x)
                    if w in drop:
                        continue
                    if n == x:
                        ent[w] = None
                        continue
                    nxt[p] = n
                    prv[n] = p
                    if ent[w] == x:
                        ent[w] = n

    def connected_undirected(self) -> bool:
        """True iff the slots join all vertices; reads no rotation, so it
        answers for any graph, however broken its rotations are."""
        entry = self._entry
        if not entry:
            return True
        nbrs: dict[int, list[int]] = {v: [] for v in entry}
        for slot in self.slots.values():
            at0 = nbrs.get(slot.v0)
            at1 = nbrs.get(slot.v1)
            if at0 is not None and at1 is not None:
                at0.append(slot.v1)
                at1.append(slot.v0)
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
        nxt, prv, slots = self._next, self._prev, self.slots
        darts_seen: dict[int, int] = {}
        for v, entry in self._entry.items():
            if entry is None:
                continue
            d = entry
            for _ in range(2 * len(slots) + 1):
                if d in darts_seen:
                    raise GraphError(f"dart {d} reached from two vertices")
                darts_seen[d] = v
                n = nxt.get(d)
                if n is None or prv.get(n) != d:
                    raise GraphError(f"broken links at dart {d}")
                d = n
                if d == entry:
                    break
            else:
                raise GraphError(f"rotation at {v} does not close")
        pairs: set[tuple[int, int]] = set()
        max_base = 0
        for sid, slot in slots.items():
            v0 = slot.v0
            v1 = slot.v1
            if darts_seen.get(2 * sid) != v0 or darts_seen.get(2 * sid + 1) != v1:
                raise GraphError(f"darts of slot {sid} are not at its ends {v0} and {v1}")
            if v0 == v1:
                raise SelfLoopSlotError(f"slot {sid} joins {v0} to itself")
            if slot.a01 is None and slot.a10 is None:
                raise GraphError(f"slot {sid} has no arcs")
            for direction, arc, pair in ((0, slot.a01, (v0, v1)), (1, slot.a10, (v1, v0))):
                if arc is None:
                    continue
                if not (
                    isinstance(arc, tuple) and len(arc) == 3
                    and type(arc[0]) is int and type(arc[1]) is int and type(arc[2]) is int
                ):
                    raise GraphError(f"arc {pair} is {arc!r}, not an int triple")
                if arc[0] < 0 or arc[1] < 0:
                    raise NegativeWeightError(f"arc {pair} has weight {arc[:2]}")
                if arc[2] != 2 * sid + direction:
                    raise GraphError(f"arc {pair} has id {arc[2]}, not {2 * sid + direction}")
                if pair in pairs:
                    raise DuplicateArcError(f"second arc for ordered pair {pair}")
                pairs.add(pair)
                if arc[0] > max_base:
                    max_base = arc[0]
        if len(darts_seen) != 2 * len(slots):
            raise GraphError("orphan darts exist outside all rotations")
        # a connected graph with no slots is one vertex in one face
        euler = len(self._entry) - len(slots) + (len(walks) if slots else 1)
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
    Positions at each vertex must cover 0..degree-1 exactly once. Arc ids
    are assigned as 2*slot_index + direction.
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
        arcs: list[Arc | None] = []
        for direction, w, pair in ((0, w_uv, (u, v)), (1, w_vu, (v, u))):
            if w is None:
                arcs.append(None)
                continue
            if isinstance(w, bool) or not isinstance(w, int):
                raise GraphError(f"arc {pair} has weight {w!r}, not an int")
            if w < 0:
                raise NegativeWeightError(f"arc {pair} has weight {w}")
            if pair in pairs:
                raise DuplicateArcError(f"second arc for ordered pair {pair}")
            pairs.add(pair)
            arcs.append((w, 0, 2 * sid + direction))
        g.slots[sid] = EdgeSlot(u, v, arcs[0], arcs[1])
        g._next_slot = sid + 1
        for vertex, pos, end in ((u, pos_u, 0), (v, pos_v, 1)):
            if isinstance(pos, bool) or not isinstance(pos, int):
                raise BadRotationError(f"vertex {vertex}: position {pos!r} is not an int")
            spots = placed.setdefault(vertex, {})
            if pos in spots:
                raise BadRotationError(f"vertex {vertex}: position {pos} used twice")
            spots[pos] = 2 * sid + end
    for v, spots in placed.items():
        if sorted(spots) != list(range(len(spots))):
            raise BadRotationError(f"vertex {v}: positions are not 0..{len(spots) - 1}")
        order = [spots[i] for i in range(len(spots))]
        g._entry[v] = order[0]
        n = len(order)
        for i, d in enumerate(order):
            g._next[d] = order[(i + 1) % n]
            g._prev[d] = order[(i - 1) % n]
    return g
