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
"""

from __future__ import annotations

import warnings
from typing import Iterable, Iterator

from .errors import (
    BadRotationError,
    DartNotAtVertexError,
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

    def delete_arc(self, sid: int, direction: int) -> None:
        """Remove one directed arc; a slot with no arcs left is deleted."""
        slot = self.slots[sid]
        if direction:
            slot.a10 = None
        else:
            slot.a01 = None
        if slot.a01 is None and slot.a10 is None:
            self.delete_slot(sid)

    def delete_slot(self, sid: int) -> None:
        slot = self.slots.pop(sid)
        self._remove_dart(2 * sid, slot.v0)
        self._remove_dart(2 * sid + 1, slot.v1)

    # ------------------------------------------------------------------
    # faces and rotation queries

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

    def cw_order(self, s: int, d_start: int, d_a: int, d_b: int) -> bool:
        """True iff walking clockwise from d_start hits d_a before d_b.

        All three darts must be distinct and sit at s.
        """
        for d in (d_start, d_a, d_b):
            if d >> 1 not in self.slots or self.dart_vertex(d) != s:
                raise DartNotAtVertexError(f"dart {d} is not at vertex {s}")
        if len({d_start, d_a, d_b}) != 3:
            raise GraphError("cw_order requires three distinct darts")
        nxt = self._next
        cur = nxt[d_start]
        while True:
            if cur == d_a:
                return True
            if cur == d_b:
                return False
            if cur == d_start:  # pragma: no cover - guarded by the checks above
                raise GraphError("cw_order darts not on one rotation")
            cur = nxt[cur]

    # ------------------------------------------------------------------
    # contraction

    def _merge_tree(self, s: int, tree_darts: list[int], inner_sids: Iterable[int]) -> None:
        """Merge a tree of slots into its root s, splicing rotations in place.

        tree_darts holds, for every other tree vertex, the dart at it of
        the slot joining it to its tree parent. inner_sids are the other
        slots joining two tree vertices; they would become self-loops and
        are deleted instead. The merged rotation is the tour around the
        tree: walking clockwise, each dart leading down to a child is
        replaced by the child's darts after its own tree dart. No dedup.
        """
        nxt, prv, entry, slots = self._next, self._prev, self._entry, self.slots
        below = {d ^ 1: d for d in tree_darts}  # dart at the parent -> at the child
        inner = set(inner_sids)
        tour: list[int] = []
        first = entry[s]
        if first is not None:
            # walk s's rotation once around; a dart leading down enters the
            # child, whose turn ends back at its own tree dart `stop`
            resume: list[tuple[int, int]] = []
            d = stop = first
            while True:
                down = below.get(d)
                if down is None:
                    if d >> 1 not in inner:
                        tour.append(d)
                    d = nxt[d]
                else:
                    resume.append((d, stop))
                    d = nxt[down]
                    stop = down
                while d == stop and resume:
                    up, stop = resume.pop()
                    d = nxt[up]
                if d == stop:
                    break
        for d in tree_darts:
            slot = slots.pop(d >> 1)
            del entry[slot.v1 if d & 1 else slot.v0]
            del nxt[d], nxt[d ^ 1], prv[d], prv[d ^ 1]
        for sid in inner:
            del slots[sid]
            d = 2 * sid
            del nxt[d], nxt[d + 1], prv[d], prv[d + 1]
        if not tour:
            entry[s] = None
            return
        nxt.update(zip(tour, tour[1:] + tour[:1]))
        prv.update(zip(tour, tour[-1:] + tour[:-1]))
        entry[s] = tour[0]
        for d in tour:
            if d & 1:
                slots[d >> 1].v1 = s
            else:
                slots[d >> 1].v0 = s

    def _dedup_at(self, s: int) -> None:
        """Keep one arc per ordered pair at s; _merge_tree left no loop there."""
        first = self._entry[s]
        if first is None:
            return
        slots = self.slots
        nxt = self._next
        # best[(outgoing?, neighbor)] = (arc, sid, direction)
        best: dict[tuple[bool, int], tuple[Arc, int, int]] = {}
        losers: list[tuple[int, int]] = []
        d = first
        while True:
            sid = d >> 1
            slot = slots[sid]
            out0 = slot.v0 == s
            other = slot.v1 if out0 else slot.v0
            for direction, arc, key in (
                (0, slot.a01, (out0, other)),
                (1, slot.a10, (not out0, other)),
            ):
                if arc is None:
                    continue
                held = best.get(key)
                if held is None:
                    best[key] = (arc, sid, direction)
                    continue
                held_arc = held[0]
                if arc[0] == held_arc[0] and arc[1] == held_arc[1]:
                    warnings.warn(
                        f"equal LexWeight {arc[:2]} on arcs {held_arc[2]} and {arc[2]}",
                        PerturbationCollisionWarning,
                        stacklevel=3,
                    )
                # equal weights fall through to the smaller arc id
                if arc < held_arc:
                    best[key] = (arc, sid, direction)
                    losers.append((held[1], held[2]))
                else:
                    losers.append((sid, direction))
            d = nxt[d]
            if d == first:
                break
        for sid, direction in losers:
            self.delete_arc(sid, direction)

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
        if not self._entry:
            return True
        start = next(iter(self._entry))
        seen = {start}
        stack = [start]
        while stack:
            v = stack.pop()
            for d in self.rotation(v):
                w = self.dart_vertex(d ^ 1)
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == len(self._entry)

    def check(self) -> None:
        """Validate structural invariants; raises GraphError on violation.

        Checks rotation/link consistency, slot-dart agreement, per-ordered-
        pair arc uniqueness, non-negative weights, and — when
        the graph is connected — Euler's formula.
        """
        darts_seen: dict[int, int] = {}
        for v, entry in self._entry.items():
            if entry is None:
                continue
            d = entry
            for _ in range(2 * len(self.slots) + 1):
                if d in darts_seen:
                    raise GraphError(f"dart {d} reached from two vertices")
                darts_seen[d] = v
                if self._prev[self._next[d]] != d:
                    raise GraphError(f"broken links at dart {d}")
                d = self._next[d]
                if d == entry:
                    break
            else:
                raise GraphError(f"rotation at {v} does not close")
        pairs: set[tuple[int, int]] = set()
        for sid, slot in self.slots.items():
            for end, vtx in ((0, slot.v0), (1, slot.v1)):
                d = 2 * sid + end
                if darts_seen.get(d) != vtx:
                    raise GraphError(f"dart {d} not in rotation of {vtx}")
            if slot.a01 is None and slot.a10 is None:
                raise GraphError(f"slot {sid} has no arcs")
            for direction, arc in ((0, slot.a01), (1, slot.a10)):
                if arc is None:
                    continue
                if arc[0] < 0 or arc[1] < 0:
                    raise GraphError(f"negative weight component on arc {arc}")
                pair = (slot.endpoint(direction), slot.endpoint(1 - direction))
                if pair in pairs:
                    raise GraphError(f"two arcs for ordered pair {pair}")
                pairs.add(pair)
        if len(darts_seen) != 2 * len(self.slots):
            raise GraphError("orphan darts exist outside all rotations")
        if self._entry and self.connected_undirected():
            euler = self.vertex_count - self.slot_count + self.face_count()
            if euler != 2:
                raise GraphError(f"Euler characteristic {euler} != 2")


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
