"""The multi-source shortest path oracle.

Build recursion over root intervals [i1, i2]: take shortest path trees
from the interval's roots, then for each half restrict the graph to the
half's own ring vertices, contract every tree selected by the clockwise
rule, record where each contracted vertex went, and recurse. Which nodes
there are, which trees each has and which tables each stores follow from
the ring count alone: _schedule lists them and states the rules, and
build, the descent plans and trace() read it, so nothing of it is stored.
Contraction keeps every distance from the child interval's roots, so a
child inherits its two endpoint trees from its parent (sssp.inherit_tree).
A child's record is keyed by (its parent's midpoint, its side); the side
distinguishes the two children, which may contract different trees
through the same vertex. Inside the oracle a key is the int
2 * midpoint + side.

A distance query walks root-to-leaf through the intervals containing j,
rerouting u through the records (u becomes its super-vertex, the in-tree
delta accumulates) down to the node that stores j's table, its only
table, and reads it. The walk depends on j alone, so each root's descent
is planned once, when the oracle is built or loaded: the record tables
along it in order, and j's table. A query follows its root's plan
(MsspOracle._descend), and explain() reports the same descent. A path
query additionally replays the walk's record hits and the terminal tree
walk, expanding every arc's tail chain — the precomputed list of
(record, vertex) hops between the arc's tail at contraction time and its
original tail — deepest hop first, which yields original arc ids in path
order with O(1) record probes per reported arc. The oracle stores bases
only: a distance's perturbation, the tie-breaker that normalize adds, is
the sum over the arcs of its path, so query_dist walks the path that
query_path reports.

Everything stored is flat columns (_Columns), built and loaded alike.
The K record tables and the N root tables are all trees over vertices
with distances from a root, so they are K + N blocks of one set of node
columns (vertex, base, parent vertex, parent arc), divided by the CSR
offsets tree_start: the records in key order, then the tables in root
order; records add their keys and each node's record tree root, which
the records' nodes, coming first, index directly. A record block holds
its trees' members only: a tree's root stays in the child graph, so it
has no node there, and every record hit reroutes.
Within a block the nodes whose parent arc has a tail chain come first, so
node p of block b has chain tree_chain_start[b] + (p - tree_start[b])
when that offset is below the block's chain count, and one CSR pair
(chain_hop_start, hops) holds every chain. Bases are int64 and never
negative: a table holds only the rows its root's Dijkstra run reached,
which leaves out the interval's other ring vertices, which no query
names, so node_parent is -1 only at a table's root. The arc table holds
only the arcs some node names as its parent arc, which are all the arcs
a path can report; an arc's kind is not stored, as it follows from its
tail and base (see normalize). The only per-node Python objects are the
vertex -> node dicts, one per block, made with dict(zip(...)) over the
columns; they hold ints only, so the garbage collector does not track
them. One walk (MsspOracle._walk) follows parent vertices to a block's
root, the ring vertex for a table and the node's record root for a
record, comparing each parent with the root before it looks the parent
up (a record does not hold its root), and serves the terminal tree and
every record tree. The build fills its columns from the Dijkstra columns
of the trees it stores (one row snapshot per node, sssp.out_adjacency)
and from the record columns that one contract_tree call returns per
child (_tree_block for both, which puts each block in order with one
sort), and each node looks up a tail chain at most once per original
tail.

The oracle file is format "planar-mssp-oracle", version 9, little-endian:

    8 bytes   magic b"\\x89MSSP\\r\\n\\x1a"
    4 bytes   uint32 length H of the header
    4 bytes   uint32 zlib.crc32 of the header
    H bytes   header: compact, key-sorted UTF-8 JSON with format, version,
              n_original, w_big, seed, stats, and "sections", one
              [name, item count, zlib.crc32] per column of _SECTIONS
    ...       the columns' bytes, in _SECTIONS order, nothing between

save() writes the columns as they are held, and load() reads the file into
one bytes object and fills each column with array.frombytes, so a loaded
oracle re-saves byte for byte. load() checks, in this order: the magic
(a file that starts with "{" is a JSON oracle of versions 1 to 3 and
raises VersionMismatchError), the format and version, the header and
section checksums, the file length, the column lengths and offsets, one
table per root, no block with more chains than nodes, no negative base,
no record node that is its own tree root, and that every parent arc id
is in the arc table; then that no block lists a vertex twice and that
every record is keyed by a node of the schedule; then that root 0's
descent, the records its plan reads and table 0, holds each original
vertex once and its own ring vertex, n_original + 1 vertices in all
(the original ones are the vertices queries accept), and that each
table is rooted at its own ring vertex, over that vertex and vertices of
root 0's descent, with one row whose parent is the ring vertex, whose
parent arc is the root's spoke (the arc whose tail is the ring vertex),
which no other row's is, and which has no tail chain (so a path starts
with the spoke); last, that each original vertex of root 0's descent is
the head of a stored arc. Which node stores each table is not in the
file: it follows from the ring count, so a file of another version
raises VersionMismatchError even where its layout is the same. Path queries
bound every parent walk, and raise CorruptFileError, not KeyError, when
a damaged file names a vertex or record it does not hold.
The plans and the dicts are not part of the file. to_json() gives the
same content as one logical JSON document, for tests and tools.
"""

from __future__ import annotations

import gc
import json
import re
import struct
import sys
import time
import zlib
from array import array
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from bisect import bisect_right
from itertools import accumulate, chain, compress, islice, repeat
from operator import eq, gt, sub
from typing import Callable, Iterable, Iterator, NamedTuple

from .contraction import TailChain, contract_tree, select_trees
from .embedded_graph import EmbeddedDigraph
from .errors import (
    BadRootIndexError,
    CorruptFileError,
    FaceVertexQueryError,
    FormatLimitError,
    MsspError,
    UnreachableError,
    VersionMismatchError,
)
from .normalize import UNREACHABLE, ArcInfo, NormalizedInstance, arc_kind
from .sssp import SSSPTree, inherit_tree, out_adjacency, sssp_tree
from .weights import LexWeight

ORACLE_FORMAT = "planar-mssp-oracle"
ORACLE_VERSION = 9

RecordKey = tuple[int, int]  # (midpoint, side); side 0 = left child

_MAGIC = b"\x89MSSP\r\n\x1a"
_PRELUDE = struct.Struct("<8sII")  # magic, header length, header crc32
_WIDTH = {"i": 4, "q": 8}
if any(array(tc).itemsize != w for tc, w in _WIDTH.items()):
    raise ImportError("array typecodes 'i' and 'q' must be 4 and 8 bytes wide")
_SWAP = sys.byteorder != "little"

# Every column, in file order: (name, typecode). N roots, A arcs, K record
# tables, M = K + N blocks (the record tables in key order, then the root
# tables in root order), V nodes, C tail chains; "start" columns are CSR
# offsets, one more than the items they divide.
_SECTIONS = (
    ("ring_roots", "i"),  # N ring vertices r_j
    ("face_vertices", "i"),  # N face vertices b_j
    ("arc_id", "i"),  # A, increasing: the arcs that node_arc names
    ("arc_tail", "i"),
    ("arc_head", "i"),
    ("arc_base", "q"),
    ("arc_perturb", "q"),
    ("record_key", "i"),  # K, increasing
    ("tree_start", "i"),  # M + 1: each block's nodes
    ("node_vertex", "i"),  # V; in each block the nodes with a tail chain first
    ("node_base", "q"),  # >= 0 from the block's root: a table's distance, a record's delta
    ("node_parent", "i"),  # parent vertex; -1 only at a table's root
    ("node_arc", "i"),  # parent arc id; -1 likewise
    ("record_root", "i"),  # tree_start[K]: each record node's tree root, not itself
    ("tree_chain_start", "i"),  # M + 1: each block's chains, of its first nodes
    ("chain_hop_start", "i"),  # C + 1: each chain's hops
    ("hop_key", "i"),  # record key of each hop, innermost hop first
    ("hop_vertex", "i"),
)
# how versions 1 to 3, key-sorted JSON documents, end
_JSON_ORACLE_TAIL = re.compile(rb'"version":(\d+),"w_big":-?\d+\}\n?\Z')


@contextmanager
def _gc_paused() -> Iterator[None]:
    """Suspend generational GC for the block, then restore the caller's state.

    The build allocates millions of small acyclic objects, so collection
    passes only add pauses; reference counting frees them.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


class _Columns:
    """The oracle's stored content: one array per entry of _SECTIONS."""

    __slots__ = tuple(name for name, _ in _SECTIONS)


def _column(typecode: str, values: Iterable[int]) -> array:
    """An array of the file's width for values; a typed error if one does not fit."""
    try:
        return array(typecode, values)
    except OverflowError as exc:
        raise FormatLimitError(
            f"a value does not fit a {8 * _WIDTH[typecode]}-bit column of the"
            f" oracle file: {exc}"
        ) from exc


def _concat(typecode: str, parts: Iterable[array]) -> array:
    out = array(typecode)
    for part in parts:
        out.extend(part)
    return out


def _offsets(lengths: Iterable[int]) -> array:
    return _column("i", accumulate(lengths, initial=0))


class _Plan(NamedTuple):
    """One root's descent, worked out once; references, no copies."""

    intervals: tuple[tuple[int, int], ...]  # outermost first; the last is terminal
    steps: tuple[tuple[int, dict[int, int]], ...]  # (record key, vertex -> entry), in order
    index: dict[int, int]  # this root's table: vertex -> row


class Explanation(NamedTuple):
    """What MsspOracle.explain reports about one query's descent."""

    intervals: list[tuple[int, int]]  # the intervals visited, outermost first
    hits: list[tuple[RecordKey, int]]  # (record key, vertex) rerouted, in order
    terminal: tuple[int, int]  # the interval whose tree answers
    probes: int  # record tables probed on the way down


class _Node(NamedTuple):
    """One node of the recursion, as _schedule yields it."""

    interval: tuple[int, int]  # (i1, i2)
    level: int  # the root node's is 0
    key: int | None  # 2 * parent midpoint + side; the root node has no record
    trees: tuple[int, ...]  # the roots whose trees it has, increasing
    stores: tuple[int, ...]  # the roots whose tables it stores
    children: tuple[tuple[int, int], ...]  # their intervals, in the order made


def _schedule(n: int) -> Iterator[_Node]:
    """Every node build makes for n roots, in the order it makes them.

    The recursion follows from n alone, and this is the one place that
    spells out its rules. The root node has the interval [0, n - 1]. A
    node [i1, i2] with i2 - i1 <= 1 is a leaf; any other has the midpoint
    mid = (i1 + i2) // 2, a left child [i1, mid] (side 0) and a right
    child [mid, i2] (side 1). A child's record key, under which build
    stores its parent's contraction into it, is 2 * mid + side; midpoints
    are unique, so keys are too.

    Root j's descent ends at a leaf, where the graph is smallest, and
    only the node it ends at stores j's table. Each node carries one
    flag, that its left endpoint is still owed a table: set at the root
    node, inherited by a left child, and set at a right child [mid, i2]
    unless its left sibling [i1, mid] is a leaf, which stores mid. A leaf
    [a, a + 1] stores a + 1, and a too when the flag is set. A right child
    that is a leaf has the flag clear (its left sibling is a leaf too), so
    it would store only its right endpoint; off the rightmost path that is
    an ancestor's midpoint, which a leaf further right stores. So no right
    leaf is built or listed, and the node on the rightmost path whose
    right child would be the leaf [n - 2, n - 1] stores n - 1 itself. No
    other internal node stores anything. An internal node has the trees
    of its endpoints and midpoint, which its tree selection and its
    children read; a leaf has only the trees it stores, both inherited.
    So each table is a tree of a leaf's graph, the smallest graphs of the
    recursion, and a descent visits at most ceil(log2 n) + 1 nodes.

    The nodes come in preorder: each node, then its children's subtrees,
    the left child's first. None of the rules above depends on that
    order, and build, _descent_plans and trace() read the schedule only
    through this module's name for it, so a test can swap in another
    preorder. A generator, which holds one path of the recursion, not a
    list of its nodes.
    """
    last = n - 1
    # (interval, level, key, left endpoint owed) of the nodes still to
    # come, the next one on top
    stack = [((0, last), 0, None, True)]
    while stack:
        interval, level, key, owed = stack.pop()
        i1, i2 = interval
        children = ()
        if i2 - i1 > 1:
            mid = (i1 + i2) // 2
            trees, stores = (i1, mid, i2), ()
            left = ((i1, mid), level + 1, 2 * mid, owed)
            if i2 - mid > 1:
                right = ((mid, i2), level + 1, 2 * mid + 1, mid - i1 > 1)
                children = (left[0], right[0])
                stack += right, left
            else:
                children = (left[0],)
                stack.append(left)
                if i2 == last:
                    stores = (last,)
        else:
            # a leaf, or the root node [0, 0] of a single root
            trees = stores = (i1, i2) if owed and i1 < i2 else (i2,)
        # tuple.__new__ skips _Node's Python-level __new__, which would
        # take a third of a load's pass over the schedule
        yield tuple.__new__(_Node, (interval, level, key, trees, stores, children))


def _descent_plans(
    ring_count: int,
    records: dict[int, dict[int, int]],
    tables: list[dict[int, int]],
) -> list[_Plan]:
    """Every root's descent plan, by one pass over the schedule.

    Root j's plan is the intervals of the path to the node that stores j
    (see _schedule), the record tables along that path that exist, and
    tables[j]. A node's path is its parent's, extended: in preorder, the
    parent of a node at level L is the last node seen at level L - 1. A
    record under a key that no node has would be read by no descent:
    CorruptFileError.
    """
    plans: list[_Plan | None] = [None] * ring_count
    # the intervals and the record steps of the path down to the last node
    # seen at each level, one place on: the root node reads the empty path
    intervals_to: dict[int, tuple] = {0: ()}
    steps_to: dict[int, tuple] = {0: ()}
    found = 0
    for interval, level, key, _, stores, _ in _schedule(ring_count):
        intervals = intervals_to[level + 1] = (*intervals_to[level], interval)
        steps = steps_to[level]
        table = records.get(key)
        if table is not None:
            steps = (*steps, (key, table))
            found += 1
        steps_to[level + 1] = steps
        for j in stores:
            # as in _schedule, tuple.__new__ skips the Python-level __new__
            plans[j] = tuple.__new__(_Plan, (intervals, steps, tables[j]))
    if found != len(records):
        stray = min(records.keys() - {node.key for node in _schedule(ring_count)})
        raise CorruptFileError(
            f"record {stray >> 1, stray & 1} is keyed by no node of the recursion"
        )
    return plans  # type: ignore[return-value]


@dataclass
class BuildStats:
    """Plain counters describing one build."""

    n_original: int
    ring_count: int
    node_count: int = 0
    max_level: int = 0
    build_seconds: float = 0.0
    stored_rows: int = 0
    record_entries: int = 0
    chain_elements: int = 0
    per_level: list[dict] = field(default_factory=list)

    @property
    def stored_entries(self) -> int:
        return self.stored_rows + self.record_entries

    def to_json(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_json(cls, doc: dict) -> "BuildStats":
        return cls(**{f.name: doc[f.name] for f in fields(cls)})


def _tree_name(c: _Columns, b: int) -> str:
    """How errors name block b."""
    k = len(c.record_key)
    if b >= k:
        return f"table {b - k}"
    key = c.record_key[b]
    return f"record {key >> 1, key & 1}"


def _tree_indexes(c: _Columns) -> list[dict[int, int]]:
    """Each block's vertex -> node dict; no block may list a vertex twice."""
    start = c.tree_start
    vertex = c.node_vertex
    trees: list[dict[int, int]] = []
    for b, (a, z) in enumerate(zip(start, start[1:])):
        index = dict(zip(vertex[a:z], range(a, z)))
        if len(index) != z - a:
            # a repeated vertex would read another vertex's node
            raise CorruptFileError(f"{_tree_name(c, b)}: a vertex is listed twice")
        trees.append(index)
    return trees


def _check_tables(
    c: _Columns, n_original: int, tables: list[dict[int, int]], plan0: _Plan
) -> frozenset[int]:
    """Check what a query relies on in the tables; return the query vertices.

    Root 0's descent, the records its plan reads and then table 0, holds
    every vertex once: contraction moves a vertex from a node's graph into
    a record, so those blocks must hold n_original + 1 vertices between
    them, none twice, and no ring vertex but r_0, and each but r_0 must be
    the head of a stored arc. Their original vertices are the query
    vertices. Every table must hold its own ring vertex at distance 0,
    list only that vertex and vertices of root 0's descent, and start
    every path with its spoke, the arc whose tail is the ring vertex.
    """
    start = c.tree_start
    base, parents, arcs = c.node_base, c.node_parent, c.node_arc
    # ring vertex -> its spoke, the one arc that leaves it
    ring = set(c.ring_roots)
    spoke_of = {t: a for a, t in zip(c.arc_id, c.arc_tail) if t in ring}
    k = len(c.record_key)
    chained = map(sub, c.tree_chain_start[k + 1:], c.tree_chain_start[k:])
    # root 0's descent's vertices, and while table j is checked, also r_j
    blocks = [entries for _, entries in plan0.steps]
    blocks.append(tables[0])
    allowed = set(chain.from_iterable(blocks))
    held = sum(map(len, blocks))
    for j, (r, index, a, z, chains) in enumerate(
        zip(c.ring_roots, tables, start[k:], start[k + 1:], chained)
    ):
        node = index.get(r)
        if node is None:
            raise CorruptFileError(f"table {j} lacks its ring root {r}")
        if base[node] != 0:
            raise CorruptFileError(
                f"table {j} is not rooted at its labelled root {j}'s ring vertex {r}"
            )
        if j == 0:
            if held != n_original + 1 or len(allowed) != held:
                raise CorruptFileError(
                    f"root 0's descent holds {held} vertices, {len(allowed)} of them"
                    f" distinct, not each original vertex and its ring vertex once"
                    f" ({n_original} + 1)"
                )
        else:
            # root 0's descent's one ring vertex is its own
            if r in allowed:
                raise CorruptFileError(f"root 0's descent lists root {j}'s ring vertex {r}")
            allowed.add(r)
            inside = index.keys() <= allowed
            allowed.discard(r)
            if not inside:
                stray = min(index.keys() - allowed - {r})
                raise CorruptFileError(
                    f"table {j} lists vertex {stray}, which root 0's descent does not hold"
                )
        # r is pendant, its spoke its one arc, so exactly one row, b_j's, has
        # r as its parent; its parent arc must be that spoke, which no other
        # row's is, and it must have no tail chain: so every path starts with
        # the spoke, which query_path drops
        parent = parents[a:z]
        s = spoke_of.get(r)
        if parent.count(r) == 1 and s is not None:
            p = parent.index(r)
            if p >= chains and arcs[a + p] == s and arcs[a:z].count(s) == 1:
                continue
        raise CorruptFileError(
            f"table {j}: the row whose parent is the ring vertex is not the one"
            " row whose parent arc is the root's spoke, without a tail chain"
        )
    # every node but a table's root is the head of its parent arc, so a
    # vertex that no stored arc enters is foreign to the graph
    vertices = allowed - ring
    foreign = vertices.difference(c.arc_head)
    if foreign:
        raise CorruptFileError(
            f"root 0's descent lists vertex {min(foreign)}, which no stored arc enters"
        )
    return frozenset(vertices)


class MsspOracle:
    """Immutable queryable artifact produced by build() or load()."""

    __slots__ = (
        "n_original",
        "ring_count",
        "ring_roots",
        "face_vertices",
        "w_big",
        "seed",
        "records",
        "tables",
        "stats",
        "_cols",
        "_table_blocks",
        "_record_blocks",
        "_reroute",
        "_walk_cols",
        "_ring_set",
        "_query_vertices",
        "_arcs",
        "_plans",
    )

    def __init__(
        self, n_original: int, w_big: int, seed: int, cols: _Columns, stats: BuildStats
    ):
        self.n_original = n_original
        self.w_big = w_big
        self.seed = seed
        self.stats = stats
        self._cols = cols
        self.ring_roots = cols.ring_roots.tolist()
        self.face_vertices = cols.face_vertices.tolist()
        n = self.ring_count = len(self.ring_roots)
        self._ring_set = frozenset(self.ring_roots)
        # per block, its vertex -> node (a node of the node columns): the
        # records in key order, then the tables in root order
        k = len(cols.record_key)
        indexes = _tree_indexes(cols)
        self.tables = indexes[k:]
        # record key (2 * midpoint + side) -> vertex -> node
        self.records = dict(zip(cols.record_key, indexes))
        if len(self.records) != k:
            raise CorruptFileError("a record key is listed twice")
        # per block, what a walk of its tree reads: its index, first node,
        # first chain and chain count, and a table's ring vertex (a record's
        # tree roots are per node); per root and per record key
        start, chain_start = cols.tree_start, cols.tree_chain_start
        blocks = list(zip(
            indexes, start, chain_start, map(sub, chain_start[1:], chain_start),
            chain(repeat(None, k), self.ring_roots),
        ))
        self._table_blocks = blocks[k:]
        self._record_blocks = dict(zip(cols.record_key, blocks))
        # the columns each query reads, bound once, and the bound on a walk's
        # steps after its first node: a tree path has at most as many arcs as
        # the largest block has nodes (a record does not hold its root)
        self._reroute = (cols.record_root, cols.node_base)
        self._walk_cols = (
            cols.node_parent, cols.node_arc, cols.record_root,
            cols.chain_hop_start, cols.hop_key, cols.hop_vertex, self._record_blocks,
            range(max(map(len, indexes))),
        )
        self._arcs: dict[int, ArcInfo] | None = None
        # immutable once built, so queries stay safe from several threads
        self._plans = _descent_plans(n, self.records, self.tables)
        self._query_vertices = _check_tables(cols, n_original, self.tables, self._plans[0])

    @property
    def query_vertices(self) -> frozenset[int]:
        """The vertices distance queries accept: all original vertices."""
        return self._query_vertices

    @property
    def arcs(self) -> dict[int, ArcInfo]:
        """Arc id -> ArcInfo of the stored arcs, made on first use.

        Only the arcs of the normalized graph that some stored tree names
        as a parent arc are stored: every arc a path can report, not every
        arc of the graph. Each kind follows from the arc's tail and base.
        """
        arcs = self._arcs
        if arcs is None:
            c = self._cols
            ring, w_big = self._ring_set, self.w_big
            arcs = self._arcs = {
                aid: ArcInfo(tail, head, base, perturb, arc_kind(tail, base, ring, w_big))
                for aid, tail, head, base, perturb in zip(
                    c.arc_id, c.arc_tail, c.arc_head, c.arc_base, c.arc_perturb
                )
            }
        return arcs

    # ------------------------------------------------------------------
    # queries

    def _plan(self, j: int) -> _Plan:
        """Root j's descent plan, once j is checked to be a root index."""
        if not isinstance(j, int) or isinstance(j, bool) or not 0 <= j < self.ring_count:
            raise BadRootIndexError(f"root index {j!r} not in [0, {self.ring_count})")
        return self._plans[j]

    def _descend(
        self, j: int, u: int, hits: list[tuple[int, int, int]] | None = None
    ) -> tuple[int, int]:
        """The one query descent: reroute u along root j's plan.

        Returns u's node in the terminal table and the base of the distance.
        Appends each record hit (key, vertex, node) to hits when given.
        """
        _, steps, index = self._plan(j)
        if type(u) is not int or u not in self._query_vertices:
            if type(u) is not int:
                # a bool or a float would otherwise hash as an int vertex
                raise FaceVertexQueryError(f"vertex {u!r} is not an int")
            if u in self._ring_set:
                raise FaceVertexQueryError(f"vertex {u} is a ring vertex, not queryable")
            raise FaceVertexQueryError(f"vertex {u!r} is not in the graph")
        roots, bases = self._reroute
        acc = 0
        for key, entries in steps:
            e = entries.get(u)
            if e is not None:
                acc += bases[e]
                if hits is not None:
                    hits.append((key, u, e))
                u = roots[e]
        node = index.get(u)
        if node is None:
            raise CorruptFileError(f"table {j} holds no row for vertex {u}")
        return node, acc + bases[node]

    def query_dist(self, j: int, u: int) -> LexWeight:
        """Exact normalized-graph distance from r_j to u as a LexWeight.

        The file stores bases only, so the perturbation is summed over the
        arcs of u's path, r_j's spoke included: a call walks the path and
        costs O(path length), where distance() costs O(descent depth). It
        answers for unreachable vertices too (base w_big or more). Apply
        map_answer (or use distance()) to interpret the result in
        original-graph terms.
        """
        path, base = self._walked(j, u, False)
        arcs = self.arcs
        return LexWeight(base, sum(arcs[a].perturb for a in path))

    def distance(self, j: int, u: int):
        """Base distance from b_j to u in the original graph, or UNREACHABLE."""
        _, base = self._descend(j, u)
        return UNREACHABLE if base >= self.w_big else base

    def descent_intervals(self, j: int) -> list[tuple[int, int]]:
        """The intervals a query for root j visits, outermost first."""
        return list(self._plan(j).intervals)

    def explain(self, j: int, u: int) -> Explanation:
        """How a query for (j, u) descends: intervals, record hits, probes."""
        plan = self._plan(j)
        hits: list[tuple[int, int, int]] = []
        self._descend(j, u, hits)
        return Explanation(
            list(plan.intervals),
            [((key >> 1, key & 1), v) for key, v, _ in hits],
            plan.intervals[-1],
            len(plan.steps),
        )

    def query_path(self, j: int, u: int) -> list[int]:
        """Original arc ids of the unique shortest b_j-to-u path."""
        path, _ = self._walked(j, u, True)
        # the first arc is r_j's spoke
        return path[1:]

    def _walked(self, j: int, u: int, reachable: bool) -> tuple[list[int], int]:
        """Descend for (j, u), then walk u's shortest path from r_j.

        Returns the path's arc ids, r_j's spoke first, and the base of its
        distance. If reachable is set, an unreachable u raises
        UnreachableError before any walk.
        """
        hits: list[tuple[int, int, int]] = []
        node, base = self._descend(j, u, hits)
        if reachable and base >= self.w_big:
            raise UnreachableError(
                f"vertex {u} is not reachable from face vertex {self.face_vertices[j]}"
            )
        out: list[int] = []
        # a loaded file can name a vertex or record that is not there; its
        # arc ids and its spokes were checked at load
        try:
            # the terminal tree from r_j down to u, then each rerouting jump
            self._walk(self._table_blocks[j], self._cols.node_vertex[node], out)
            for key, v, _ in reversed(hits):
                self._walk(self._record_blocks[key], v, out)
        except KeyError as exc:
            raise CorruptFileError(f"path walk met an unknown id: {exc}") from exc
        except RecursionError as exc:
            # chains nest one level per record; only a damaged file nests deeper
            raise CorruptFileError("tail chains of the path expand into each other") from exc
        return out, base

    def _walk(self, block: tuple, v: int, out: list[int]) -> None:
        """Append the arcs of a block's tree path from its root to vertex v.

        The root is the ring vertex for a table and v's record root for a
        record; v is never the root. A record does not hold its root, so
        each parent is compared with the root before it is looked up. Each
        arc's tail chain, the (record, vertex) hops between the
        arc's tail at contraction time and its original tail, goes first,
        deepest hop first, each hop one walk of its record tree. Each node
        on the path is looked up once.
        """
        index, first_node, first_chain, chains, stop = block
        (parent, arc, roots, hop_start, hop_key, hop_vertex, record_blocks,
         bound) = self._walk_cols
        node = index[v]
        if stop is None:
            stop = roots[node]
        nodes = [node]
        for _ in bound:
            v = parent[node]
            if v == stop:
                break
            node = index[v]
            nodes.append(node)
        else:
            # only the parent pointers of a damaged file walk this far: a cycle
            b = bisect_right(self._cols.tree_start, first_node) - 1
            raise CorruptFileError(f"parent pointers of {_tree_name(self._cols, b)} cycle")
        nodes.reverse()
        for node in nodes:
            off = node - first_node
            if off < chains:
                ch = first_chain + off
                h, last = hop_start[ch + 1], hop_start[ch]
                while h > last:
                    h -= 1
                    self._walk(record_blocks[hop_key[h]], hop_vertex[h], out)
            out.append(arc[node])

    # ------------------------------------------------------------------
    # introspection and persistence

    def trace(self) -> dict:
        """Recursion structure as a plain dict, for external plotting.

        "nodes" lists the nodes build makes (see _schedule), level by level
        and left to right, each with its interval, its level and, as
        "roots", the roots whose trees it has; "records" lists each record
        table's key and size.
        """
        nodes = [
            {"i1": i1, "i2": i2, "level": level, "roots": list(trees)}
            for (i1, i2), level, _, trees, _, _ in sorted(
                _schedule(self.ring_count), key=lambda node: (node.level, node.interval)
            )
        ]
        recs = [
            {"midpoint": key >> 1, "side": key & 1, "entries": len(tab)}
            for key, tab in sorted(self.records.items())
        ]
        return {"ring_count": self.ring_count, "nodes": nodes, "records": recs}

    def to_json(self) -> dict:
        """The oracle's content as one logical JSON document.

        Each tree's nodes in the file's block order: header values, "arcs"
        as [id, tail, head, base, perturb], "tables" as one [j, vertices,
        base, par_v, par_arc, chains] per root, where chains lists [row,
        [[midpoint, side, vertex], ...]], and "records" as [midpoint, side,
        entries] per record table, each entry [vertex, root, delta base,
        parent, arc, chain]. Tests and tools read it; save() writes the
        columns instead.
        """
        c = self._cols
        k = len(c.record_key)

        def block(b: int) -> tuple[int, int, list[list[list[int]]]]:
            """Block b's node range and each of its chains' hops."""
            return c.tree_start[b], c.tree_start[b + 1], [
                [[c.hop_key[h] >> 1, c.hop_key[h] & 1, c.hop_vertex[h]]
                 for h in range(c.chain_hop_start[ch], c.chain_hop_start[ch + 1])]
                for ch in range(c.tree_chain_start[b], c.tree_chain_start[b + 1])
            ]

        tables = []
        for j in range(self.ring_count):
            a, z, chains = block(k + j)
            tables.append(
                [j, *(col[a:z].tolist() for col in (
                    c.node_vertex, c.node_base, c.node_parent, c.node_arc)),
                 [[p, hops] for p, hops in enumerate(chains)]]
            )
        records = []
        for b, key in enumerate(c.record_key):
            a, z, chains = block(b)
            chains += [[] for _ in range(z - a - len(chains))]
            entries = [
                [c.node_vertex[e], c.record_root[e], c.node_base[e], c.node_parent[e],
                 c.node_arc[e], hops]
                for e, hops in zip(range(a, z), chains)
            ]
            records.append([key >> 1, key & 1, entries])
        return {
            "format": ORACLE_FORMAT,
            "version": ORACLE_VERSION,
            "n_original": self.n_original,
            "w_big": self.w_big,
            "seed": self.seed,
            "ring_roots": list(self.ring_roots),
            "face_vertices": list(self.face_vertices),
            "arcs": [
                list(arc) for arc in zip(
                    c.arc_id, c.arc_tail, c.arc_head, c.arc_base, c.arc_perturb
                )
            ],
            "stats": self.stats.to_json(),
            "tables": tables,
            "records": records,
        }

    def save(self, sink) -> None:
        """Write the oracle file (format version 9) to a path or binary file object."""
        if hasattr(sink, "write"):
            self._write(sink.write)
        else:
            with open(sink, "wb") as fh:
                self._write(fh.write)

    def _write(self, write) -> None:
        cols = [getattr(self._cols, name) for name, _ in _SECTIONS]
        if _SWAP:
            cols = [_swapped(col) for col in cols]
        header = {
            "format": ORACLE_FORMAT,
            "version": ORACLE_VERSION,
            "n_original": self.n_original,
            "w_big": self.w_big,
            "seed": self.seed,
            "stats": self.stats.to_json(),
            "sections": [
                [name, len(col), zlib.crc32(col)] for (name, _), col in zip(_SECTIONS, cols)
            ],
        }
        head = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
        write(_PRELUDE.pack(_MAGIC, len(head), zlib.crc32(head)))
        write(head)
        for col in cols:
            write(col)


def _swapped(col: array) -> array:
    out = array(col.typecode, col)
    out.byteswap()
    return out


def _json_oracle_error(raw: bytes) -> MsspError:
    """The error for a file that starts with "{": a version 1-3 oracle or not."""
    m = _JSON_ORACLE_TAIL.search(raw[-64:])
    if m is None:
        return CorruptFileError(f"not a {ORACLE_FORMAT} file: it starts with '{{'")
    return VersionMismatchError(
        f"oracle version {int(m.group(1))} (a JSON oracle file), expected"
        f" {ORACLE_VERSION}; build the oracle again"
    )


def _read_columns(raw: bytes, pos: int, sections) -> _Columns:
    """Fill every column from its bytes after checking its checksum."""
    if not isinstance(sections, list) or len(sections) != len(_SECTIONS):
        raise CorruptFileError(
            f"the header does not list the version {ORACLE_VERSION} sections"
        )
    cols = _Columns()
    with memoryview(raw) as view:
        for (name, typecode), item in zip(_SECTIONS, sections):
            if not (
                isinstance(item, list) and len(item) == 3 and item[0] == name
                and type(item[1]) is int and item[1] >= 0 and type(item[2]) is int
            ):
                raise CorruptFileError(f"bad header entry for section {name}: {item!r}")
            end = pos + item[1] * _WIDTH[typecode]
            if end > len(raw):
                raise CorruptFileError(f"the file ends inside section {name}")
            with view[pos:end] as chunk:
                if zlib.crc32(chunk) != item[2]:
                    raise CorruptFileError(f"section {name} fails its checksum")
                col = array(typecode)
                col.frombytes(chunk)
            if _SWAP:
                col.byteswap()
            setattr(cols, name, col)
            pos = end
    if pos != len(raw):
        raise CorruptFileError(f"{len(raw) - pos} bytes follow the last section")
    return cols


def _check_offsets(off: array, count: int, what: str) -> None:
    """CSR offsets must run from 0 to count without stepping back."""
    if off[0] != 0 or off[-1] != count or any(map(gt, off, off[1:])):
        raise CorruptFileError(f"{what}: offsets out of order or out of range")


def _check_columns(c: _Columns) -> None:
    """Column lengths and offsets agree, no base is negative, no record
    node is its own root, and every arc id is known."""
    n = len(c.ring_roots)
    if n == 0 or len(c.face_vertices) != n:
        raise CorruptFileError(
            f"{n} ring roots and {len(c.face_vertices)} face vertices; expected"
            " one or more of each, as many of one as of the other"
        )
    if len(set(c.ring_roots)) != n:
        raise CorruptFileError("a ring root is listed twice")
    arcs = len(c.arc_id)
    if any(len(col) != arcs for col in (c.arc_tail, c.arc_head, c.arc_base, c.arc_perturb)):
        raise CorruptFileError("arc columns differ in length")
    start = c.tree_start
    k = len(c.record_key)
    tables = len(start) - 1 - k
    if tables != n:
        raise CorruptFileError(f"{tables} tables for {n} roots; expected one per root")
    nodes = len(c.node_vertex)
    if any(len(col) != nodes for col in (c.node_base, c.node_parent, c.node_arc)):
        raise CorruptFileError(f"the node columns do not all have the {nodes} rows")
    _check_offsets(start, nodes, "tree nodes")
    if len(c.record_root) != start[k]:
        raise CorruptFileError("record roots do not have one entry per record node")
    chain_start = c.tree_chain_start
    if len(chain_start) != len(start):
        raise CorruptFileError("chain offsets do not have one entry per block")
    _check_offsets(chain_start, len(c.chain_hop_start) - 1, "tree chains")
    # a block's chains belong to its first nodes, one each
    if any(map(gt, map(sub, chain_start[1:], chain_start), map(sub, start[1:], start))):
        raise CorruptFileError("a block has more tail chains than nodes")
    if len(c.hop_vertex) != len(c.hop_key):
        raise CorruptFileError("chain hop columns differ in length")
    _check_offsets(c.chain_hop_start, len(c.hop_key), "chain hops")
    # a table stores reached rows only and a record its trees' members
    # only. _descend reroutes on every record hit, so a root's entry would
    # add its delta to a distance. An int64's sign bit is in its most
    # significant byte: one C-level pass over those bytes checks the bases
    # without making an int per node
    if not c.node_base.tobytes()[0 if _SWAP else 7::8].isascii():
        raise CorruptFileError("a node has a negative base")
    if any(map(eq, c.record_root, c.node_vertex)):
        raise CorruptFileError("a record node is its own tree root")
    known = set(c.arc_id)
    if len(known) != arcs:
        raise CorruptFileError("an arc id is listed twice")
    # every arc id a path walk can report, and -1 (no arc) at a table's
    # root; a subset test, which builds no set of the node column
    known.add(-1)
    if not known.issuperset(c.node_arc):
        unknown = set(c.node_arc) - known
        raise CorruptFileError(
            f"{len(unknown)} parent or record arc ids are not in the arc"
            f" table, such as {min(unknown)}"
        )


def _read_file(raw: bytes) -> tuple[dict, _Columns]:
    """The header and the columns of an oracle file, checksums checked."""
    if raw[:1] == b"{":
        raise _json_oracle_error(raw)
    if len(raw) < _PRELUDE.size or raw[:len(_MAGIC)] != _MAGIC:
        raise CorruptFileError(f"not a {ORACLE_FORMAT} file")
    _, head_len, head_crc = _PRELUDE.unpack_from(raw)
    body = _PRELUDE.size + head_len
    if body > len(raw):
        raise CorruptFileError("the file ends inside its header")
    head = raw[_PRELUDE.size:body]
    try:
        header = json.loads(head)
    except (ValueError, RecursionError) as exc:
        raise CorruptFileError(f"invalid header: {exc}") from exc
    if not isinstance(header, dict) or header.get("format") != ORACLE_FORMAT:
        raise CorruptFileError(f"not a {ORACLE_FORMAT} header")
    # the version goes first, so that a file of another version reports
    # that, whatever its checksums
    version = header.get("version")
    if type(version) is not int:
        # a damaged key, not another version
        raise CorruptFileError(f"the header has no version number: {version!r}")
    if version != ORACLE_VERSION:
        raise VersionMismatchError(f"oracle version {version}, expected {ORACLE_VERSION}")
    if zlib.crc32(head) != head_crc:
        raise CorruptFileError("the header fails its checksum")
    return header, _read_columns(raw, body, header.get("sections"))


def load(source) -> MsspOracle:
    """Read an oracle written by save(); path or binary file object."""
    if hasattr(source, "read"):
        raw = source.read()
    else:
        with open(source, "rb") as fh:
            raw = fh.read()
    if not isinstance(raw, (bytes, bytearray)):
        raise TypeError("oracle files are binary; open them in binary mode")
    header, cols = _read_file(raw)
    del raw  # the columns are copies; free the file's bytes before the dicts
    try:
        n_original, w_big, seed = header["n_original"], header["w_big"], header["seed"]
        stats = BuildStats.from_json(header["stats"])
    except (KeyError, TypeError) as exc:
        raise CorruptFileError(f"malformed header: {exc!r}") from exc
    if not all(type(x) is int for x in (n_original, w_big, seed)):
        raise CorruptFileError("n_original, w_big and seed must be ints")
    _check_columns(cols)
    return MsspOracle(n_original, w_big, seed, cols, stats)


class _Block(NamedTuple):
    """One tree's node columns in block order, and its chains (see _tree_block)."""

    vertex: array
    base: array
    parent: array
    arc: array
    root: array  # a record's only
    chain_len: array  # hops per chain
    hop_key: array
    hop_vertex: array


def _tree_block(vertex, base, parent, arc, chains, root=()) -> _Block:
    """A tree's columns, in block order: the nodes whose parent arc has a
    tail chain (chains holds each node's, () for none) first, each part by
    ascending vertex. A table's columns come sorted by vertex, a record's
    in the order contract_tree made them; columns already in block order
    are not copied."""
    order: range | list[int] = range(len(vertex))
    if any(map(gt, vertex, islice(vertex, 1, None))):
        order = sorted(order, key=vertex.__getitem__)
    chained = [p for p in order if chains[p]]
    if chained:
        order = chained + [p for p in order if not chains[p]]
    if isinstance(order, list):
        vertex, base, parent, arc = (
            [col[p] for p in order] for col in (vertex, base, parent, arc)
        )
        if root:
            root = [root[p] for p in order]
    hops = list(chain.from_iterable(map(chains.__getitem__, chained)))
    return _Block(
        _column("i", vertex),
        _column("q", base),
        _column("i", parent),
        _column("i", arc),
        _column("i", root),
        _column("i", [len(chains[p]) >> 1 for p in chained]),
        _column("i", hops[0::2]),
        _column("i", hops[1::2]),
    )


def _table_block(t: SSSPTree, chain_at: Callable[[int], TailChain]) -> _Block:
    """A stored tree's table: the rows its run reached, in block order.

    The rows it did not reach are the interval's other ring vertices,
    which the run excluded and no query names. chain_at gives a parent
    arc's tail chain.
    """
    vertices = t.snap.vertices
    reached = [b >= 0 for b in t.base]
    # a tree arc's id is its tail dart, the reverse of the parent dart
    par_arc = [-1 if d < 0 else d ^ 1 for d in compress(t.par_dart, reached)]
    return _tree_block(
        list(compress(vertices, reached)),
        list(compress(t.base, reached)),
        [-1 if r < 0 else vertices[r] for r in compress(t.par_row, reached)],
        par_arc,
        [chain_at(a) if a >= 0 else () for a in par_arc],
    )


def _flat_columns(
    norm: NormalizedInstance, tables: list[_Block], records: dict[int, _Block]
) -> _Columns:
    """Concatenate the build's blocks: records in key order, then tables in
    root order; then the arcs the blocks name, read from the normalized
    graph, where an arc's id is its tail dart."""
    c = _Columns()
    c.ring_roots = _column("i", norm.ring_roots)
    c.face_vertices = _column("i", norm.face_vertices)
    keys = sorted(records)
    (vertex, base, parent, arc, root, chain_len, hop_key,
     hop_vertex) = zip(*map(records.__getitem__, keys), *tables)
    c.record_key = _column("i", keys)
    c.tree_start = _offsets(map(len, vertex))
    c.node_vertex = _concat("i", vertex)
    c.node_base = _concat("q", base)
    c.node_parent = _concat("i", parent)
    c.node_arc = _concat("i", arc)
    c.record_root = _concat("i", root)
    c.tree_chain_start = _offsets(map(len, chain_len))
    c.chain_hop_start = _offsets(_concat("i", chain_len))
    c.hop_key = _concat("i", hop_key)
    c.hop_vertex = _concat("i", hop_vertex)

    used = set(c.node_arc)
    used.discard(-1)
    ids = sorted(used)
    at, arc_at = norm.graph._at, norm.graph._arc
    arcs = list(map(arc_at.__getitem__, ids))
    c.arc_id = _column("i", ids)
    c.arc_tail = _column("i", map(at.__getitem__, ids))
    c.arc_head = _column("i", [at[d ^ 1] for d in ids])
    c.arc_base = _column("q", [a[0] for a in arcs])
    c.arc_perturb = _column("q", [a[1] for a in arcs])
    return c


def build(
    norm: NormalizedInstance,
    *,
    instrument: bool = False,
    collect_edge_stats: bool = False,
) -> MsspOracle:
    """Preprocess a normalized instance into a queryable oracle.

    The build walks _schedule's nodes, which say which trees each node has
    and which roots' tables it stores, each straight from its tree's
    columns. A node inherits its endpoints' trees from its parent
    (sssp.inherit_tree) and runs Dijkstra for the rest: its midpoint's at
    an internal node, none at a leaf, all of the root node's. The last
    child built takes over its parent's graph instead of a copy.

    The build holds one root-to-node path of state. A node's out-lists
    (sssp.Adjacency) serve only its own Dijkstra runs and go before its
    tables are made; its trees keep only its rows. Before it builds a
    child, a node drops every tree that no later child reads, and the
    child drops the trees it was handed once it has inherited them. So
    while a child is built, each ancestor holds only what its later
    child reads: its graph and at most two trees.

    instrument enables expensive internal consistency checks, meant for
    small graphs: no tree selected for contraction holds a ring vertex,
    each contracted child graph is a valid embedding whose roots have the
    distances they had before the contraction (fresh Dijkstra runs on the
    child graph, before and after), and every inherited tree equals a
    fresh Dijkstra. An instrumented build makes the same graphs and keeps
    the same trees as a plain one. collect_edge_stats additionally counts,
    per level, how many of the trees a node has, stored or not, each arc
    appears in (stats key "tree_arc_max").
    """
    t0 = time.perf_counter()
    ring_roots = norm.ring_roots
    ring_vertex_set = set(ring_roots)
    n_rings = len(ring_roots)
    nodes_at = Counter(node.level for node in _schedule(n_rings))
    stats = BuildStats(
        norm.n_original, n_rings, node_count=nodes_at.total(), max_level=len(nodes_at) - 1,
        per_level=[
            {"level": level, "nodes": nodes_at[level], "vertices": 0, "slots": 0,
             "arcs": 0, "tree_vertices": 0, "tree_arcs": 0, "contracted_vertices": 0}
            for level in range(len(nodes_at))
        ],
    )
    # the stored trees' columns: per root, then per record key
    table_blocks: list[_Block | None] = [None] * n_rings
    record_blocks: dict[int, _Block] = {}
    absorbed_at: dict[int, tuple[int, int]] = {}  # vertex -> (record key, its root)
    edge_counters: dict[int, Counter] = {}
    # an arc's original tail: the vertex of its id, its tail dart, in the
    # normalized graph, which the build does not change
    original_at = norm.graph._at

    def chain_from(tail: int) -> TailChain:
        """Record key, vertex hops from an arc's original tail to its tail now."""
        out: list[int] = []
        cur = tail
        while cur in absorbed_at:
            key, root = absorbed_at[cur]
            out += (key, cur)
            cur = root
        return tuple(out)

    def roots_dist(hj, j1, j2):
        """The distances from each of hj's roots, by a fresh Dijkstra."""
        excl_j = {ring_roots[k] for k in range(j1, j2 + 1)}
        return {
            k: sssp_tree(hj, ring_roots[k], excl_j - {ring_roots[k]}).dist
            for k in range(j1, j2 + 1)
        }

    def check_selected(hj, j1, j2, selected):
        """No selected tree holds a ring vertex; returns the distances in hj,
        which has lost the other ring vertices but is not yet contracted.
        No arc enters a ring vertex, so they are the parent's distances."""
        for tree in selected:
            hit = ring_vertex_set.intersection(tree.vertex)
            if hit:
                raise MsspError(
                    f"instrument: ring vertices {sorted(hit)} selected for contraction"
                )
        return roots_dist(hj, j1, j2)

    def check_child(hj, j1, j2, before):
        """hj is a valid embedding, and each of its roots still has the
        distances it had before the contraction."""
        hj.check()
        for k, child_dist in roots_dist(hj, j1, j2).items():
            for v, dv in child_dist.items():
                if before[k].get(v) != dv:
                    raise MsspError(
                        f"instrument: contraction changed dist(r_{k}, {v}): "
                        f"{before[k].get(v)} became {dv}"
                    )

    def check_inherited(h, k, excluded, inherited, adj):
        fresh = sssp_tree(h, ring_roots[k], excluded, adj=adj)
        for name in ("base", "pert", "par_dart", "par_row"):
            got, want = getattr(inherited, name), getattr(fresh, name)
            if got != want:
                row = next(r for r, (a, b) in enumerate(zip(got, want)) if a != b)
                raise MsspError(
                    f"instrument: inherited tree of r_{k} has {name} {got[row]} at"
                    f" vertex {inherited.snap.vertices[row]}, a fresh Dijkstra"
                    f" {want[row]}"
                )

    # the nodes in the order they are made: rec takes each child's from
    # here, after its earlier siblings have taken their subtrees'
    schedule = _schedule(n_rings)

    def rec(
        node: _Node,
        h: EmbeddedDigraph,
        parent_trees: dict[int, SSSPTree],
        root_of: dict[int, int],
    ) -> None:
        i1, i2 = node.interval
        level, children = node.level, node.children
        lvl = stats.per_level[level]
        adj = out_adjacency(h)
        snap = adj.snap
        vertices = snap.vertices
        lvl["vertices"] += len(vertices)
        lvl["slots"] += h.slot_count
        lvl["arcs"] += snap.arc_count
        excluded_all = {ring_roots[k] for k in range(i1, i2 + 1)}
        trees: dict[int, SSSPTree] = {}
        for k in node.trees:
            rk = ring_roots[k]
            if k in parent_trees:
                trees[k] = inherit_tree(parent_trees[k], snap, root_of)
                if instrument:
                    check_inherited(h, k, excluded_all - {rk}, trees[k], adj)
            else:
                trees[k] = sssp_tree(h, rk, excluded_all - {rk}, adj=adj)
            lvl["tree_vertices"] += trees[k].reached
            lvl["tree_arcs"] += trees[k].reached - 1
        # the parent's trees are inherited: drop them
        parent_trees.clear()
        if collect_edge_stats:
            counter = edge_counters.setdefault(level, Counter())
            for t in trees.values():
                # the tree arc's id is its tail dart, the parent dart's reverse
                counter.update(d ^ 1 for d in t.par_dart if d >= 0)
        # the node's Dijkstra runs are done; no tree holds the out-lists
        del adj
        # chains by original tail, shared by this node's stored tables and by
        # the contractions into its children: absorbed_at is the same for all
        chains_here: dict[int, TailChain] = {}

        def chain_at(arc_id: int) -> TailChain:
            tail = original_at[arc_id]
            if tail not in absorbed_at:
                return ()
            found = chains_here.get(tail)
            if found is None:
                found = chains_here[tail] = chain_from(tail)
            return found

        for k in node.stores:
            table_blocks[k] = block = _table_block(trees[k], chain_at)
            stats.stored_rows += len(block.vertex)
        if not children:
            return
        del snap, vertices
        # a tree goes once no child still to be made reads it: a child
        # reads its endpoints' trees
        last_reader = {k: n for n, interval in enumerate(children) for k in interval}
        for k in trees.keys() - last_reader.keys():
            del trees[k]
        for n, (j1, j2) in enumerate(children):
            child = next(schedule)
            drop = [ring_roots[k] for k in range(i1, i2 + 1) if not j1 <= k <= j2]
            if n == len(children) - 1:
                # the last child takes h over
                h._drop_vertices(drop)
                hj = h
            else:
                hj = h.copy(drop)
            selected = select_trees(hj, trees[j1], trees[j2])
            if instrument:
                before = check_selected(hj, j1, j2, selected)
            records = contract_tree(hj, selected, chain_at)
            del selected
            if instrument:
                check_child(hj, j1, j2, before)
                del before
            entries = len(records.vertex)
            stats.record_entries += entries
            if entries:
                record_blocks[child.key] = _tree_block(
                    records.vertex, records.dbase, records.parent, records.arc,
                    records.chain, records.root,
                )
            # where each vertex contracted away went: its record and root
            # for tail chains, its root for the inherited trees
            moved = dict(zip(records.vertex, records.root))
            del records
            lvl["contracted_vertices"] += len(moved)
            for u, root in moved.items():
                absorbed_at[u] = (child.key, root)
            handed = {j1: trees[j1], j2: trees[j2]}
            for k in [k for k in trees if last_reader[k] == n]:
                del trees[k]
            rec(child, hj, handed, moved)
            for u in moved:
                del absorbed_at[u]

    with _gc_paused():
        rec(next(schedule), norm.graph.copy(), {}, {})
        # rec holds itself through its closure cell; emptying the cell lets
        # reference counting free the working graphs, not a later GC pass
        del rec
        cols = _flat_columns(norm, table_blocks, record_blocks)  # type: ignore[arg-type]
        del table_blocks, record_blocks
    if collect_edge_stats:
        for level, counter in edge_counters.items():
            stats.per_level[level]["tree_arc_max"] = max(counter.values()) if counter else 0
    stats.chain_elements = len(cols.hop_key)
    stats.build_seconds = time.perf_counter() - t0
    return MsspOracle(norm.n_original, norm.w_big, norm.seed, cols, stats)
