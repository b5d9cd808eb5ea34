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
along it in order, and j's table. distance() runs that descent inline,
one Python frame per call; explain() and a path query run it through
MsspOracle._descend, which also records each record hit. Each tests j
and u in one condition. distance() sends any failure, a missing table
row too, to _descend, and _descend sends a failed check to _checked,
which raises for a bad root index, then a non-int, ring or unknown
vertex. A path query additionally replays the walk's record hits and
the terminal tree walk, expanding every arc's tail chain — the
precomputed list of (record, vertex) hops between the arc's tail at
contraction time and its original tail — deepest hop first, which yields
original arc ids in path order with O(1) record probes per reported arc.
The oracle stores bases only, no perturbation: normalize's tie-breaker
makes shortest paths unique while they are built, and no query reads
it.

Everything stored is flat columns (_Columns), built and loaded alike.
The K record tables and the N root tables are all trees over vertices
with distances from a root, so they are K + N blocks of one set of node
columns (base, parent offset, parent arc), divided by the CSR offsets
tree_start: the records in key order, then the tables in root order;
records add their keys and each node's record tree root, which the
records' nodes, coming first, index directly. A node's vertex is its
parent arc's head (a contraction moves tails, never heads), which the
pass that makes the vertex -> node dicts reads. A record block holds its
trees' members only: a tree's root stays in the child graph, so it has
no node there, and every record hit reroutes.
Within a block the nodes whose parent arc has a tail chain come first,
so node p of block b has chain tree_chain_start[b] + (p - tree_start[b])
when that offset is below the block's chain count, and one CSR pair
(chain_hop_start, hops) holds every chain. Each column is an array of
the narrowest of int16, int32 and int64 that holds its values, in memory
as in the file. No block holds its tree's root: a table holds the rows
its root's Dijkstra run reached but the ring vertex itself, which leaves
out every ring vertex, which no query names, so every node has a parent
and a parent arc, and no column holds a negative value. A node's parent
is stored as its offset in the block; a node whose parent is the block's
root, which the block does not hold, stores its own offset. The arc
table holds only the arcs some node names as its parent arc, which are
all the arcs a path can report, as (id, head): no query reads an arc's
tail, base or kind, which norm.arcs holds. The only per-node Python
objects are the vertex -> node dicts, one per block, made with
dict(zip(...)) over the columns; they hold ints only, so the garbage
collector does not track them. One walk (MsspOracle._walk) looks its
start vertex up in the block's dict, once, then climbs by parent
offsets to the node that holds its own offset, the child of the block's
root (the ring vertex for a table, the node's record root for a
record), and serves the terminal tree and every record tree. The build
appends each tree it stores, as it makes it, to one build-wide array per
column (_Store): a table from its Dijkstra columns (one row snapshot per
node, sssp.out_adjacency), a record from the trees selected for a child
before contract_tree merges them, each put in block order with one sort,
its vertices and parents read as its arcs' heads and tails in the graph
the tree was made in; each node looks up a tail chain at most once per
original tail.
The arrays are made at widths known before the recursion, and at the
end the store lays the blocks out in file order and narrows each column
once.

Below the root node the two halves of the recursion share nothing: each
child has its own graph and inherits only its own endpoint trees. So when
the root node has two children, the graph is large enough, a second CPU
is usable and the caller runs one thread (build's docstring gives the
rule), build forks one worker process for the first child made. The
worker makes that child's graph, record and whole subtree into a store of
its own while the parent builds the second child. It sends that store
back, pickled over a pipe: its blocks, and what it counted for BuildStats
per level. The parent appends the blocks to its own store and adds the
counts to its own before the store lays the blocks out. As the layout
follows each block's place, not the order blocks were made, the saved
bytes and every stat are those of a build in one process; only
BuildStats' worker fields tell the two apart.

The oracle file is format "planar-mssp-oracle", version 16, little-endian:

    8 bytes   magic b"\\x89MSSP\\r\\n\\x1a"
    4 bytes   uint32 length H of the header
    4 bytes   uint32 zlib.crc32 of the header
    H bytes   header: compact, key-sorted UTF-8 JSON with format, version,
              n_original, w_big, seed and "sections", one
              [name, typecode, item count, zlib.crc32] per column of
              _SECTIONS; the typecode is "h", "i" or "q" (int16, int32,
              int64)
    ...       the columns' bytes, in _SECTIONS order, nothing between

save() writes the columns as they are held, and load() reads the file
into one bytes object and fills each column with array.frombytes at the
typecode its section names, so a loaded oracle re-saves byte for byte.
load() checks, in this order: the magic (a file that starts with "{" is
a JSON oracle of versions 1 to 3 and raises VersionMismatchError), the
format and version, the header checksum, each section's typecode and
checksum, the file length, the header's n_original and w_big (as
normalize sets and admits them), the column lengths and offsets, one
table per root, no block with more chains than nodes, no negative base
and every parent offset inside its block; then, as it derives the node
vertices, that no arc id is listed twice or missing, that no block lists
a vertex twice and that no record node is its own tree root; then that
no record key is listed twice and that every record is keyed by a node
of the schedule; then that root 0's descent, the records its plan reads
and table 0, holds n_original vertices, none twice (they are the
vertices queries accept), and that the ring roots are the N ids after
the largest, as normalize numbers them; last, that each table lists only
vertices of root 0's descent, with one row whose parent is its ring
vertex (the one row that holds its own offset), without a tail chain,
whose parent arc is the root's spoke r_j -> b_j, spoke 0's id plus 2j as
normalize numbers the spokes' darts, and whose vertex, b_j, no record on
the root's descent holds. The file stores neither the face vertices nor
any arc's tail. Which node stores each table is not in the file either:
it follows from the ring count, so a file of another version raises
VersionMismatchError even where its layout is the same. The file holds
no report on the build that made it (BuildStats): a saved oracle is a
function of the graph, the face and the seed alone, and a loaded
oracle's stats are None. Path
queries bound every parent walk and the path's length (n_original arcs,
however the tail chains nest), and raise CorruptFileError, not KeyError,
when a damaged file names a vertex or record it does not hold. The plans
and the dicts are not part of the file. to_json() gives the header values
and the columns as lists of ints; decode in tests/oracle_file.py gives
the same content as one nested document, for tests.
"""

from __future__ import annotations

import gc
import json
import os
import re
import signal
import struct
import sys
import threading
import time
import zlib
from array import array
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from bisect import bisect_right
from itertools import accumulate, chain, compress, count, islice, repeat
from operator import contains, eq, gt, mul, sub, xor
from typing import Callable, Iterator, NamedTuple, NoReturn, Sequence

from .contraction import SelectedTree, contract_tree, select_trees
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
from .normalize import UNREACHABLE, NormalizedInstance
from .sssp import SSSPTree, inherit_tree, out_adjacency, sssp_tree

ORACLE_FORMAT = "planar-mssp-oracle"
ORACLE_VERSION = 16

RecordKey = tuple[int, int]  # (midpoint, side); side 0 = left child
# the hops that re-inflate an arc's tail, innermost first, flat: record key,
# vertex, record key, vertex, ...
TailChain = tuple[int, ...]

_MAGIC = b"\x89MSSP\r\n\x1a"
_PRELUDE = struct.Struct("<8sII")  # magic, header length, header crc32
_WIDTH = {"h": 2, "i": 4, "q": 8}  # the file's typecodes, narrowest first
if any(array(tc).itemsize != w for tc, w in _WIDTH.items()):
    raise ImportError("array typecodes 'h', 'i' and 'q' must be 2, 4 and 8 bytes wide")
# each typecode with the least value it does not hold
_CEILINGS = tuple((tc, 1 << 8 * w - 1) for tc, w in _WIDTH.items())
_SWAP = sys.byteorder != "little"

# Every column, in file order. N roots, A arcs, K record tables, M = K + N
# blocks (the record tables in key order, then the root tables in root
# order), V nodes, C tail chains; "start" columns are CSR offsets, one more
# than the items they divide. Each column is stored at the narrowest of
# _WIDTH's typecodes that holds its values, which the header names; no
# value is negative.
_SECTIONS = (
    "ring_roots",  # N ring vertices r_j, the N ids after every original vertex
    "arc_id",  # A, increasing: the arcs that node_arc names
    "arc_head",  # each node's vertex is its parent arc's head; no tail is stored
    "record_key",  # K, increasing
    "tree_start",  # M + 1: each block's nodes, those with a tail chain first
    "node_base",  # V, >= 0 from the block's root: a table's distance, a record's delta
    "node_parent",  # parent's offset in the block; its own for the block's root
    "node_arc",  # parent arc id
    "record_root",  # tree_start[K]: each record node's tree root, not itself
    "tree_chain_start",  # M + 1: each block's chains, of its first nodes
    "chain_hop_start",  # C + 1: each chain's hops
    "hop_key",  # record key of each hop, innermost hop first
    "hop_vertex",
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

    __slots__ = _SECTIONS


def _narrowest(hi: int) -> str:
    """The narrowest typecode of the file that holds every value in [0, hi]."""
    for tc, ceiling in _CEILINGS:
        if hi < ceiling:
            return tc
    raise FormatLimitError(f"a value does not fit a 64-bit column of the oracle file: {hi}")


def _fitted(values: Sequence[int]) -> array:
    """values, none negative, as an array of the narrowest typecode that
    holds them, which their largest decides; an array of that typecode is
    returned as it is, and an h array is not scanned, as nothing is
    narrower. FormatLimitError for a value beyond int64."""
    if isinstance(values, array) and values.typecode == "h":
        return values
    tc = _narrowest(max(values, default=0))
    if isinstance(values, array) and values.typecode == tc:
        return values
    return array(tc, values)


class _Plan(NamedTuple):
    """One root's descent, worked out once; references, no copies."""

    intervals: tuple[tuple[int, int], ...]  # outermost first; the last is terminal
    keys: tuple[int, ...]  # the record keys it probes, in order
    probes: tuple[dict[int, int], ...]  # those records: vertex -> entry, in order
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
    # the intervals, record keys and record tables of the path down to the
    # last node seen at each level, one place on: the root node reads the
    # empty path
    intervals_to: dict[int, tuple] = {0: ()}
    keys_to: dict[int, tuple] = {0: ()}
    probes_to: dict[int, tuple] = {0: ()}
    found = 0
    for interval, level, key, _, stores, _ in _schedule(ring_count):
        intervals = intervals_to[level + 1] = (*intervals_to[level], interval)
        keys, probes = keys_to[level], probes_to[level]
        table = records.get(key)
        if table is not None:
            keys, probes = (*keys, key), (*probes, table)
            found += 1
        keys_to[level + 1], probes_to[level + 1] = keys, probes
        for j in stores:
            # as in _schedule, tuple.__new__ skips the Python-level __new__
            plans[j] = tuple.__new__(_Plan, (intervals, keys, probes, tables[j]))
    if found != len(records):
        stray = min(records.keys() - {node.key for node in _schedule(ring_count)})
        raise CorruptFileError(
            f"record {stray >> 1, stray & 1} is keyed by no node of the recursion"
        )
    return plans  # type: ignore[return-value]


@dataclass
class BuildStats:
    """Plain counters describing one build; the oracle file does not hold them."""

    n_original: int
    ring_count: int
    node_count: int = 0
    max_level: int = 0
    build_seconds: float = 0.0
    stored_rows: int = 0
    record_entries: int = 0
    chain_elements: int = 0
    per_level: list[dict] = field(default_factory=list)
    # the CPU seconds and peak RSS of the process that built the root
    # node's first child (see build), from its rusage; None for a build
    # that ran in one process. The peak counts the pages the worker
    # shared with its parent copy-on-write.
    worker_cpu_seconds: float | None = None
    worker_peak_rss_mb: float | None = None

    @property
    def stored_entries(self) -> int:
        return self.stored_rows + self.record_entries


def _tree_name(c: _Columns, b: int) -> str:
    """How errors name block b."""
    k = len(c.record_key)
    if b >= k:
        return f"table {b - k}"
    key = c.record_key[b]
    return f"record {key >> 1, key & 1}"


def _tree_indexes(c: _Columns) -> list[dict[int, int]]:
    """Each block's vertex -> node dict, a node's vertex being its parent
    arc's head. No arc id may be listed twice or be missing, no block may
    list a vertex twice, and no record node may be its own tree root."""
    head = dict(zip(c.arc_id, c.arc_head))
    if len(head) != len(c.arc_id):
        raise CorruptFileError("an arc id is listed twice")
    vertex_of, arcs, start = head.__getitem__, c.node_arc, c.tree_start
    trees: list[dict[int, int]] = []
    for b, (a, z) in enumerate(zip(start, start[1:])):
        try:
            index = dict(zip(map(vertex_of, arcs[a:z]), range(a, z)))
        except KeyError as exc:
            # every arc id a path walk can report
            raise CorruptFileError(f"arc ids not in the arc table, such as {exc}") from None
        if len(index) != z - a:
            # a repeated vertex would read another vertex's node
            raise CorruptFileError(f"{_tree_name(c, b)}: a vertex is listed twice")
        trees.append(index)
    # each block's dict lists its vertices in node order, the records first
    if any(map(eq, c.record_root, chain.from_iterable(trees))):
        raise CorruptFileError("a record node is its own tree root")
    return trees


def _check_tables(
    c: _Columns, n_original: int, plans: list[_Plan]
) -> tuple[frozenset[int], list[int]]:
    """Check what a query relies on in the tables; return the query vertices
    and the face vertices.

    Root 0's descent, the records its plan reads and then table 0, holds
    every original vertex once: contraction moves a vertex from a node's
    graph into a record, and no block holds its tree's root. They are the
    query vertices, and normalize numbers the ring vertices from one past
    the largest of them. Every path of table j starts with r_j's spoke, the
    parent arc of the one row whose parent is r_j (the row that holds its
    own offset), so that row's vertex is the face vertex b_j, which no
    record on j's descent holds (the spoke keeps it in every graph there).
    normalize adds the spokes' slots last, in root order, so spoke j's id,
    its tail dart, is spoke 0's plus 2j: that ties table j to r_j.
    """
    start, arcs = c.tree_start, c.node_arc
    n, k = len(c.ring_roots), len(c.record_key)
    chained = map(sub, c.tree_chain_start[k + 1:], c.tree_chain_start[k:])
    blocks = [*plans[0].probes, plans[0].index]
    vertices = set(chain.from_iterable(blocks))
    held = sum(map(len, blocks))
    if held != n_original or len(vertices) != held:
        raise CorruptFileError(
            f"root 0's descent holds {held} vertices, {len(vertices)} of them distinct,"
            f" not each original vertex once ({n_original})"
        )
    top = max(vertices)
    if c.ring_roots.tolist() != list(range(top + 1, top + 1 + n)):
        raise CorruptFileError(
            f"the ring roots are not the {n} ids that follow {top}, the largest vertex"
            " of root 0's descent"
        )
    # one C-level pass finds the marked rows of all tables, in node order:
    # n of them, with table j holding the j-th, is one per table
    at = start[k]
    offsets = chain.from_iterable(map(range, map(sub, start[k + 1:], start[k:])))
    marked = list(compress(count(at), map(eq, c.node_parent[at:], offsets)))
    if len(marked) != n:
        marks_of = Counter(bisect_right(start, m) - 1 - k for m in marked)
        raise _spoke_row_error(next(j for j in range(n) if marks_of[j] != 1))
    faces: list[int] = []
    for j, (plan, a, z, chains, m, spoke) in enumerate(
        zip(plans, start[k:], start[k + 1:], chained, marked, count(arcs[marked[0]], 2))
    ):
        if not plan.index.keys() <= vertices:
            stray = min(plan.index.keys() - vertices)
            raise CorruptFileError(
                f"table {j} lists vertex {stray}, which root 0's descent does not hold"
            )
        # no tail chain on the spoke's row: a path starts with the spoke,
        # which query_path drops
        if not (a <= m < z and m - a >= chains and arcs[m] == spoke):
            raise _spoke_row_error(j)
        # the row's vertex: the dict lists the block's vertices in node order
        face = next(islice(plan.index, m - a, None))
        if any(map(contains, plan.probes, repeat(face))):
            raise CorruptFileError(f"a record on root {j}'s descent holds its face vertex {face}")
        faces.append(face)
    return frozenset(vertices), faces


def _spoke_row_error(j: int) -> CorruptFileError:
    return CorruptFileError(
        f"table {j}: the row whose parent is the ring vertex is not one row without a"
        f" tail chain whose parent arc, the spoke, has spoke 0's id plus {2 * j}"
    )


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
        "_table_walks",
        "_record_walks",
        "_reroute",
        "_walk_cols",
        "query_vertices",
        "_plans",
    )

    def __init__(
        self, n_original: int, w_big: int, seed: int, cols: _Columns,
        stats: BuildStats | None,
    ):
        self.n_original = n_original
        self.w_big = w_big
        self.seed = seed
        # a built oracle's report on its build; a loaded one has none
        self.stats = stats
        self._cols = cols
        self.ring_roots = cols.ring_roots.tolist()
        n = self.ring_count = len(self.ring_roots)
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
        # first chain and chain count; per root and per record key
        start, chain_start = cols.tree_start, cols.tree_chain_start
        walks = list(zip(indexes, start, chain_start, map(sub, chain_start[1:], chain_start)))
        self._table_walks = walks[k:]
        self._record_walks = dict(zip(cols.record_key, walks))
        # the columns each query reads, bound once; the most arcs a path
        # has, n_original (it is simple and enters no ring vertex but r_j);
        # and the bound on a walk's steps after its first node: a tree path
        # has at most as many arcs as the largest block has nodes (no block
        # holds its root)
        self._reroute = (cols.record_root, cols.node_base)
        self._walk_cols = (
            cols.node_parent, cols.node_arc,
            cols.chain_hop_start, cols.hop_key, cols.hop_vertex, self._record_walks,
            n_original, range(max(map(len, indexes))),
        )
        # immutable once built, so queries stay safe from several threads
        self._plans = _descent_plans(n, self.records, self.tables)
        # the vertices distance queries accept: all original vertices
        self.query_vertices, self.face_vertices = _check_tables(cols, n_original, self._plans)

    # ------------------------------------------------------------------
    # queries

    def _checked(self, j, *vertex) -> int:
        """j as a plain int, once j and the vertex, if one is given, pass a
        query's checks; raises the first that fails."""
        if not isinstance(j, int) or isinstance(j, bool) or not 0 <= j < self.ring_count:
            raise BadRootIndexError(f"root index {j!r} not in [0, {self.ring_count})")
        for u in vertex:
            if type(u) is not int:
                # a bool or a float would otherwise hash as an int vertex
                raise FaceVertexQueryError(f"vertex {u!r} is not an int")
            if u in self.ring_roots:
                raise FaceVertexQueryError(f"vertex {u} is a ring vertex, not queryable")
            if u not in self.query_vertices:
                raise FaceVertexQueryError(f"vertex {u!r} is not in the graph")
        return int(j)

    def _descend(self, j: int, u: int, hits: list[tuple[int, int]]) -> tuple[int, int]:
        """Root j's descent, recording each record hit (key, vertex) in hits.

        Returns the rerouted vertex in the terminal table and the base of
        the distance. distance() runs the same loop inline, without hits,
        and calls this only to raise or to take an int subclass as j.
        """
        if not (
            type(j) is int and 0 <= j < self.ring_count
            and type(u) is int and u in self.query_vertices
        ):
            j = self._checked(j, u)
        _, keys, probes, index = self._plans[j]
        roots, bases = self._reroute
        acc = 0
        for key, entries in zip(keys, probes):
            e = entries.get(u)
            if e is not None:
                acc += bases[e]
                hits.append((key, u))
                u = roots[e]
        node = index.get(u)
        if node is None:
            raise CorruptFileError(f"table {j} holds no row for vertex {u}")
        return u, acc + bases[node]

    def distance(self, j: int, u: int):
        """Base distance from b_j to u in the original graph, or UNREACHABLE."""
        # _descend's check and loop, inline: one frame per answer
        if (
            type(j) is int and 0 <= j < self.ring_count
            and type(u) is int and u in self.query_vertices
        ):
            _, _, probes, index = self._plans[j]
            roots, bases = self._reroute
            v, acc = u, 0
            for entries in probes:
                e = entries.get(v)
                if e is not None:
                    acc += bases[e]
                    v = roots[e]
            node = index.get(v)
            if node is not None:
                acc += bases[node]
                return UNREACHABLE if acc >= self.w_big else acc
        # a failed check or a missing table row, which _descend raises, or
        # an int subclass as j, which it answers
        _, acc = self._descend(j, u, [])
        return UNREACHABLE if acc >= self.w_big else acc

    def descent_intervals(self, j: int) -> list[tuple[int, int]]:
        """The intervals a query for root j visits, outermost first."""
        return list(self._plans[self._checked(j)].intervals)

    def explain(self, j: int, u: int) -> Explanation:
        """How a query for (j, u) descends: intervals, record hits, probes."""
        hits: list[tuple[int, int]] = []
        self._descend(j, u, hits)
        plan = self._plans[j]
        return Explanation(
            list(plan.intervals),
            [((key >> 1, key & 1), v) for key, v in hits],
            plan.intervals[-1],
            len(plan.probes),
        )

    def query_path(self, j: int, u: int) -> list[int]:
        """Original arc ids of the unique shortest b_j-to-u path.

        An unreachable u raises UnreachableError before any walk.
        """
        hits: list[tuple[int, int]] = []
        v, base = self._descend(j, u, hits)
        if base >= self.w_big:
            raise UnreachableError(
                f"vertex {u} is not reachable from face vertex {self.face_vertices[j]}"
            )
        out: list[int] = []
        # a loaded file can name a vertex or record that is not there; its
        # arc ids and its spokes were checked at load
        try:
            # the terminal tree from r_j down to u, then each rerouting jump
            self._walk(self._table_walks[j], v, out)
            for key, v in reversed(hits):
                self._walk(self._record_walks[key], v, out)
        except KeyError as exc:
            raise CorruptFileError(f"path walk met an unknown id: {exc}") from exc
        except RecursionError as exc:
            # chains nest one level per record; only a damaged file nests deeper
            raise CorruptFileError("tail chains of the path expand into each other") from exc
        # the first arc is r_j's spoke
        return out[1:]

    def _walk(self, block: tuple, v: int, out: list[int]) -> None:
        """Append the arcs of a block's tree path from its root to vertex v.

        The root is the ring vertex for a table and v's record root for a
        record; v is never the root. The walk looks v up in the block's
        dict, its one probe, and climbs by parent offsets, each added to the
        block's first node, up to the node that holds its own offset, whose
        parent is the root, which no block holds. Load checked that every
        offset lies in its block. Each arc's tail chain, the (record,
        vertex) hops between the arc's tail at contraction time and its
        original tail, goes first, deepest hop first, each hop one walk of
        its record tree. A hop's walk appends at least one arc, so checking
        the path's length before each hop bounds a query to n_original hop
        walks, however a damaged file nests its chains.
        """
        index, first_node, first_chain, chains = block
        (parent, arc, hop_start, hop_key, hop_vertex, record_walks,
         most_arcs, bound) = self._walk_cols
        node = index[v]
        nodes = [node]
        for _ in bound:
            p = first_node + parent[node]
            if p == node:
                break
            node = p
            nodes.append(node)
        else:
            # only the parent pointers of a damaged file walk this far: a cycle
            b = bisect_right(self._cols.tree_start, first_node) - 1
            raise CorruptFileError(f"parent pointers of {_tree_name(self._cols, b)} cycle")
        nodes.reverse()
        # the block's chained nodes come first
        chained = first_node + chains
        for node in nodes:
            if node < chained:
                ch = first_chain + node - first_node
                h, last = hop_start[ch + 1], hop_start[ch]
                while h > last:
                    if len(out) >= most_arcs:
                        raise CorruptFileError(
                            f"tail chains expand the path past {most_arcs} arcs, the"
                            " most a path of the graph has"
                        )
                    h -= 1
                    self._walk(record_walks[hop_key[h]], hop_vertex[h], out)
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
        """The header values and every column of the file, as lists of ints;
        decode in tests/oracle_file.py gives them as one nested document."""
        return {
            **self._header(),
            **{name: getattr(self._cols, name).tolist() for name in _SECTIONS},
        }

    def _header(self) -> dict:
        """The file's header values, its sections aside."""
        return {
            "format": ORACLE_FORMAT,
            "version": ORACLE_VERSION,
            "n_original": self.n_original,
            "w_big": self.w_big,
            "seed": self.seed,
        }

    def save(self, sink) -> None:
        """Write the oracle file (format version 16) to a path or binary file object.

        Each column is written as it is held, at the narrowest typecode that
        holds its values, which build chose and load kept.
        """
        if hasattr(sink, "write"):
            self._write(sink.write)
        else:
            with open(sink, "wb") as fh:
                self._write(fh.write)

    def _write(self, write) -> None:
        cols = [getattr(self._cols, name) for name in _SECTIONS]
        if _SWAP:
            cols = [_swapped(col) for col in cols]
        header = self._header()
        header["sections"] = [
            [name, col.typecode, len(col), zlib.crc32(col)] for name, col in zip(_SECTIONS, cols)
        ]
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
        for name, item in zip(_SECTIONS, sections):
            if not (
                isinstance(item, list) and len(item) == 4 and item[0] == name
                and type(item[2]) is int and item[2] >= 0 and type(item[3]) is int
            ):
                raise CorruptFileError(f"bad header entry for section {name}: {item!r}")
            typecode = item[1]
            if type(typecode) is not str or typecode not in _WIDTH:
                raise CorruptFileError(
                    f"section {name} has typecode {typecode!r}, not one of 'h', 'i', 'q'"
                )
            end = pos + item[2] * _WIDTH[typecode]
            if end > len(raw):
                raise CorruptFileError(f"the file ends inside section {name}")
            with view[pos:end] as chunk:
                if zlib.crc32(chunk) != item[3]:
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
    """Column lengths and offsets agree, and no base is negative."""
    n = len(c.ring_roots)
    if n == 0:
        raise CorruptFileError("no ring roots; expected one or more")
    if len(c.arc_head) != len(c.arc_id):
        raise CorruptFileError("arc columns differ in length")
    start = c.tree_start
    k = len(c.record_key)
    tables = len(start) - 1 - k
    if tables != n:
        raise CorruptFileError(f"{tables} tables for {n} roots; expected one per root")
    nodes = len(c.node_arc)
    if any(len(col) != nodes for col in (c.node_base, c.node_parent)):
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
    # only. A descent reroutes on every record hit, so a root's entry would
    # add its delta to a distance
    if not _none_negative(c.node_base):
        raise CorruptFileError("a node has a negative base")
    # a walk adds its block's first node to each parent offset: every offset
    # must lie in its block
    sizes = list(map(sub, start[1:], start))
    if not (_none_negative(c.node_parent) and _below_block_sizes(c.node_parent, sizes)):
        b = next(
            b for b, (a, z) in enumerate(zip(start, start[1:]))
            if any(not 0 <= off < z - a for off in c.node_parent[a:z])
        )
        raise CorruptFileError(f"{_tree_name(c, b)}: a parent offset lies outside the block")


def _none_negative(col: array) -> bool:
    """No item of col is negative. An item's sign bit is in its most
    significant byte, the last of its w in native little-endian order: one
    C-level pass over those bytes, without an int per item."""
    w = col.itemsize
    return col.tobytes()[0 if _SWAP else w - 1::w].isascii()


# a byte with bit 7 flipped: a translated run is ASCII where each byte had it
_FLIP = bytes(range(128, 256)) + bytes(range(128))


def _below_block_sizes(col: array, sizes: list[int]) -> bool:
    """Each item of col, none negative, is below the size of its block,
    sizes giving the blocks' item counts in order.

    C-level passes over bytes and two big ints, without an int per item.
    Item i gets a lane of 2w bytes, for items of w bytes: one int holds
    its block's size - 1 + 2**(16w - 1) in each lane, another the item,
    and their difference borrows across no lane, as each lane's is in
    [0, 2**16w). A lane's top bit is set exactly where item <= size - 1.
    """
    w = col.itemsize
    lane, bias = 2 * w, 1 << 16 * w - 1
    per_block = [(size - 1 + bias).to_bytes(lane, "little") for size in sizes]
    tops = b"".join(map(mul, per_block, sizes))
    items = bytearray(len(tops))
    raw = (_swapped(col) if _SWAP else col).tobytes()
    for k in range(w):
        items[k::lane] = raw[k::w]
    lanes = int.from_bytes(tops, "little") - int.from_bytes(items, "little")
    return lanes.to_bytes(len(tops), "little")[lane - 1::lane].translate(_FLIP).isascii()


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
    except KeyError as exc:
        raise CorruptFileError(f"malformed header: {exc!r}") from exc
    if not all(type(x) is int for x in (n_original, w_big, seed)):
        raise CorruptFileError("n_original, w_big and seed must be ints")
    # normalize sets W_big = n * max_weight + 1, n >= 1, and admits it only
    # while 2 * n * W_big < 2**62
    if n_original < 1 or w_big < 1 or (w_big - 1) % n_original or n_original * w_big >> 61:
        raise CorruptFileError(f"n_original {n_original} and w_big {w_big} break normalize's rule")
    _check_columns(cols)
    return MsspOracle(n_original, w_big, seed, cols, None)


class _Store:
    """The trees a build stores, appended block by block as they are made
    to one build-wide array per column (_add), so that no block keeps an
    array or object of its own, and laid out in file order at the end
    (columns), which narrows each column once.

    The arrays are made at widths known before the recursion: the vertex
    columns and the parent offsets at that of the largest vertex id (a
    block holds fewer nodes than the graph has vertices), the arc column
    at that of the largest dart (an arc's id is its tail dart), the hop
    keys at that of 2N (a record key is below it), and the bases at that
    of n_original * W_big, which normalize's admission rule puts above
    every stored base.
    """

    def __init__(self, norm: NormalizedInstance):
        vertex = _narrowest(max(norm.graph.vertices()))
        self.parent, self.root, self.hop_vertex = (array(vertex) for _ in range(3))
        self.base = array(_narrowest(norm.n_original * norm.w_big))
        self.arc = array(_narrowest(len(norm.graph._at) - 1))
        # hops per chain: a chain has one hop per level at most
        self.chain_len = array("h")
        self.tables_from = 2 * len(norm.ring_roots)
        self.hop_key = array(_narrowest(self.tables_from))
        # per block, in the order added: its place in the file, a record's
        # key or tables_from plus a table's root, and CSR offsets of its
        # nodes, record roots (one per record member), chains and hops
        self.place = array("q")
        self.node_off, self.member_off, self.chain_off, self.hop_off = (
            array("q", [0]) for _ in range(4)
        )
        # BuildStats' counts of the nodes made into this store, per (level,
        # one of _LEVEL_COUNTS), and per level each arc's count of trees
        # (build's collect_edge_stats)
        self.counts: Counter[tuple[int, str]] = Counter()
        self.edges: dict[int, Counter] = {}

    def add_table(
        self, j: int, t: SSSPTree, at: list[int | None], chain_at: Callable[[int], TailChain]
    ) -> None:
        """Root j's table: the rows its run reached but its root, which are
        the rows that have a parent dart; at maps t's graph's darts to vertices.

        The rows left out are the interval's ring vertices: the root, which
        every walk stops at, and the others, which the run excluded. No
        query names them. chain_at gives a parent arc's tail chain.
        """
        kept = [d >= 0 for d in t.par_dart]
        self._add(
            self.tables_from + j,
            list(compress(t.base, kept)),
            # a tree arc's id is its tail dart, the reverse of the parent dart
            list(map(xor, compress(t.par_dart, kept), repeat(1))),
            at,
            chain_at,
        )

    def add_record(
        self,
        key: int,
        selected: list[SelectedTree],
        at: list[int | None],
        chain_at: Callable[[int], TailChain],
    ) -> None:
        """The record of the child keyed key: an entry per member of its
        trees, read before they are contracted; at maps their graph's darts
        to vertices."""
        base: list[int] = []
        arc: list[int] = []
        root: list[int] = []
        for tree in selected:
            # a member's tree arc leaves its parent along its dart's reverse
            arc += map(xor, islice(tree.dart, 1, None), repeat(1))
            base += islice(tree.dbase, 1, None)
            root += repeat(tree.root, len(tree.dart) - 1)
        self._add(key, base, arc, at, chain_at, root)

    def _add(self, place, base, arc, at, chain_at, root=None) -> None:
        """Append a tree's nodes in block order: those whose parent arc has
        a tail chain first, each part by ascending vertex. A node's vertex
        and parent are its arc's head and tail, at[arc ^ 1] and at[arc], in
        the graph the tree was made in; they order the nodes and give each
        parent's offset in the block, and neither is stored."""
        vertex = list(map(at.__getitem__, map(xor, arc, repeat(1))))
        chains = list(map(chain_at, arc))
        order: range | list[int] = range(len(vertex))
        if any(map(gt, vertex, islice(vertex, 1, None))):
            order = sorted(order, key=vertex.__getitem__)
        chained = [p for p in order if chains[p]]
        if chained:
            order = chained + [p for p in order if not chains[p]]

        def laid(values):
            return values if type(order) is range else map(values.__getitem__, order)

        # a parent's offset in the block; the block's root, which it does
        # not hold, is the parent of the nodes that hold their own offset
        offset = dict(zip(laid(vertex), count()))
        parents = map(at.__getitem__, laid(arc))
        parts = [
            (self.base, laid(base)), (self.parent, map(offset.get, parents, count())),
            (self.arc, laid(arc)),
        ]
        if root is not None:
            parts.append((self.root, laid(root)))
        for col, values in parts:
            col.extend(values)
        hops = list(chain.from_iterable(map(chains.__getitem__, chained)))
        self.chain_len.extend([len(chains[p]) >> 1 for p in chained])
        self.hop_key.extend(hops[0::2])
        self.hop_vertex.extend(hops[1::2])
        self.place.append(place)
        self.node_off.append(len(self.arc))
        self.member_off.append(len(self.root))
        self.chain_off.append(len(self.chain_len))
        self.hop_off.append(len(self.hop_key))

    def merge(self, other: _Store) -> None:
        """Append the blocks of other, a store of the same instance, after
        this store's own, and add its counts to this store's; each offset
        column continues from its last value."""
        self.counts.update(other.counts)
        for level, counter in other.edges.items():
            self.edges.setdefault(level, Counter()).update(counter)
        self.place += other.place
        for off, cols in (
            ("node_off", ("base", "parent", "arc")), ("member_off", ("root",)),
            ("chain_off", ("chain_len",)), ("hop_off", ("hop_key", "hop_vertex")),
        ):
            mine, theirs = getattr(self, off), getattr(other, off)
            mine.extend(map(mine[-1].__add__, islice(theirs, 1, None)))
            for col in cols:
                getattr(self, col).extend(getattr(other, col))

    def columns(self, norm: NormalizedInstance) -> _Columns:
        """The file's columns: the blocks in file order, records by key and
        then tables by root, each column at its narrowest; then the arcs the
        blocks name, read from the normalized graph, where an arc's id is
        its tail dart."""
        order = sorted(range(len(self.place)), key=self.place.__getitem__)

        def laid_out(col: array, off: array) -> array:
            out = array(col.typecode)
            for b in order:
                out += col[off[b]:off[b + 1]]
            return _fitted(out)

        def starts(off: array) -> array:
            return _fitted(list(accumulate((off[b + 1] - off[b] for b in order), initial=0)))

        c = _Columns()
        c.ring_roots = _fitted(norm.ring_roots)
        c.record_key = _fitted(sorted(p for p in self.place if p < self.tables_from))
        c.tree_start = starts(self.node_off)
        c.node_base = laid_out(self.base, self.node_off)
        c.node_parent = laid_out(self.parent, self.node_off)
        c.node_arc = laid_out(self.arc, self.node_off)
        c.record_root = laid_out(self.root, self.member_off)
        c.tree_chain_start = starts(self.chain_off)
        chain_len = laid_out(self.chain_len, self.chain_off)
        c.chain_hop_start = _fitted(list(accumulate(chain_len, initial=0)))
        c.hop_key = laid_out(self.hop_key, self.hop_off)
        c.hop_vertex = laid_out(self.hop_vertex, self.hop_off)

        ids = sorted(set(c.node_arc))
        at = norm.graph._at
        c.arc_id = _fitted(ids)
        c.arc_head = _fitted([at[d ^ 1] for d in ids])
        return c


# the counts of each level of BuildStats.per_level, which _Store counts
_LEVEL_COUNTS = ("nodes", "vertices", "tree_vertices", "contracted_vertices")

# The fewest vertices, ring vertices included, of a normalized graph whose
# build forks a worker (see build). Below it the fork, the worker's reply
# and the merge cost more than the second core saves. On a 2-core VM
# (grids on the outer face, min of 15 builds each way, twice; all runs in
# BENCH_36.json, in_process.break_even) forking saved 5 to 7 % at 188
# vertices in a 19 MB process. In one holding 320 MB, whose page tables
# fork copies, it broke even at 316 vertices (-1 and +2 %), saved 4 % at
# 392 and 13 to 18 % at 476.
_FORK_MIN_VERTICES = 400


def _can_fork(vertices: int) -> bool:
    """Whether build runs the root node's first child in a worker: the
    platform forks, two CPUs are usable, the caller has one thread (fork
    copies only the calling thread), the graph has vertices enough and
    no layer function is rebound (_layers_rebound)."""
    if not hasattr(os, "fork") or vertices < _FORK_MIN_VERTICES:
        return False
    if threading.active_count() > 1 or _layers_rebound():
        return False
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return (cpus or 1) >= 2


def _layers_rebound() -> bool:
    """Whether a layer function build calls is bound, where build calls it,
    to a function from outside the package. Such a wrapper (a tracer that
    times each layer, a test that counts calls) records into this process,
    and the calls a worker made would be lost to it."""
    from . import contraction

    layers = (
        out_adjacency, sssp_tree, inherit_tree, select_trees, contract_tree,
        contraction.shared_forest, EmbeddedDigraph.copy,
    )
    return not all(getattr(f, "__module__", "").startswith(f"{__package__}.") for f in layers)


class _Worker:
    """A forked process that runs one call and sends back what it gave.

    The process inherits the caller's memory, so the call takes no
    arguments, and it leaves only through os._exit (_serve), never through
    the caller's frames. join() reads the reply, reaps the process and
    returns the call's result or re-raises its exception; kill() ends and
    reaps a process that join() has not reaped. One of the two must run
    before the caller returns.
    """

    def __init__(self, call: Callable[[], object]):
        read, write = os.pipe()
        try:
            self.pid = os.fork()
        except OSError:
            os.close(read)
            os.close(write)
            raise
        if self.pid == 0:
            try:
                os.close(read)
                _serve(call, write)
            finally:
                os._exit(1)
        self.rusage = None  # os.wait4's, once the process is reaped
        try:
            os.close(write)
            self._pipe = os.fdopen(read, "rb")
        except BaseException:
            # the caller is not handed a worker to kill: end it here
            self._end()
            raise

    def _end(self) -> None:
        os.kill(self.pid, signal.SIGKILL)
        _, _, self.rusage = os.wait4(self.pid, 0)

    def join(self) -> object:
        # pickle and traceback are imported where a build forks: a process
        # that only loads and queries oracles is 0.5 MB smaller without them
        import pickle

        with self._pipe:
            reply = self._pipe.read()
        _, status, self.rusage = os.wait4(self.pid, 0)
        code = os.waitstatus_to_exitcode(status)
        if code:
            how = f"killed by signal {-code}" if code < 0 else f"exit status {code}"
            raise MsspError(f"the build's worker process ended without a result ({how})")
        # the bytes _serve wrote, in a process this one forked
        result, error = pickle.loads(reply)
        if error is not None:
            pickled, text, trace = error
            try:
                exc = pickle.loads(pickled)
            except Exception:
                exc = None
            if not isinstance(exc, BaseException):
                raise MsspError(f"the build's worker process raised {text}")
            if hasattr(exc, "add_note"):  # Python 3.11 on
                exc.add_note(f"raised in the build's worker process:\n{trace}")
            raise exc
        return result

    def kill(self) -> None:
        """SIGKILL and reap the process, unless join() has reaped it."""
        if self.rusage is None:
            self._end()
        self._pipe.close()


def _serve(call: Callable[[], object], fd: int) -> NoReturn:
    """In a worker: run call and write to fd, pickled, (result, error),
    the error None or (the exception pickled, or None if it does not
    pickle; its repr; its traceback); then exit, 0 once the reply is
    written."""
    code = 1
    try:
        import pickle
        import traceback

        try:
            result, error = call(), None
        except BaseException as exc:
            try:
                pickled = pickle.dumps(exc)
            except Exception:
                pickled = None
            result, error = None, (pickled, repr(exc), traceback.format_exc())
        with os.fdopen(fd, "wb") as pipe:
            pipe.write(pickle.dumps((result, error)))
        code = 0
    finally:
        os._exit(code)


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

    Two arcs from a contracted tree's root to one neighbour with equal
    (base, perturb) weights raise PerturbationTieError.

    When the root node has two children, the first child made and its
    subtree are built in a worker process (os.fork), alongside the second
    child in this one, if the platform forks, at least two CPUs are usable
    (os.sched_getaffinity), the caller runs a single thread, the
    normalized graph has at least _FORK_MIN_VERTICES vertices and none of
    the layer functions build calls (out_adjacency, sssp_tree,
    inherit_tree, select_trees, contract_tree, shared_forest,
    EmbeddedDigraph.copy) is rebound to a wrapper from outside the
    package, which would not see the worker's calls; otherwise all of it
    runs here, as it does when os.fork raises OSError. The worker returns
    its store, whose blocks are rebased onto the parent's and whose counts
    are added to the parent's when merged. The oracle, its saved bytes and
    its stats are the same either way, but stats.worker_cpu_seconds and
    stats.worker_peak_rss_mb, which report the worker and are None for a
    build in one process. An exception in the worker is raised here with
    its type and message (MsspError with its repr if it does not pickle),
    and a worker that ends without a result raises MsspError naming its
    exit status. build neither returns nor raises while its worker runs or is
    unreaped: on any exception, KeyboardInterrupt too, it kills the worker
    (SIGKILL) and reaps it.
    """
    t0 = time.perf_counter()
    ring_roots = norm.ring_roots
    ring_vertex_set = set(ring_roots)
    n_rings = len(ring_roots)
    store = _Store(norm)
    absorbed_at: dict[int, tuple[int, int]] = {}  # vertex -> (record key, its root)
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
        for name in ("base", "pert", "par_dart"):
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

    def rec(node: _Node, h: EmbeddedDigraph, parent_trees: dict[int, SSSPTree]) -> None:
        nonlocal worker
        i1, i2 = node.interval
        level, children = node.level, node.children
        adj = out_adjacency(h)
        snap = adj.snap
        vertices = snap.vertices
        store.counts[level, "nodes"] += 1
        store.counts[level, "vertices"] += len(vertices)
        excluded_all = {ring_roots[k] for k in range(i1, i2 + 1)}
        trees: dict[int, SSSPTree] = {}
        for k in node.trees:
            rk = ring_roots[k]
            if k in parent_trees:
                trees[k] = inherit_tree(parent_trees[k], snap)
                if instrument:
                    check_inherited(h, k, excluded_all - {rk}, trees[k], adj)
            else:
                trees[k] = sssp_tree(h, rk, excluded_all - {rk}, adj=adj)
            store.counts[level, "tree_vertices"] += trees[k].reached
        # the parent's trees are inherited: drop them
        parent_trees.clear()
        if collect_edge_stats:
            counter = store.edges.setdefault(level, Counter())
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
            store.add_table(k, trees[k], h._at, chain_at)
        if not children:
            return
        del snap, vertices
        # a tree goes once no child still to be made reads it: a child
        # reads its endpoints' trees
        last_reader = {k: n for n, interval in enumerate(children) for k in interval}
        for k in trees.keys() - last_reader.keys():
            del trees[k]

        def make(child: _Node, handed: dict[int, SSSPTree], last: bool) -> None:
            """Make child's graph from h, store its record, then build its
            subtree from the trees handed to it. The last child takes h over."""
            j1, j2 = child.interval
            drop = [ring_roots[k] for k in range(i1, i2 + 1) if not j1 <= k <= j2]
            if last:
                h._drop_vertices(drop)
                hj = h
            else:
                hj = h.copy(drop)
            selected = select_trees(hj, handed[j1], handed[j2])
            if instrument:
                before = check_selected(hj, j1, j2, selected)
            if selected:
                # each tree arc's tail and chain as of the contraction, before
                # the merge and before this child's members join absorbed_at
                store.add_record(child.key, selected, hj._at, chain_at)
            # where each vertex contracted away went, for tail chains: its
            # record and its tree's root
            moved: dict[int, tuple[int, int]] = {}
            for tree in selected:
                moved.update(zip(islice(tree.vertex, 1, None), repeat((child.key, tree.root))))
            contract_tree(hj, selected)
            del selected
            if instrument:
                check_child(hj, j1, j2, before)
                del before
            # into store as bound now: a worker counts the root node's
            # first child into its own (in_worker)
            store.counts[level, "contracted_vertices"] += len(moved)
            absorbed_at.update(moved)
            rec(child, hj, handed)
            for u in moved:
                del absorbed_at[u]

        for n, (j1, j2) in enumerate(children):
            child = next(schedule)
            handed = {j1: trees[j1], j2: trees[j2]}
            for k in [k for k in trees if last_reader[k] == n]:
                del trees[k]
            if forks and level == 0 and n < len(children) - 1:
                try:
                    # the worker's copy of h is its own: its child takes it over
                    worker = _Worker(lambda: in_worker(lambda: make(child, handed, True)))
                except OSError:
                    pass  # no process to spare: the child is made here
                else:
                    # pass over the worker's subtree: its nodes come next
                    owed = len(child.children)
                    while owed:
                        owed += len(next(schedule).children) - 1
                    continue
            make(child, handed, n == len(children) - 1)

    def in_worker(make_child: Callable[[], None]) -> _Store:
        """Run make_child in the worker, into a store of its own, and return
        it for the parent to merge."""
        nonlocal store
        store = _Store(norm)
        make_child()
        return store

    forks = _can_fork(norm.graph.vertex_count)
    worker: _Worker | None = None
    with _gc_paused():
        try:
            rec(next(schedule), norm.graph.copy(), {})
            if worker is not None:
                store.merge(worker.join())
        finally:
            # on any failure, KeyboardInterrupt too, no worker outlives build
            if worker is not None:
                worker.kill()
        # rec holds itself through its closure cell; emptying the cell lets
        # reference counting free the working graphs, not a later GC pass
        del rec
        cols = store.columns(norm)
        counts, edges = store.counts, store.edges
        del store
    per_level = [
        {"level": level, **{c: counts[level, c] for c in _LEVEL_COUNTS}}
        for level in range(1 + max(level for level, _ in counts))
    ]
    if collect_edge_stats:
        for level, counter in edges.items():
            per_level[level]["tree_arc_max"] = max(counter.values()) if counter else 0
    record_entries = len(cols.record_root)
    stats = BuildStats(
        norm.n_original, n_rings, node_count=sum(lvl["nodes"] for lvl in per_level),
        max_level=len(per_level) - 1, stored_rows=len(cols.node_arc) - record_entries,
        record_entries=record_entries, chain_elements=len(cols.hop_key), per_level=per_level,
    )
    if worker is not None:
        usage = worker.rusage
        stats.worker_cpu_seconds = usage.ru_utime + usage.ru_stime
        # ru_maxrss is in kB, but in bytes on macOS
        stats.worker_peak_rss_mb = usage.ru_maxrss / (1 << 20 if sys.platform == "darwin" else 1024)
    stats.build_seconds = time.perf_counter() - t0
    return MsspOracle(norm.n_original, norm.w_big, norm.seed, cols, stats)
