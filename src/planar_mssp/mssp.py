"""The multi-source shortest path oracle.

Build recursion over root intervals [i1, i2]: compute shortest path trees
from the interval's endpoints and midpoint, then for each half restrict the
graph to the half's own ring vertices, contract every tree selected by the
clockwise rule, record where each contracted vertex went, and recurse. The
intervals follow from the ring count alone, so they are not stored.
Records are keyed by (midpoint, side); midpoints are unique across the
recursion, and the side distinguishes the two children, which may contract
different trees through the same vertex. Inside the oracle a key is the
int 2 * midpoint + side.

A distance query walks root-to-leaf through the intervals containing j,
rerouting u through the records (u becomes its super-vertex, the in-tree
delta accumulates) until j is an interval endpoint, then reads j's tree at
that terminal node. That tree is the only one stored for j: a node keeps
the tables of the roots whose descent ends there, one table per root in
all, and its other trees serve only its own tree selection. The walk
depends on j alone, so each root's descent is planned once, when the
oracle is built or loaded: the record tables along it in order, and j's
table. A query follows its root's plan (MsspOracle._descend), and
explain() reports the same descent. A path query additionally replays the
walk's record hits and the terminal tree walk, expanding every arc's tail
chain — the precomputed list of (record, vertex) hops between the arc's
tail at contraction time and its original tail — deepest hop first, which
yields original arc ids in path order with O(1) record probes per
reported arc.

Everything stored is flat columns (_Columns), built and loaded alike: the
rows of all root tables concatenated in root order, the entries of all
record tables concatenated in key order, and their tail chains as CSR
offset and hop arrays. Bases are int64 (-1 = unreached); perturbations
are split at bit 60 into an int64 low and an int32 high half, so sums of
63-bit perturbations along long paths still fit. The only per-entry
Python objects are the vertex -> row and vertex -> entry dicts, made with
dict(zip(...)) over the columns; they hold ints only, so the garbage
collector does not track them. The build fills its columns from the
Dijkstra columns of the trees it stores (one row snapshot per node,
sssp.out_adjacency) and from each child's record dict once that child's
contraction ends, and each node looks up a tail chain at most once per
original tail.

The oracle file is format "planar-mssp-oracle", version 4, little-endian:

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
table per root, rooted at its own ring vertex, over vertices of table 0,
with no vertex listed twice, chain rows inside their tables, and that
every parent and record arc id is in the arc table. Path queries bound
every parent walk, and raise CorruptFileError, not KeyError, when a
damaged file names a vertex or record it does not hold. The plans and the
dicts are not part of the file. to_json() gives the same content as one
logical JSON document, for tests and tools.
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
from dataclasses import dataclass, field
from itertools import accumulate, chain, compress
from operator import gt, itemgetter
from typing import Iterable, Iterator, NamedTuple

from .contraction import RecordEntry, TailChain, contract_tree, select_trees
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
from .normalize import (
    ARC_ORIGINAL,
    ARC_REVERSE,
    ARC_SPOKE,
    UNREACHABLE,
    ArcInfo,
    NormalizedInstance,
)
from .sssp import SSSPTree, out_adjacency, sssp_tree
from .weights import LexWeight

ORACLE_FORMAT = "planar-mssp-oracle"
ORACLE_VERSION = 4

_PERT_SHIFT = 60
_PERT_MASK = (1 << _PERT_SHIFT) - 1

RecordKey = tuple[int, int]  # (midpoint, side); side 0 = left child

_MAGIC = b"\x89MSSP\r\n\x1a"
_PRELUDE = struct.Struct("<8sII")  # magic, header length, header crc32
_WIDTH = {"b": 1, "i": 4, "q": 8}
if any(array(tc).itemsize != w for tc, w in _WIDTH.items()):
    raise ImportError("array typecodes 'b', 'i', 'q' must be 1, 4 and 8 bytes wide")
_SWAP = sys.byteorder != "little"
# arc kinds by their code in the arc_kind column
_KINDS = (ARC_ORIGINAL, ARC_REVERSE, ARC_SPOKE)

# Every column, in file order: (name, typecode). N roots, A arcs, R table
# rows, C table chains, K record tables, E record entries; "start"
# columns are CSR offsets, one more than the items they divide.
_SECTIONS = (
    ("ring_roots", "i"),  # N ring vertices r_j
    ("face_vertices", "i"),  # N face vertices b_j
    ("arc_id", "i"),  # A, increasing
    ("arc_tail", "i"),
    ("arc_head", "i"),
    ("arc_base", "q"),
    ("arc_perturb", "q"),
    ("arc_kind", "b"),  # index into _KINDS
    ("table_start", "i"),  # N + 1: root j's rows
    ("row_vertex", "i"),  # R, ascending within a table
    ("row_base", "q"),
    ("row_plo", "q"),
    ("row_phi", "i"),
    ("row_par_v", "i"),  # -1 at the root and where unreached
    ("row_par_arc", "i"),  # -1 likewise
    ("table_chain_start", "i"),  # N + 1: root j's chains
    ("chain_row", "i"),  # C, the chain's row within its table, ascending
    ("chain_hop_start", "i"),  # C + 1: each chain's hops
    ("row_hop_key", "i"),  # record key of each hop, innermost hop first
    ("row_hop_vertex", "i"),
    ("record_key", "i"),  # K, increasing
    ("record_start", "i"),  # K + 1: each record table's entries
    ("entry_vertex", "i"),  # E, ascending within a record table
    ("entry_root", "i"),
    ("entry_dbase", "q"),  # in-tree delta from the root
    ("entry_dplo", "q"),
    ("entry_dphi", "i"),
    ("entry_parent", "i"),  # -1 at the root
    ("entry_arc", "i"),  # -1 at the root
    ("entry_hop_start", "i"),  # E + 1: each entry's tail chain
    ("entry_hop_key", "i"),
    ("entry_hop_vertex", "i"),
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


def _descent_plans(
    ring_count: int,
    records: dict[int, dict[int, int]],
    tables: list[dict[int, int]],
) -> list[_Plan]:
    """Every root's descent plan, by one walk over the interval tree.

    A query for root j halves the interval toward j until j is an endpoint;
    that path depends on j alone, so it is worked out here once. A root
    ends its descent at the first interval that has it as an endpoint; a
    midpoint, endpoint of both children, goes to the left one, which the
    depth-first walk visits first. The intervals follow from ring_count
    alone, so the walk looks up only record tables and tables[j].
    """
    plans: list[_Plan | None] = [None] * ring_count
    # (interval, intervals above it, record steps above it); a stack, not a
    # nested recursive function, whose closure cycle would keep the tables
    # alive after the oracle is gone, until a GC pass
    stack = [(0, ring_count - 1, (), ())]
    while stack:
        i1, i2, intervals, steps = stack.pop()
        intervals = (*intervals, (i1, i2))
        for j in (i1, i2):
            if plans[j] is None:
                plans[j] = _Plan(intervals, steps, tables[j])
        if i2 - i1 <= 1:
            continue
        mid = (i1 + i2) // 2
        for side, (j1, j2) in ((1, (mid, i2)), (0, (i1, mid))):  # left on top
            key = 2 * mid + side
            table = records.get(key)
            stack.append(
                (j1, j2, intervals, steps if table is None else (*steps, (key, table)))
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

    def level_entry(self, level: int) -> dict:
        while len(self.per_level) <= level:
            self.per_level.append(
                {
                    "level": len(self.per_level),
                    "nodes": 0,
                    "vertices": 0,
                    "slots": 0,
                    "arcs": 0,
                    "tree_vertices": 0,
                    "tree_arcs": 0,
                    "record_entries": 0,
                    "contracted_vertices": 0,
                }
            )
        if level > self.max_level:
            self.max_level = level
        return self.per_level[level]

    def to_json(self) -> dict:
        return {
            "n_original": self.n_original,
            "ring_count": self.ring_count,
            "node_count": self.node_count,
            "max_level": self.max_level,
            "build_seconds": self.build_seconds,
            "stored_rows": self.stored_rows,
            "record_entries": self.record_entries,
            "chain_elements": self.chain_elements,
            "per_level": self.per_level,
        }

    @classmethod
    def from_json(cls, doc: dict) -> "BuildStats":
        out = cls(doc["n_original"], doc["ring_count"])
        out.node_count = doc["node_count"]
        out.max_level = doc["max_level"]
        out.build_seconds = doc["build_seconds"]
        out.stored_rows = doc["stored_rows"]
        out.record_entries = doc["record_entries"]
        out.chain_elements = doc["chain_elements"]
        out.per_level = doc["per_level"]
        return out


def _table_indexes(c: _Columns, n_original: int) -> list[dict[int, int]]:
    """Each root's vertex -> row dict, checking what a query relies on.

    Every table must hold its own ring vertex at distance 0, list no
    vertex twice, and list only vertices of table 0, the root node's tree,
    which holds every vertex.
    """
    start = c.table_start
    vertex = c.row_vertex
    base = c.row_base
    tables: list[dict[int, int]] = []
    for j, r in enumerate(c.ring_roots):
        a, b = start[j], start[j + 1]
        index = dict(zip(vertex[a:b], range(a, b)))
        if len(index) != b - a:
            # a repeated vertex would read another vertex's row
            raise CorruptFileError(f"table {j}: a vertex is listed twice")
        row = index.get(r)
        if row is None:
            raise CorruptFileError(f"table {j} lacks its ring root {r}")
        if base[row] != 0:
            raise CorruptFileError(
                f"table {j} is not rooted at its labelled root {j}'s ring vertex {r}"
            )
        if j == 0:
            if b - a != n_original + len(c.ring_roots):
                raise CorruptFileError(
                    f"table 0 has {b - a} rows, not one per vertex"
                    f" ({n_original} + {len(c.ring_roots)})"
                )
        elif not index.keys() <= tables[0].keys():
            stray = min(index.keys() - tables[0].keys())
            raise CorruptFileError(
                f"table {j} lists vertex {stray}, which table 0 does not hold"
            )
        tables.append(index)
    return tables


def _chain_rows(c: _Columns) -> dict[int, int]:
    """Table row (a row of the table columns) -> its chain, checking the rows."""
    start = c.table_start
    cstart = c.table_chain_start
    rows = c.chain_row
    chain_of: dict[int, int] = {}
    for j in range(len(c.ring_roots)):
        c0, c1 = cstart[j], cstart[j + 1]
        if c0 == c1:
            continue
        here = rows[c0:c1]
        a = start[j]
        if min(here) < 0 or max(here) >= start[j + 1] - a:
            raise CorruptFileError(f"table {j}: chain row out of range")
        chain_of.update(zip(map(a.__add__, here), range(c0, c1)))
        if len(chain_of) != c1:
            raise CorruptFileError(f"table {j}: a chain row is listed twice")
    return chain_of


def _record_indexes(c: _Columns) -> dict[int, dict[int, int]]:
    """Record key -> (vertex -> entry), checking that no vertex repeats."""
    start = c.record_start
    vertex = c.entry_vertex
    records: dict[int, dict[int, int]] = {}
    for pos, key in enumerate(c.record_key):
        a, b = start[pos], start[pos + 1]
        index = records[key] = dict(zip(vertex[a:b], range(a, b)))
        if len(index) != b - a:
            raise CorruptFileError(f"record {key >> 1, key & 1}: a vertex is listed twice")
    if len(records) != len(c.record_key):
        raise CorruptFileError("a record key is listed twice")
    return records


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
        "_row_base",
        "_entry_reroute",
        "_row_walk",
        "_entry_walk",
        "_ring_set",
        "_query_vertices",
        "_spokes",
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
        self.ring_count = len(self.ring_roots)
        self._ring_set = frozenset(self.ring_roots)
        # per root, its table's vertex -> row (a row of the table columns)
        self.tables = _table_indexes(cols, n_original)
        # record key (2 * midpoint + side) -> vertex -> entry
        self.records = _record_indexes(cols)
        # the columns each query reads, bound once
        self._row_base = cols.row_base
        self._entry_reroute = (cols.entry_root, cols.entry_dbase)
        self._row_walk = (
            cols.row_par_v, cols.row_par_arc, _chain_rows(cols), cols.chain_hop_start,
            cols.row_hop_key, cols.row_hop_vertex,
        )
        self._entry_walk = (
            cols.entry_root, cols.entry_parent, cols.entry_arc, cols.entry_hop_start,
            cols.entry_hop_key, cols.entry_hop_vertex,
        )
        # root 0's table is the root node's tree, over every vertex
        self._query_vertices = frozenset(self.tables[0]) - self._ring_set
        spoke = _KINDS.index(ARC_SPOKE)
        self._spokes = frozenset(compress(cols.arc_id, map(spoke.__eq__, cols.arc_kind)))
        self._arcs: dict[int, ArcInfo] | None = None
        # immutable once built, so queries stay safe from several threads
        self._plans = _descent_plans(self.ring_count, self.records, self.tables)

    @property
    def query_vertices(self) -> frozenset[int]:
        """The vertices distance queries accept: all original vertices."""
        return self._query_vertices

    @property
    def arcs(self) -> dict[int, ArcInfo]:
        """Arc id -> ArcInfo of the normalized graph, made on first use."""
        arcs = self._arcs
        if arcs is None:
            c = self._cols
            infos = map(
                ArcInfo, c.arc_tail, c.arc_head, c.arc_base, c.arc_perturb,
                map(_KINDS.__getitem__, c.arc_kind),
            )
            arcs = self._arcs = dict(zip(c.arc_id, infos))
        return arcs

    # ------------------------------------------------------------------
    # queries

    def _descend(
        self, j: int, u: int, hits: list[tuple[int, int, int]] | None = None
    ) -> tuple[int, int]:
        """The one query descent: reroute u along root j's plan.

        Returns u's row in the terminal table and the base of the distance.
        Appends each record hit (key, vertex, entry) to hits when given;
        the perturbation of the distance adds up the hits' entries.
        """
        if not isinstance(j, int) or isinstance(j, bool) or not 0 <= j < self.ring_count:
            raise BadRootIndexError(f"root index {j!r} not in [0, {self.ring_count})")
        _, steps, index = self._plans[j]
        if u not in self._query_vertices:
            if u in self._ring_set:
                raise FaceVertexQueryError(f"vertex {u} is a ring vertex, not queryable")
            raise FaceVertexQueryError(f"vertex {u!r} is not in the graph")
        acc = 0
        if steps:
            roots, dbase = self._entry_reroute
            for key, entries in steps:
                e = entries.get(u)
                if e is not None:
                    root = roots[e]
                    if root != u:
                        acc += dbase[e]
                        if hits is not None:
                            hits.append((key, u, e))
                        u = root
        row = index.get(u)
        base = -1 if row is None else self._row_base[row]
        if base < 0:
            raise CorruptFileError(f"table {j} holds no reached row for vertex {u}")
        return row, acc + base

    def query_dist(self, j: int, u: int) -> LexWeight:
        """Exact normalized-graph distance from r_j to u as a LexWeight.

        Apply map_answer (or use distance()) to interpret the result in
        original-graph terms.
        """
        hits: list[tuple[int, int, int]] = []
        row, base = self._descend(j, u, hits)
        c = self._cols
        lo = c.row_plo[row] + sum(c.entry_dplo[e] for _, _, e in hits)
        hi = c.row_phi[row] + sum(c.entry_dphi[e] for _, _, e in hits)
        return LexWeight(base, (hi << _PERT_SHIFT) + lo)

    def distance(self, j: int, u: int):
        """Base distance from b_j to u in the original graph, or UNREACHABLE."""
        _, base = self._descend(j, u)
        return UNREACHABLE if base >= self.w_big else base

    def descent_intervals(self, j: int) -> list[tuple[int, int]]:
        """The intervals a query for root j visits, outermost first."""
        if not isinstance(j, int) or isinstance(j, bool) or not 0 <= j < self.ring_count:
            raise BadRootIndexError(f"root index {j!r} not in [0, {self.ring_count})")
        return list(self._plans[j].intervals)

    def explain(self, j: int, u: int) -> Explanation:
        """How a query for (j, u) descends: intervals, record hits, probes."""
        hits: list[tuple[int, int, int]] = []
        self._descend(j, u, hits)
        plan = self._plans[j]
        return Explanation(
            list(plan.intervals),
            [((key >> 1, key & 1), v) for key, v, _ in hits],
            plan.intervals[-1],
            len(plan.steps),
        )

    def query_path(self, j: int, u: int) -> list[int]:
        """Original arc ids of the unique shortest b_j-to-u path."""
        path, _ = self._query_path_counted(j, u)
        return path

    def _query_path_counted(self, j: int, u: int) -> tuple[list[int], int]:
        """query_path plus the number of record/table entry probes used."""
        hits: list[tuple[int, int, int]] = []
        row, base = self._descend(j, u, hits)
        if base >= self.w_big:
            raise UnreachableError(
                f"vertex {u} is not reachable from face vertex {self.face_vertices[j]}"
            )
        plan = self._plans[j]
        probes = len(plan.steps)
        index = plan.index
        par_v, par_arc, chain_of, hop_start, hop_key, hop_vertex = self._row_walk
        expand = self._expand_record
        out: list[int] = []
        # a loaded file can name a vertex or record that is not there; its
        # arc ids were checked at load
        try:
            # terminal tree walk from r_j down to u's row
            root_row = index[self.ring_roots[j]]
            rows: list[int] = []
            # a tree path has fewer arcs than the table has rows; a longer
            # walk means the parent pointers of a loaded file form a cycle
            limit = probes + len(index)
            while row != root_row:
                probes += 1
                if probes > limit:
                    raise CorruptFileError(f"parent pointers of table {j} cycle")
                rows.append(row)
                row = index[par_v[row]]
            for row in reversed(rows):
                ch = chain_of.get(row)
                if ch is not None:
                    # the tail chain's hops, deepest (last) first
                    first, h = hop_start[ch], hop_start[ch + 1]
                    while h > first:
                        h -= 1
                        probes += expand(hop_key[h], hop_vertex[h], out)
                out.append(par_arc[row])
            for key, vert, _ in reversed(hits):
                probes += expand(key, vert, out)
        except KeyError as exc:
            raise CorruptFileError(f"path walk met an unknown id: {exc}") from exc
        except RecursionError as exc:
            # chains nest one level per record; only a damaged file nests deeper
            raise CorruptFileError("tail chains of the path expand into each other") from exc
        if not (out and out[0] in self._spokes):
            raise MsspError("internal: reported path does not start at the ring")
        return out[1:], probes

    def _expand_record(self, key: int, vert: int, out: list[int]) -> int:
        """Append arcs of the record tree path root -> vert; returns probes."""
        entries = self.records[key]
        e = entries[vert]
        roots, parents, arcs, hop_start, hop_key, hop_vertex = self._entry_walk
        root = roots[e]
        if vert == root:
            return 1
        probes = 1
        seq = [e]
        v = parents[e]
        limit = len(entries)
        while v != root:
            e = entries[v]
            probes += 1
            if probes > limit:
                raise CorruptFileError(f"parent pointers of record {key >> 1, key & 1} cycle")
            seq.append(e)
            v = parents[e]
        expand = self._expand_record
        for e in reversed(seq):
            # the entry arc's tail chain, deepest hop (last) first
            first, h = hop_start[e], hop_start[e + 1]
            while h > first:
                h -= 1
                probes += expand(hop_key[h], hop_vertex[h], out)
            out.append(arcs[e])
        return probes

    # ------------------------------------------------------------------
    # introspection and persistence

    def trace(self) -> dict:
        """Recursion structure as a plain dict, for external plotting.

        The nodes follow from ring_count, level by level and left to right;
        "roots" are the trees a node ran, not the tables it stored.
        """
        nodes = []
        level = 0
        intervals = [(0, self.ring_count - 1)]
        while intervals:
            below = []
            for i1, i2 in intervals:
                mid = (i1 + i2) // 2
                nodes.append(
                    {"i1": i1, "i2": i2, "level": level, "roots": sorted({i1, mid, i2})}
                )
                if i2 - i1 > 1:
                    below += [(i1, mid), (mid, i2)]
            intervals = below
            level += 1
        recs = [
            {"midpoint": key >> 1, "side": key & 1, "entries": len(tab)}
            for key, tab in sorted(self.records.items())
        ]
        return {"ring_count": self.ring_count, "nodes": nodes, "records": recs}

    def to_json(self) -> dict:
        """The oracle's content as one logical JSON document.

        Version 3's document with version 4: header values, "arcs" as
        [id, tail, head, base, perturb, kind], "tables" as one
        [j, vertices, base, plo, phi, par_v, par_arc, chains] per root, where
        chains lists [row, [[midpoint, side, vertex], ...]], and "records" as
        [midpoint, side, entries] per record table, each entry
        [vertex, root, delta base, delta perturb, parent, arc, chain]. Tests
        and tools read it; save() writes the columns instead.
        """
        c = self._cols

        def hops(keys: array, verts: array, a: int, b: int) -> list[list[int]]:
            return [[keys[h] >> 1, keys[h] & 1, verts[h]] for h in range(a, b)]

        tables = []
        for j in range(self.ring_count):
            a, b = c.table_start[j], c.table_start[j + 1]
            chains = [
                [c.chain_row[ch],
                 hops(c.row_hop_key, c.row_hop_vertex,
                      c.chain_hop_start[ch], c.chain_hop_start[ch + 1])]
                for ch in range(c.table_chain_start[j], c.table_chain_start[j + 1])
            ]
            tables.append(
                [j, *(col[a:b].tolist() for col in (
                    c.row_vertex, c.row_base, c.row_plo, c.row_phi, c.row_par_v,
                    c.row_par_arc)), chains]
            )
        records = []
        for pos, key in enumerate(c.record_key):
            entries = [
                [c.entry_vertex[e], c.entry_root[e], c.entry_dbase[e],
                 (c.entry_dphi[e] << _PERT_SHIFT) | c.entry_dplo[e],
                 c.entry_parent[e], c.entry_arc[e],
                 hops(c.entry_hop_key, c.entry_hop_vertex,
                      c.entry_hop_start[e], c.entry_hop_start[e + 1])]
                for e in range(c.record_start[pos], c.record_start[pos + 1])
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
                [aid, *info] for aid, info in self.arcs.items()
            ],
            "stats": self.stats.to_json(),
            "tables": tables,
            "records": records,
        }

    def save(self, sink) -> None:
        """Write the oracle file (format version 4) to a path or binary file object."""
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
        raise CorruptFileError("the header does not list the version 4 sections")
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
    """Column lengths and offsets agree, and every arc id is known."""
    n = len(c.ring_roots)
    if n == 0 or len(c.face_vertices) != n:
        raise CorruptFileError(
            f"{n} ring roots and {len(c.face_vertices)} face vertices; expected"
            " one or more of each, as many of one as of the other"
        )
    if len(set(c.ring_roots)) != n:
        raise CorruptFileError("a ring root is listed twice")
    arcs = len(c.arc_id)
    if any(len(col) != arcs for col in (
        c.arc_tail, c.arc_head, c.arc_base, c.arc_perturb, c.arc_kind
    )):
        raise CorruptFileError("arc columns differ in length")
    if arcs and not 0 <= min(c.arc_kind) <= max(c.arc_kind) < len(_KINDS):
        raise CorruptFileError("an arc kind is out of range")
    if len(c.table_start) != n + 1:
        raise CorruptFileError(
            f"{len(c.table_start) - 1} tables for {n} roots; expected one per root"
        )
    rows = len(c.row_vertex)
    if any(len(col) != rows for col in (
        c.row_base, c.row_plo, c.row_phi, c.row_par_v, c.row_par_arc
    )):
        raise CorruptFileError(f"the table columns do not all have the {rows} rows")
    _check_offsets(c.table_start, rows, "table rows")
    if len(c.table_chain_start) != n + 1:
        raise CorruptFileError("table chain offsets do not have one entry per root")
    _check_offsets(c.table_chain_start, len(c.chain_row), "table chains")
    if len(c.chain_hop_start) != len(c.chain_row) + 1:
        raise CorruptFileError("chain hop offsets do not have one entry per chain")
    if len(c.row_hop_vertex) != len(c.row_hop_key):
        raise CorruptFileError("table chain hop columns differ in length")
    _check_offsets(c.chain_hop_start, len(c.row_hop_key), "table chain hops")
    if len(c.record_start) != len(c.record_key) + 1:
        raise CorruptFileError("record offsets do not have one entry per record table")
    entries = len(c.entry_vertex)
    if any(len(col) != entries for col in (
        c.entry_root, c.entry_dbase, c.entry_dplo, c.entry_dphi, c.entry_parent,
        c.entry_arc,
    )):
        raise CorruptFileError(f"the record columns do not all have the {entries} entries")
    _check_offsets(c.record_start, entries, "record entries")
    if len(c.entry_hop_start) != entries + 1:
        raise CorruptFileError("record chain offsets do not have one entry per entry")
    if len(c.entry_hop_vertex) != len(c.entry_hop_key):
        raise CorruptFileError("record chain hop columns differ in length")
    _check_offsets(c.entry_hop_start, len(c.entry_hop_key), "record chain hops")
    known = set(c.arc_id)
    if len(known) != arcs:
        raise CorruptFileError("an arc id is listed twice")
    # every arc id a path walk can report, -1 (no arc) aside
    unknown = set(c.row_par_arc).union(c.entry_arc).difference(known)
    unknown.discard(-1)
    if unknown:
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
    if header.get("version") != ORACLE_VERSION:
        raise VersionMismatchError(
            f"oracle version {header.get('version')!r}, expected {ORACLE_VERSION}"
        )
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


def _record_block(table: dict[int, RecordEntry]) -> tuple[array, ...]:
    """One record table's columns in vertex order, then its chain lengths and hops."""
    vertices = sorted(table)
    roots, deltas, parents, arcs, chains = zip(*map(table.__getitem__, vertices))
    dbase, dpert = zip(*deltas)
    hops = list(chain.from_iterable(chains))
    return (
        _column("i", vertices),
        _column("i", roots),
        _column("q", dbase),
        _column("q", [p & _PERT_MASK for p in dpert]),
        _column("i", [p >> _PERT_SHIFT for p in dpert]),
        _column("i", parents),
        _column("i", arcs),
        _column("i", [len(c) >> 1 for c in chains]),
        _column("i", hops[0::2]),
        _column("i", hops[1::2]),
    )


def _flat_columns(
    norm: NormalizedInstance,
    table_blocks: list[tuple[array, ...]],
    record_blocks: dict[int, tuple[array, ...]],
) -> _Columns:
    """Concatenate the build's blocks: tables in root order, records in key order."""
    c = _Columns()
    c.ring_roots = _column("i", norm.ring_roots)
    c.face_vertices = _column("i", norm.face_vertices)
    ids = sorted(norm.arcs)
    arcs = list(map(norm.arcs.__getitem__, ids))
    c.arc_id = _column("i", ids)
    c.arc_tail = _column("i", map(itemgetter(0), arcs))
    c.arc_head = _column("i", map(itemgetter(1), arcs))
    c.arc_base = _column("q", map(itemgetter(2), arcs))
    c.arc_perturb = _column("q", map(itemgetter(3), arcs))
    c.arc_kind = _column("b", map(_KINDS.index, map(itemgetter(4), arcs)))

    (vertex, base, plo, phi, par_v, par_arc, chain_row, chain_len, hop_key,
     hop_vertex) = zip(*table_blocks)
    c.table_start = _offsets(map(len, vertex))
    c.row_vertex = _concat("i", vertex)
    c.row_base = _concat("q", base)
    c.row_plo = _concat("q", plo)
    c.row_phi = _concat("i", phi)
    c.row_par_v = _concat("i", par_v)
    c.row_par_arc = _concat("i", par_arc)
    c.table_chain_start = _offsets(map(len, chain_row))
    c.chain_row = _concat("i", chain_row)
    c.chain_hop_start = _offsets(_concat("i", chain_len))
    c.row_hop_key = _concat("i", hop_key)
    c.row_hop_vertex = _concat("i", hop_vertex)

    keys = sorted(record_blocks)
    blocks = [record_blocks[key] for key in keys]
    (vertex, root, dbase, dplo, dphi, parent, arc, chain_len, hop_key,
     hop_vertex) = zip(*blocks) if blocks else ((),) * 10
    c.record_key = _column("i", keys)
    c.record_start = _offsets(map(len, vertex))
    c.entry_vertex = _concat("i", vertex)
    c.entry_root = _concat("i", root)
    c.entry_dbase = _concat("q", dbase)
    c.entry_dplo = _concat("q", dplo)
    c.entry_dphi = _concat("i", dphi)
    c.entry_parent = _concat("i", parent)
    c.entry_arc = _concat("i", arc)
    c.entry_hop_start = _offsets(_concat("i", chain_len))
    c.entry_hop_key = _concat("i", hop_key)
    c.entry_hop_vertex = _concat("i", hop_vertex)
    return c


def build(
    norm: NormalizedInstance,
    *,
    right_first: bool = False,
    instrument: bool = False,
    collect_edge_stats: bool = False,
) -> MsspOracle:
    """Preprocess a normalized instance into a queryable oracle.

    Every node runs three Dijkstra trees, which its tree selection and
    children read, and stores, straight from their columns, only the tables
    of the roots whose descent ends there: both endpoints at the root node,
    the right endpoint (the parent's midpoint) at a left child, none at a
    right child. That rule depends on position, not visit order. See the
    module docstring. The last child processed takes over its parent's
    graph instead of a copy.

    right_first flips the child processing order (the result must not
    change; a test relies on that). instrument enables expensive internal
    consistency checks after every contraction — meant for small graphs.
    collect_edge_stats additionally counts, per level, how many of the trees
    a node runs, stored or not, each arc appears in (stats key
    "tree_arc_max").
    """
    t0 = time.perf_counter()
    ring_roots = norm.ring_roots
    ring_vertex_set = set(ring_roots)
    n_rings = len(ring_roots)
    stats = BuildStats(norm.n_original, n_rings)
    # per root, then per record key: the columns of one table, in the field
    # order _flat_columns unpacks
    table_blocks: list[tuple[array, ...] | None] = [None] * n_rings
    record_blocks: dict[int, tuple[array, ...]] = {}
    absorbed_at: dict[int, tuple[int, int]] = {}  # vertex -> (record key, its root)
    arcs_info = norm.arcs
    edge_counters: dict[int, Counter] = {}

    tails = {aid: a.tail for aid, a in arcs_info.items()}

    def chain_from(tail: int) -> TailChain:
        """Record key, vertex hops from an arc's original tail to its tail now."""
        out: list[int] = []
        cur = tail
        while cur in absorbed_at:
            key, root = absorbed_at[cur]
            out += (key, cur)
            cur = root
        return tuple(out)

    def check_child(h, hj, i1, i2, j1, j2, trees):
        excl_i = {ring_roots[k] for k in range(i1, i2 + 1)}
        excl_j = {ring_roots[k] for k in range(j1, j2 + 1)}
        for k in range(j1, j2 + 1):
            rk = ring_roots[k]
            parent_tree = trees.get(k)
            if parent_tree is None:
                parent_tree = sssp_tree(h, rk, excl_i - {rk})
            child_dist = sssp_tree(hj, rk, excl_j - {rk}).dist
            for v, dv in child_dist.items():
                if v in excl_j or v == rk:
                    continue
                if parent_tree.dist.get(v) != dv:
                    raise MsspError(
                        f"instrument: contraction changed dist(r_{k}, {v}): "
                        f"{parent_tree.dist.get(v)} became {dv}"
                    )

    def rec(
        i1: int, i2: int, h: EmbeddedDigraph, level: int, terminal: tuple[int, ...]
    ) -> None:
        stats.node_count += 1
        lvl = stats.level_entry(level)
        adj = out_adjacency(h)
        vertices = adj.vertices
        lvl["nodes"] += 1
        lvl["vertices"] += len(vertices)
        lvl["slots"] += h.slot_count
        lvl["arcs"] += adj.arc_count
        mid = (i1 + i2) // 2
        ks = sorted({i1, i2, mid})
        excluded_all = {ring_roots[k] for k in range(i1, i2 + 1)}
        trees: dict[int, SSSPTree] = {}
        for k in ks:
            rk = ring_roots[k]
            trees[k] = sssp_tree(h, rk, excluded_all - {rk}, adj=adj)
            lvl["tree_vertices"] += trees[k].reached
            lvl["tree_arcs"] += trees[k].reached - 1
        if collect_edge_stats:
            counter = edge_counters.setdefault(level, Counter())
            for k in ks:
                for pd in trees[k].parent_dart.values():
                    counter[h.arc_into(pd)[2]] += 1
        # chains by original tail, shared by this node's stored tables and by
        # the contractions into its children: absorbed_at is the same for all
        chains_here: dict[int, TailChain] = {}

        def chain_at(arc_id: int) -> TailChain:
            tail = tails[arc_id]
            if tail not in absorbed_at:
                return ()
            found = chains_here.get(tail)
            if found is None:
                found = chains_here[tail] = chain_from(tail)
            return found

        slots = h.slots
        vertex_col = _column("i", vertices) if terminal else None
        for k in terminal:
            t = trees[k]
            pert = t.pert
            par_arc = [
                -1 if d < 0 else (slots[d >> 1].a01 if d & 1 else slots[d >> 1].a10)[2]
                for d in t.par_dart
            ]
            chain_rows: list[int] = []
            chains: list[TailChain] = []
            if absorbed_at:
                for row, aid in enumerate(par_arc):
                    if aid >= 0 and tails[aid] in absorbed_at:
                        chain_rows.append(row)
                        chains.append(chain_at(aid))
            hops = list(chain.from_iterable(chains))
            table_blocks[k] = (
                vertex_col,
                _column("q", t.base),
                _column("q", [p & _PERT_MASK for p in pert]),
                _column("i", [p >> _PERT_SHIFT for p in pert]),
                _column("i", [-1 if r < 0 else vertices[r] for r in t.par_row]),
                _column("i", par_arc),
                _column("i", chain_rows),
                _column("i", [len(ch) >> 1 for ch in chains]),
                _column("i", hops[0::2]),
                _column("i", hops[1::2]),
            )
            stats.stored_rows += len(vertices)
        if i2 - i1 <= 1:
            return
        # a left child's right endpoint, this node's midpoint, ends its
        # descent there; a right child ends none
        children = [
            (i1, mid, 0, trees[i1], trees[mid], (mid,)),
            (mid, i2, 1, trees[mid], trees[i2], ()),
        ]
        if right_first:
            children.reverse()
        for n, (j1, j2, side, t_low, t_high, ends) in enumerate(children):
            drop = [ring_roots[k] for k in range(i1, i2 + 1) if not j1 <= k <= j2]
            if n == 1 and not instrument:
                # the last child takes h over: only instrument's check_child
                # reads h after this point
                h._drop_vertices(drop)
                hj = h
            else:
                hj = h.copy(drop)
            selected = select_trees(hj, t_low, t_high)
            key = 2 * mid + side
            table: dict[int, RecordEntry] = {}
            if instrument:
                for tree in selected:
                    hit = ring_vertex_set.intersection(tree.members)
                    if hit:
                        raise MsspError(
                            f"instrument: ring vertices {sorted(hit)} selected"
                            " for contraction"
                        )
            for tree in selected:
                contract_tree(hj, tree, table, chain_at)
                if instrument:
                    hj.check()
            lvl["record_entries"] += len(table)
            lvl["contracted_vertices"] += sum(len(t) - 1 for t in selected)
            stats.record_entries += len(table)
            if table:
                record_blocks[key] = _record_block(table)
            if instrument:
                check_child(h, hj, i1, i2, j1, j2, trees)
            added = [(u, e.root) for u, e in table.items() if e.root != u]
            del table, selected
            for u, root in added:
                absorbed_at[u] = (key, root)
            rec(j1, j2, hj, level + 1, ends)
            for u, _ in added:
                del absorbed_at[u]

    with _gc_paused():
        rec(0, n_rings - 1, norm.graph.copy(), 0, tuple(sorted({0, n_rings - 1})))
        # rec holds itself through its closure cell; emptying the cell lets
        # reference counting free the working graphs, not a later GC pass
        del rec
        cols = _flat_columns(norm, table_blocks, record_blocks)  # type: ignore[arg-type]
        del table_blocks, record_blocks
    if collect_edge_stats:
        for level, counter in edge_counters.items():
            entry = stats.level_entry(level)
            entry["tree_arc_max"] = max(counter.values()) if counter else 0
    stats.chain_elements = len(cols.row_hop_key) + len(cols.entry_hop_key)
    stats.build_seconds = time.perf_counter() - t0
    return MsspOracle(norm.n_original, norm.w_big, norm.seed, cols, stats)
