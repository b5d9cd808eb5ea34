"""The multi-source shortest path oracle.

Build recursion over root intervals [i1, i2]: compute shortest path trees
from the interval's endpoints and midpoint, then for each half restrict the
graph to the half's own ring vertices, contract every tree selected by the
clockwise rule, record where each contracted vertex went, and recurse. The
intervals follow from the ring count alone, so they are not stored.
Records are keyed by (midpoint, side); midpoints are unique across the
recursion, and the side distinguishes the two children, which may contract
different trees through the same vertex.

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

Tables are flat arrays over their node's sorted-vertex row index: int64
bases (-1 = unreached) and the perturbation split at bit 60 so sums of
63-bit perturbations along long paths still fit two int64 halves. That
row index is also the vertex numbering of the build's inner loops: each
node takes one row snapshot of its graph (sssp.out_adjacency), Dijkstra
fills per-row distance and parent columns over it, and a stored table is
those columns turned into arrays, one array() call per column. Tree
selection reads the same columns, and each node looks up a tail chain at
most once per original tail.

The oracle file (format "planar-mssp-oracle", version 3) is compact,
key-sorted JSON: exactly json.dumps(oracle.to_json(), sort_keys=True,
separators=(",", ":")) plus a newline. Its "tables" stream holds one item
per root, in root order: [j, vertices, base, plo, phi, par_v, par_arc,
chains]. save() streams it one table or record item at a time through the
C encoder, so the document is never held whole, and a loaded oracle
re-saves byte-identically. load() checks that there is exactly one table
per root, in order, that no table lists a vertex twice, the table column
lengths, the chain rows, and that every parent and record arc id is in
the arc table. Path queries bound
every parent walk, and raise CorruptFileError, not KeyError, when a
damaged file names a vertex or record it does not hold. The plans are not
part of the file.
"""

from __future__ import annotations

import gc
import json
import time
from array import array
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Iterator, NamedTuple

from .contraction import RecordEntry, TailChain, contract_tree, select_trees
from .embedded_graph import EmbeddedDigraph
from .errors import (
    BadRootIndexError,
    CorruptFileError,
    FaceVertexQueryError,
    MsspError,
    UnreachableError,
    VersionMismatchError,
)
from .normalize import ARC_SPOKE, UNREACHABLE, ArcInfo, NormalizedInstance
from .sssp import SSSPTree, out_adjacency, sssp_tree
from .weights import LexWeight

ORACLE_FORMAT = "planar-mssp-oracle"
ORACLE_VERSION = 3

_PERT_SHIFT = 60
_PERT_MASK = (1 << _PERT_SHIFT) - 1

RecordKey = tuple[int, int]  # (midpoint, side); side 0 = left child


@contextmanager
def _gc_paused() -> Iterator[None]:
    """Suspend generational GC for the block, then restore the caller's state.

    Build, save and load allocate millions of small acyclic objects, so
    collection passes only add pauses; reference counting frees them.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


class _RootTable:
    """One root's stored tree: a row index and flat distance/parent columns."""

    __slots__ = ("index", "base", "plo", "phi", "par_v", "par_arc", "chains")

    def __init__(
        self,
        index: dict[int, int],
        base: array,
        plo: array,
        phi: array,
        par_v: array,
        par_arc: array,
        chains: dict[int, TailChain],
    ):
        self.index = index
        self.base = base
        self.plo = plo
        self.phi = phi
        self.par_v = par_v
        self.par_arc = par_arc
        self.chains = chains


class _Plan(NamedTuple):
    """One root's descent, worked out once; references, no copies."""

    intervals: tuple[tuple[int, int], ...]  # outermost first; the last is terminal
    steps: tuple[tuple[RecordKey, dict[int, RecordEntry]], ...]  # tables met, in order
    table: _RootTable  # this root's table, at the terminal interval


class Explanation(NamedTuple):
    """What MsspOracle.explain reports about one query's descent."""

    intervals: list[tuple[int, int]]  # the intervals visited, outermost first
    hits: list[tuple[RecordKey, int]]  # (record key, vertex) rerouted, in order
    terminal: tuple[int, int]  # the interval whose tree answers
    probes: int  # record tables probed on the way down


def _descent_plans(
    ring_count: int,
    records: dict[RecordKey, dict[int, RecordEntry]],
    tables: list[_RootTable],
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
            key = (mid, side)
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


class MsspOracle:
    """Immutable queryable artifact produced by build()."""

    __slots__ = (
        "n_original",
        "ring_count",
        "ring_roots",
        "face_vertices",
        "w_big",
        "seed",
        "arcs",
        "records",
        "tables",
        "stats",
        "_ring_set",
        "_query_vertices",
        "_plans",
    )

    def __init__(
        self,
        n_original: int,
        ring_roots: list[int],
        face_vertices: list[int],
        w_big: int,
        seed: int,
        arcs: dict[int, ArcInfo],
        records: dict[RecordKey, dict[int, RecordEntry]],
        tables: list[_RootTable],
        stats: BuildStats,
    ):
        self.n_original = n_original
        self.ring_count = len(ring_roots)
        self.ring_roots = ring_roots
        self.face_vertices = face_vertices
        self.w_big = w_big
        self.seed = seed
        self.arcs = arcs
        self.records = records
        self.tables = tables
        self.stats = stats
        self._ring_set = frozenset(ring_roots)
        # root 0's table is the root node's tree, over every vertex
        self._query_vertices = frozenset(tables[0].index) - self._ring_set
        # immutable once built, so queries stay safe from several threads
        self._plans = _descent_plans(self.ring_count, records, tables)

    @property
    def query_vertices(self) -> frozenset[int]:
        """The vertices distance queries accept: all original vertices."""
        return self._query_vertices

    # ------------------------------------------------------------------
    # queries

    def _descend(
        self, j: int, u: int, hits: list[tuple[RecordKey, int]] | None = None
    ) -> tuple[_RootTable, int, int, int]:
        """The one query descent: reroute u along root j's plan.

        Returns the terminal table, u's row in it, and the base and
        perturbation of the record deltas passed on the way. Appends each
        record hit (key, vertex) to hits when given.
        """
        if not isinstance(j, int) or isinstance(j, bool) or not 0 <= j < self.ring_count:
            raise BadRootIndexError(f"root index {j!r} not in [0, {self.ring_count})")
        _, steps, table = self._plans[j]
        if u not in self._query_vertices:
            if u in self._ring_set:
                raise FaceVertexQueryError(f"vertex {u} is a ring vertex, not queryable")
            raise FaceVertexQueryError(f"vertex {u!r} is not in the graph")
        acc_b = 0
        acc_p = 0
        for key, entries in steps:
            e = entries.get(u)
            if e is not None:
                root = e.root
                if root != u:
                    db, dp = e.delta
                    acc_b += db
                    acc_p += dp
                    if hits is not None:
                        hits.append((key, u))
                    u = root
        row = table.index.get(u)
        if row is None:
            raise MsspError(f"internal: vertex {u} missing from terminal table")
        if table.base[row] < 0:
            raise MsspError(f"internal: vertex {u} unreached in terminal table")
        return table, row, acc_b, acc_p

    def query_dist(self, j: int, u: int) -> LexWeight:
        """Exact normalized-graph distance from r_j to u as a LexWeight.

        Apply map_answer (or use distance()) to interpret the result in
        original-graph terms.
        """
        t, row, acc_b, acc_p = self._descend(j, u)
        return LexWeight(
            acc_b + t.base[row], acc_p + ((t.phi[row] << _PERT_SHIFT) | t.plo[row])
        )

    def distance(self, j: int, u: int):
        """Base distance from b_j to u in the original graph, or UNREACHABLE."""
        t, row, acc_b, _ = self._descend(j, u)
        base = acc_b + t.base[row]
        return UNREACHABLE if base >= self.w_big else base

    def descent_intervals(self, j: int) -> list[tuple[int, int]]:
        """The intervals a query for root j visits, outermost first."""
        if not isinstance(j, int) or isinstance(j, bool) or not 0 <= j < self.ring_count:
            raise BadRootIndexError(f"root index {j!r} not in [0, {self.ring_count})")
        return list(self._plans[j].intervals)

    def explain(self, j: int, u: int) -> Explanation:
        """How a query for (j, u) descends: intervals, record hits, probes."""
        hits: list[tuple[RecordKey, int]] = []
        self._descend(j, u, hits)
        plan = self._plans[j]
        return Explanation(list(plan.intervals), hits, plan.intervals[-1], len(plan.steps))

    def query_path(self, j: int, u: int) -> list[int]:
        """Original arc ids of the unique shortest b_j-to-u path."""
        path, _ = self._query_path_counted(j, u)
        return path

    def _query_path_counted(self, j: int, u: int) -> tuple[list[int], int]:
        """query_path plus the number of record/table entry probes used."""
        hits: list[tuple[RecordKey, int]] = []
        t, row, acc_b, _ = self._descend(j, u, hits)
        if acc_b + t.base[row] >= self.w_big:
            raise UnreachableError(
                f"vertex {u} is not reachable from face vertex {self.face_vertices[j]}"
            )
        plan = self._plans[j]
        probes = len(plan.steps)
        index = t.index
        out: list[int] = []
        # a loaded file can name a vertex or record that is not there; its
        # arc ids were checked at load
        try:
            # terminal tree walk from r_j down to u's row
            root_row = index[self.ring_roots[j]]
            steps: list[tuple[int, TailChain]] = []
            # a tree path has fewer arcs than the table has rows; a longer
            # walk means the parent pointers of a loaded file form a cycle
            limit = probes + len(index)
            while row != root_row:
                probes += 1
                if probes > limit:
                    raise CorruptFileError(f"parent pointers of table {j} cycle")
                steps.append((t.par_arc[row], t.chains.get(row, ())))
                row = index[t.par_v[row]]
            for arc, chain in reversed(steps):
                probes += self._expand_chain(chain, out)
                out.append(arc)
            for key, vert in reversed(hits):
                probes += self._expand_record(key, vert, out)
            starts_at_ring = bool(out) and self.arcs[out[0]].kind == ARC_SPOKE
        except KeyError as exc:
            raise CorruptFileError(f"path walk met an unknown id: {exc}") from exc
        if not starts_at_ring:
            raise MsspError("internal: reported path does not start at the ring")
        return out[1:], probes

    def _expand_record(self, key: RecordKey, vert: int, out: list[int]) -> int:
        """Append arcs of the record tree path root -> vert; returns probes."""
        entries = self.records[key]
        e = entries[vert]
        probes = 1
        root = e.root
        if vert == root:
            return probes
        seq = [e]
        v = e.parent
        limit = len(entries)
        while v != root:
            e = entries[v]
            probes += 1
            if probes > limit:
                raise CorruptFileError(f"parent pointers of record {key} cycle")
            seq.append(e)
            v = e.parent
        for e in reversed(seq):
            probes += self._expand_chain(e.chain, out)
            out.append(e.arc)
        return probes

    def _expand_chain(self, chain: TailChain, out: list[int]) -> int:
        probes = 0
        for key, vert in reversed(chain):
            probes += self._expand_record(key, vert, out)
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
            {"midpoint": i, "side": side, "entries": len(tab)}
            for (i, side), tab in sorted(self.records.items())
        ]
        return {"ring_count": self.ring_count, "nodes": nodes, "records": recs}

    # The file layout, defined once: the small header values plus two
    # streams yielding one "tables" or "records" item at a time. to_json()
    # collects them into one dict; save() writes them piece by piece.

    def _header(self) -> dict:
        return {
            "format": ORACLE_FORMAT,
            "version": ORACLE_VERSION,
            "n_original": self.n_original,
            "w_big": self.w_big,
            "seed": self.seed,
            "ring_roots": self.ring_roots,
            "face_vertices": self.face_vertices,
            "arcs": [
                [aid, a.tail, a.head, a.base, a.perturb, a.kind]
                for aid, a in sorted(self.arcs.items())
            ],
            "stats": self.stats.to_json(),
        }

    def _record_items(self) -> Iterator[list]:
        for (i, side), tab in sorted(self.records.items()):
            entries = [
                [u, e.root, e.delta.base, e.delta.perturb, e.parent, e.arc,
                 [[k[0], k[1], v] for k, v in e.chain]]
                for u, e in sorted(tab.items())
            ]
            yield [i, side, entries]

    def _table_items(self) -> Iterator[list]:
        for j, t in enumerate(self.tables):
            yield [
                j,
                sorted(t.index, key=t.index.get),
                list(t.base),
                list(t.plo),
                list(t.phi),
                list(t.par_v),
                list(t.par_arc),
                [[row, [[c[0][0], c[0][1], c[1]] for c in chain]]
                 for row, chain in sorted(t.chains.items())],
            ]

    def _streams(self) -> dict[str, Iterator[list]]:
        return {"tables": self._table_items(), "records": self._record_items()}

    def to_json(self) -> dict:
        doc = self._header()
        for key, items in self._streams().items():
            doc[key] = list(items)
        return doc

    def save(self, sink) -> None:
        """Write the oracle as versioned JSON to a path or file object.

        The output equals json.dumps(self.to_json(), sort_keys=True,
        separators=(",", ":")) plus a newline, byte for byte.
        """
        if hasattr(sink, "write"):
            self._write(sink.write)
        else:
            with open(sink, "w", encoding="utf-8") as fh:
                self._write(fh.write)

    def _write(self, write) -> None:
        # JSONEncoder.encode takes the C one-shot path; json.dump to a file
        # would run the pure-Python iterative encoder instead
        encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode
        with _gc_paused():
            header = self._header()
            streams = self._streams()
            sep = "{"
            for key in sorted([*header, *streams]):
                write(f"{sep}{encode(key)}:")
                sep = ","
                if key in header:
                    write(encode(header[key]))
                    continue
                write("[")
                for n, item in enumerate(streams[key]):
                    if n:
                        write(",")
                    write(encode(item))
                write("]")
            write("}\n")


def _oracle_from_json(doc: Any) -> MsspOracle:
    if not isinstance(doc, dict):
        raise CorruptFileError("oracle document is not a JSON object")
    if doc.get("format") != ORACLE_FORMAT:
        raise CorruptFileError(f"not a {ORACLE_FORMAT} document")
    if doc.get("version") != ORACLE_VERSION:
        raise VersionMismatchError(
            f"oracle version {doc.get('version')!r}, expected {ORACLE_VERSION}"
        )
    try:
        arcs = {
            aid: ArcInfo(tail, head, base, perturb, kind)
            for aid, tail, head, base, perturb, kind in doc["arcs"]
        }
        # every arc id a path walk can report, -1 (no arc) aside
        arc_ids: set[int] = set()
        # each parsed item is dropped from the document once it has been
        # turned into tables, so the two copies never coexist in full
        records: dict[RecordKey, dict[int, RecordEntry]] = {}
        raw_records = doc["records"]
        for pos, (i, side, entries) in enumerate(raw_records):
            raw_records[pos] = None
            arc_ids.update([entry[5] for entry in entries])
            tab = {}
            for u, root, dbase, dpert, parent, arc, chain in entries:
                tab[u] = RecordEntry(
                    root,
                    LexWeight(dbase, dpert),
                    parent,
                    arc,
                    tuple(((ci, cs), cv) for ci, cs, cv in chain),
                )
            records[(i, side)] = tab
        ring_count = len(doc["ring_roots"])
        raw_tables = doc["tables"]
        if len(raw_tables) != ring_count:
            raise CorruptFileError(
                f"{len(raw_tables)} tables for {ring_count} roots; expected one per root"
            )
        tables: list[_RootTable] = []
        for pos, (j, vertices, base, plo, phi, par_v, par_arc, chains) in enumerate(
            raw_tables
        ):
            raw_tables[pos] = None
            if j != pos:
                raise CorruptFileError(f"table {pos} is labelled root {j!r}")
            rows = len(vertices)
            if any(len(col) != rows for col in (base, plo, phi, par_v, par_arc)):
                raise CorruptFileError(
                    f"table {j}: columns do not all have its {rows} rows"
                )
            index = {v: row for row, v in enumerate(vertices)}
            if len(index) != rows:
                # a repeated vertex would read another vertex's row
                raise CorruptFileError(f"table {j}: a vertex is listed twice")
            arc_ids.update(par_arc)
            t = _RootTable(
                index,
                array("q", base),
                array("q", plo),
                array("q", phi),
                array("q", par_v),
                array("q", par_arc),
                {
                    row: tuple(((ci, cs), cv) for ci, cs, cv in chain)
                    for row, chain in chains
                },
            )
            if t.chains and not (0 <= min(t.chains) and max(t.chains) < rows):
                raise CorruptFileError(f"table {j}: chain row out of range")
            tables.append(t)
        arc_ids.discard(-1)
        unknown = arc_ids.difference(arcs)
        if unknown:
            raise CorruptFileError(
                f"{len(unknown)} parent or record arc ids are not in the arc"
                f" table, such as {min(unknown)}"
            )
        oracle = MsspOracle(
            n_original=doc["n_original"],
            ring_roots=list(doc["ring_roots"]),
            face_vertices=list(doc["face_vertices"]),
            w_big=doc["w_big"],
            seed=doc["seed"],
            arcs=arcs,
            records=records,
            tables=tables,
            stats=BuildStats.from_json(doc["stats"]),
        )
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise CorruptFileError(f"malformed oracle document: {exc}") from exc
    return oracle


def load(source) -> MsspOracle:
    """Read an oracle written by save(); path or file object."""
    if hasattr(source, "read"):
        raw = source.read()
    else:
        with open(source, "r", encoding="utf-8") as fh:
            raw = fh.read()
    with _gc_paused():
        try:
            doc = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise CorruptFileError(f"invalid JSON: {exc}") from exc
        del raw
        return _oracle_from_json(doc)


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
    records: dict[RecordKey, dict[int, RecordEntry]] = {}
    tables: list[_RootTable | None] = [None] * n_rings
    absorbed_at: dict[int, tuple[RecordKey, int]] = {}
    arcs_info = norm.arcs
    edge_counters: dict[int, Counter] = {}

    tails = {aid: a.tail for aid, a in arcs_info.items()}

    def chain_from(tail: int) -> TailChain:
        """(record key, vertex) hops from an arc's original tail to its tail now."""
        out = []
        cur = tail
        while cur in absorbed_at:
            key, root = absorbed_at[cur]
            out.append((key, cur))
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
            chain = chains_here.get(tail)
            if chain is None:
                chain = chains_here[tail] = chain_from(tail)
            return chain

        slots = h.slots
        for k in terminal:
            t = trees[k]
            pert = t.pert
            par_arc = [
                -1 if d < 0 else (slots[d >> 1].a01 if d & 1 else slots[d >> 1].a10)[2]
                for d in t.par_dart
            ]
            chains: dict[int, TailChain] = {}
            if absorbed_at:
                for row, aid in enumerate(par_arc):
                    if aid >= 0 and tails[aid] in absorbed_at:
                        chains[row] = chain_at(aid)
            tables[k] = _RootTable(
                adj.row_of,
                array("q", t.base),
                array("q", [p & _PERT_MASK for p in pert]),
                array("q", [p >> _PERT_SHIFT for p in pert]),
                array("q", [-1 if r < 0 else vertices[r] for r in t.par_row]),
                array("q", par_arc),
                chains,
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
            key = (mid, side)
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
            stats.chain_elements += sum(len(e.chain) for e in table.values())
            if table:
                records[key] = table
            if instrument:
                check_child(h, hj, i1, i2, j1, j2, trees)
            added = [(u, e.root) for u, e in table.items() if e.root != u]
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
    if collect_edge_stats:
        for level, counter in edge_counters.items():
            entry = stats.level_entry(level)
            entry["tree_arc_max"] = max(counter.values()) if counter else 0
    stats.chain_elements += sum(
        len(c) for t in tables for c in t.chains.values()  # type: ignore[union-attr]
    )
    stats.build_seconds = time.perf_counter() - t0
    return MsspOracle(
        n_original=norm.n_original,
        ring_roots=list(ring_roots),
        face_vertices=list(norm.face_vertices),
        w_big=norm.w_big,
        seed=norm.seed,
        arcs=dict(arcs_info),
        records=records,
        tables=tables,  # type: ignore[arg-type]
        stats=stats,
    )
