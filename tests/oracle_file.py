"""An independent writer and reader of oracle files (format version 16),
for tests.

decode turns the bytes of an oracle file, following the layout the
README describes, into one logical document, a nested JSON view of the
stored trees, and encode_document turns such a document back into
bytes; document(oracle) decodes the bytes an oracle saves. The two share
no code with the package's save() or load(), so a test can damage a
document the way a broken writer would and load the result, and check
the package's columns and dicts against its own reading. The document
holds the header values; "ring_roots"; "face_vertices"; "arcs" as [id,
head]; "tables" as one [j, vertices, bases, parents, arcs, chains] per
root, where chains lists [row, [[midpoint, side, vertex], ...]]; and
"records" as [midpoint, side, entries] per record table, each entry
[vertex, root, delta base, parent, arc, chain]; each tree's nodes in the
file's block order. Each stored arc is [id, head], and a node's vertex
is the head of its parent arc, so the document's node vertices are not
written. A document whose node vertex is not the head of that node's
arc, where the document lists the arc, raises ValueError: a damage to a
vertex alone would be a silent no-op. A node's parent, a vertex in the
document, is written as its offset in the block, in block order, and a
node whose parent is its tree's root (r_j for table j, the entry's root
for a record entry) gets its own offset; a parent that is neither in
the block nor the root has no offset and raises ValueError. Nor are the
document's "face_vertices" written: a root's face vertex is the vertex
of its table's one row whose parent is its ring vertex: the head of the
root's spoke, the one arc that leaves the ring vertex. No arc's tail is
written. No block holds its tree's root. Each column is stored at the
narrowest of int16, int32 and int64 ("h", "i", "q") that holds every
value it has (int16 for an empty column), and its section entry names
that typecode.

Layout: the magic b"\\x89MSSP\\r\\n\\x1a", the header length and the
zlib.crc32 of the header as little-endian uint32, the header (compact
key-sorted UTF-8 JSON: format, version, n_original, w_big, seed and
"sections" as [name, typecode, count, crc32] per column), then the
columns below in order, little-endian, with no padding.

Every record table (in key order) and then every root table (in root
order) is one block of the node columns. Within a block the nodes whose
parent arc has a non-empty tail chain come first, each part in the
document's order, and the block's chains follow the same order. The
document's own node order and chain rows are therefore free: a document
with its nodes by ascending vertex and one in block order, of the same
oracle, encode to the same bytes.
"""

from __future__ import annotations

import io
import json
import struct
import zlib

MAGIC = b"\x89MSSP\r\n\x1a"
NODE = ("node_base", "node_parent", "node_arc")
ARC = ("arc_id", "arc_head")
COLUMNS = (
    "ring_roots",
    "arc_id", "arc_head",
    "record_key", "tree_start",
    "node_base", "node_parent", "node_arc", "record_root",
    "tree_chain_start", "chain_hop_start", "hop_key", "hop_vertex",
)
TYPECODES = ("h", "i", "q")  # the file's widths, narrowest first: struct letters


def narrowest(values) -> str:
    """The narrowest typecode of the file that holds every value; "h" for none."""
    lo, hi = min(values, default=0), max(values, default=0)
    for letter in TYPECODES:
        half = 1 << (8 * struct.calcsize(letter) - 1)
        if -half <= lo and hi < half:
            return letter
    raise OverflowError(f"{lo} .. {hi} does not fit 64 bits")


def _running(lengths) -> list[int]:
    out = [0]
    for n in lengths:
        out.append(out[-1] + n)
    return out


def _add_tree(
    col: dict, head: dict[int, int], nodes: list[tuple], hops_of: dict[int, list], roots: list,
    record: bool,
) -> None:
    """Append one block: nodes (vertex, base, parent, arc), chained first,
    under roots, each node's tree root; a record's are written too. The
    vertex is not written; it must be the head of the node's arc, if the
    arc is in head. A parent is written as its offset in the block, and a
    node whose parent is its root gets its own offset."""
    order = sorted(range(len(nodes)), key=lambda p: not hops_of.get(p))
    offset = {nodes[p][0]: i for i, p in enumerate(order)}
    col["tree_start"].append(len(nodes))
    col["tree_chain_start"].append(sum(1 for p in order if hops_of.get(p)))
    for i, p in enumerate(order):
        vertex, base, parent, arc = nodes[p]
        if head.get(arc, vertex) != vertex:
            raise ValueError(f"node vertex {vertex} is not the head {head[arc]} of its arc {arc}")
        if parent == roots[p]:
            parent = i
        elif parent in offset:
            parent = offset[parent]
        else:
            raise ValueError(
                f"parent {parent} of node vertex {vertex} is neither in its block nor its"
                f" root {roots[p]}"
            )
        for name, value in zip(NODE, (base, parent, arc)):
            col[name].append(value)
        if record:
            col["record_root"].append(roots[p])
        hops = hops_of.get(p)
        if hops:
            col["chain_hop_start"].append(len(hops))
            for mid, side, vertex in hops:
                col["hop_key"].append(2 * mid + side)
                col["hop_vertex"].append(vertex)


def columns_of(doc: dict) -> dict[str, list[int]]:
    """Every column of the file, as lists of ints, from a logical document."""
    col: dict[str, list[int]] = {name: [] for name in COLUMNS}
    col["ring_roots"] = list(doc["ring_roots"])
    for arc in doc["arcs"]:
        for name, value in zip(ARC, arc, strict=True):
            col[name].append(value)
    head = dict(zip(col["arc_id"], col["arc_head"]))
    for mid, side, entries in doc["records"]:
        col["record_key"].append(2 * mid + side)
        _add_tree(
            col,
            head,
            [(v, dbase, parent, arc) for v, _, dbase, parent, arc, _ in entries],
            {p: entry[5] for p, entry in enumerate(entries)},
            [entry[1] for entry in entries],
            True,
        )
    # tables: the item's own j is its place in the stream, so it is not
    # written, but its tree's root is r_j
    for j, *rows, chains in doc["tables"]:
        nodes = list(zip(*rows))
        _add_tree(col, head, nodes, dict(chains), [doc["ring_roots"][j]] * len(nodes), False)
    for name in ("tree_start", "tree_chain_start", "chain_hop_start"):
        col[name] = _running(col[name])
    return col


def encode_columns(
    head: dict, col: dict[str, list[int]], strict: bool = True, typecodes: dict | None = None
) -> bytes:
    """The file of header values (format, version, ...) and columns.

    Each column is written at its narrowest typecode. typecodes overrides
    the typecode a column's section entry names, with any value: the
    column is written at it if it is one of TYPECODES, else at its
    narrowest. strict=False skips, rather than rejects, the columns col
    lacks.
    """
    typecodes = typecodes or {}
    packed = []
    for name in COLUMNS:
        if not strict and name not in col:
            continue
        values = col[name]
        named = typecodes.get(name, narrowest(values))
        letter = named if named in TYPECODES else narrowest(values)
        packed.append(
            (name, named, len(values), struct.pack(f"<{len(values)}{letter}", *values))
        )
    header = dict(head)
    header["sections"] = [
        [name, named, n, zlib.crc32(data)] for name, named, n, data in packed
    ]
    text = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return b"".join(
        [MAGIC, struct.pack("<II", len(text), zlib.crc32(text)), text]
        + [data for *_, data in packed]
    )


def header_values(doc: dict) -> dict:
    """The header values of a logical document, sections aside."""
    return {key: doc[key] for key in ("format", "version", "n_original", "w_big", "seed")}


def encode_document(doc: dict) -> bytes:
    """The oracle file of a logical document, as save() would write it."""
    return encode_columns(header_values(doc), columns_of(doc))


def decode_columns(raw: bytes) -> tuple[dict, dict[str, list[int]]]:
    """The header values and the columns of an oracle file, as lists of
    ints; the inverse of encode_columns, for a file it wrote. Checksums
    and the layout's rules are not checked: load does that."""
    (length,) = struct.unpack_from("<I", raw, len(MAGIC))
    pos = len(MAGIC) + 8
    header = json.loads(raw[pos:pos + length])
    pos += length
    col = {}
    for name, letter, n, _ in header.pop("sections"):
        col[name] = list(struct.unpack_from(f"<{n}{letter}", raw, pos))
        pos += n * struct.calcsize(letter)
    return header, col


def decode(raw: bytes) -> dict:
    """The logical document of an oracle file: each node's vertex is its
    arc's head, each parent a vertex (the tree's root, r_j for a table and
    the record root for a record, for a node that holds its own offset),
    and each root's face vertex is the vertex of its table's root-marked
    row."""
    header, col = decode_columns(raw)
    head = dict(zip(col["arc_id"], col["arc_head"]))
    start, chain_start = col["tree_start"], col["tree_chain_start"]
    hop_start = col["chain_hop_start"]

    def block(b: int, roots: list[int]) -> tuple[list[list[int]], ...]:
        """Block b's vertices, bases, parents, arcs and each chain's hops."""
        a, z = start[b], start[b + 1]
        arcs = col["node_arc"][a:z]
        vertices = [head[arc] for arc in arcs]
        parents = [
            root if off == p else vertices[off]
            for p, (off, root) in enumerate(zip(col["node_parent"][a:z], roots))
        ]
        chains = [
            [[col["hop_key"][h] >> 1, col["hop_key"][h] & 1, col["hop_vertex"][h]]
             for h in range(hop_start[ch], hop_start[ch + 1])]
            for ch in range(chain_start[b], chain_start[b + 1])
        ]
        return vertices, col["node_base"][a:z], parents, arcs, chains

    records = []
    for b, key in enumerate(col["record_key"]):
        roots = col["record_root"][start[b]:start[b + 1]]
        vertices, bases, parents, arcs, chains = block(b, roots)
        chains += [[] for _ in range(len(vertices) - len(chains))]
        records.append([key >> 1, key & 1, [list(entry) for entry in zip(
            vertices, roots, bases, parents, arcs, chains
        )]])
    tables, faces = [], []
    k = len(col["record_key"])
    for j, r in enumerate(col["ring_roots"]):
        size = start[k + j + 1] - start[k + j]
        vertices, bases, parents, arcs, chains = block(k + j, [r] * size)
        rows = [[p, hops] for p, hops in enumerate(chains)]
        tables.append([j, vertices, bases, parents, arcs, rows])
        faces.append(next(v for v, parent in zip(vertices, parents) if parent == r))
    return {
        **header,
        "ring_roots": col["ring_roots"],
        "face_vertices": faces,
        "arcs": [list(arc) for arc in zip(*(col[name] for name in ARC))],
        "tables": tables,
        "records": records,
    }


def document(oracle) -> dict:
    """The logical document of the file oracle.save() writes."""
    buf = io.BytesIO()
    oracle.save(buf)
    return decode(buf.getvalue())
