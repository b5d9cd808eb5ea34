"""An independent writer of oracle files (format version 4), for tests.

encode_document turns the logical document that MsspOracle.to_json()
returns, the version 3 JSON document with its version set to 4, into the
bytes of an oracle file, following the layout the README describes. It
shares no code with the package's save(), so a test can damage a
document the way a broken writer would and load the result, and the
pinned digests in test_persistence.py were derived with it from the
version 3 documents of the parent format.

Layout: the magic b"\\x89MSSP\\r\\n\\x1a", the header length and the
zlib.crc32 of the header as little-endian uint32, the header (compact
key-sorted UTF-8 JSON: format, version, n_original, w_big, seed, stats,
and "sections" as [name, count, crc32] per column), then the columns
below in order, little-endian, with no padding.
"""

from __future__ import annotations

import json
import struct
import zlib

MAGIC = b"\x89MSSP\r\n\x1a"
KINDS = ("arc", "reverse", "spoke")
SHIFT = 60
MASK = (1 << SHIFT) - 1
COLUMNS = (  # name, struct format letter
    ("ring_roots", "i"), ("face_vertices", "i"),
    ("arc_id", "i"), ("arc_tail", "i"), ("arc_head", "i"), ("arc_base", "q"),
    ("arc_perturb", "q"), ("arc_kind", "b"),
    ("table_start", "i"), ("row_vertex", "i"), ("row_base", "q"), ("row_plo", "q"),
    ("row_phi", "i"), ("row_par_v", "i"), ("row_par_arc", "i"),
    ("table_chain_start", "i"), ("chain_row", "i"), ("chain_hop_start", "i"),
    ("row_hop_key", "i"), ("row_hop_vertex", "i"),
    ("record_key", "i"), ("record_start", "i"), ("entry_vertex", "i"),
    ("entry_root", "i"), ("entry_dbase", "q"), ("entry_dplo", "q"), ("entry_dphi", "i"),
    ("entry_parent", "i"), ("entry_arc", "i"),
    ("entry_hop_start", "i"), ("entry_hop_key", "i"), ("entry_hop_vertex", "i"),
)


def _running(lengths) -> list[int]:
    out = [0]
    for n in lengths:
        out.append(out[-1] + n)
    return out


def columns_of(doc: dict) -> dict[str, list[int]]:
    """Every column of the file, as lists of ints, from a logical document."""
    col: dict[str, list[int]] = {name: [] for name, _ in COLUMNS}
    col["ring_roots"] = list(doc["ring_roots"])
    col["face_vertices"] = list(doc["face_vertices"])
    for aid, tail, head, base, perturb, kind in doc["arcs"]:
        for name, value in zip(
            ("arc_id", "arc_tail", "arc_head", "arc_base", "arc_perturb", "arc_kind"),
            (aid, tail, head, base, perturb, KINDS.index(kind)),
        ):
            col[name].append(value)
    # tables: the item's own j is its place in the stream, so it is not written
    chain_lengths = []
    for _, vertices, base, plo, phi, par_v, par_arc, chains in doc["tables"]:
        for name, values in zip(
            ("row_vertex", "row_base", "row_plo", "row_phi", "row_par_v", "row_par_arc"),
            (vertices, base, plo, phi, par_v, par_arc),
        ):
            col[name].extend(values)
        col["table_chain_start"].append(len(chains))
        for row, hops in chains:
            col["chain_row"].append(row)
            chain_lengths.append(len(hops))
            for mid, side, vertex in hops:
                col["row_hop_key"].append(2 * mid + side)
                col["row_hop_vertex"].append(vertex)
    col["table_start"] = _running(len(item[1]) for item in doc["tables"])
    col["table_chain_start"] = _running(col["table_chain_start"])
    col["chain_hop_start"] = _running(chain_lengths)
    entry_lengths = []
    for mid, side, entries in doc["records"]:
        col["record_key"].append(2 * mid + side)
        col["record_start"].append(len(entries))
        for vertex, root, dbase, dpert, parent, arc, hops in entries:
            for name, value in zip(
                ("entry_vertex", "entry_root", "entry_dbase", "entry_dplo", "entry_dphi",
                 "entry_parent", "entry_arc"),
                (vertex, root, dbase, dpert & MASK, dpert >> SHIFT, parent, arc),
            ):
                col[name].append(value)
            entry_lengths.append(len(hops))
            for hop_mid, hop_side, hop_vertex in hops:
                col["entry_hop_key"].append(2 * hop_mid + hop_side)
                col["entry_hop_vertex"].append(hop_vertex)
    col["record_start"] = _running(col["record_start"])
    col["entry_hop_start"] = _running(entry_lengths)
    return col


def encode_columns(head: dict, col: dict[str, list[int]], strict: bool = True) -> bytes:
    """The file of header values (format, version, ...) and columns.

    strict=False skips, rather than rejects, the columns col lacks.
    """
    packed = [
        (name, len(col[name]), struct.pack(f"<{len(col[name])}{letter}", *col[name]))
        for name, letter in COLUMNS
        if strict or name in col
    ]
    header = dict(head)
    header["sections"] = [[name, n, zlib.crc32(data)] for name, n, data in packed]
    text = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return b"".join(
        [MAGIC, struct.pack("<II", len(text), zlib.crc32(text)), text]
        + [data for _, _, data in packed]
    )


def encode_document(doc: dict) -> bytes:
    """The oracle file of a logical document, as save() would write it."""
    head = {key: doc[key] for key in ("format", "version", "n_original", "w_big", "seed",
                                      "stats")}
    return encode_columns(head, columns_of(doc))
