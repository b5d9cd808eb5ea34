"""Graph file format: a small versioned JSON container.

Schema (format "planar-mssp-graph", version 1):

    {
      "format": "planar-mssp-graph",
      "version": 1,
      "vertex_count": <int>,
      "slots": [[u, v, w_uv | null, w_vu | null], ...],
      "rotations": [[dart, ...], ...],
      "outer_face": <int> | null
    }

Slot ids are list indices; a dart is ``2 * slot_id + end`` with end 0 at u
and end 1 at v. Each rotation lists the darts at that vertex in clockwise
order. ``outer_face`` is an optional hint naming a face index (in
``face_walks`` order) that generators consider the outer face.

Dumps are key-sorted and newline-terminated, so identical graphs produce
byte-identical files on every platform.
"""

from __future__ import annotations

import json
from typing import Any, TextIO

from .embedded_graph import EmbeddedDigraph, build_graph
from .errors import CorruptFileError, VersionMismatchError

GRAPH_FORMAT = "planar-mssp-graph"
GRAPH_VERSION = 1


def graph_to_json(g: EmbeddedDigraph, outer_face: int | None = None) -> dict[str, Any]:
    sids = sorted(g.slots)
    sid_index = {sid: i for i, sid in enumerate(sids)}
    slots = []
    for sid in sids:
        slot = g.slots[sid]
        slots.append(
            [
                slot.v0,
                slot.v1,
                None if slot.a01 is None else slot.a01[0],
                None if slot.a10 is None else slot.a10[0],
            ]
        )
    vertices = sorted(g.vertices())
    rotations = []
    for v in vertices:
        rotations.append([2 * sid_index[d >> 1] + (d & 1) for d in g.rotation(v)])
    return {
        "format": GRAPH_FORMAT,
        "version": GRAPH_VERSION,
        "vertex_count": len(vertices),
        "slots": slots,
        "rotations": rotations,
        "outer_face": outer_face,
    }


def graph_from_json(doc: Any) -> tuple[EmbeddedDigraph, int | None]:
    """Rebuild a validated graph; raises CorruptFileError on bad structure."""
    if not isinstance(doc, dict):
        raise CorruptFileError("graph document is not a JSON object")
    if doc.get("format") != GRAPH_FORMAT:
        raise CorruptFileError(f"not a {GRAPH_FORMAT} document")
    if doc.get("version") != GRAPH_VERSION:
        raise VersionMismatchError(
            f"graph version {doc.get('version')!r}, expected {GRAPH_VERSION}"
        )
    try:
        n = doc["vertex_count"]
        raw_slots = doc["slots"]
        raw_rotations = doc["rotations"]
        outer_face = doc.get("outer_face")
        if isinstance(n, bool) or not isinstance(n, int) or n < 0:
            raise CorruptFileError("vertex_count must be a non-negative int")
        if len(raw_rotations) != n:
            raise CorruptFileError("rotations length differs from vertex_count")
        positions: dict[int, tuple[int, int]] = {}  # dart -> (vertex, pos)
        for v, rot in enumerate(raw_rotations):
            for pos, d in enumerate(rot):
                if isinstance(d, bool) or not isinstance(d, int):
                    raise CorruptFileError(f"dart {d!r} is not an int")
                if d in positions:
                    raise CorruptFileError(f"dart {d} appears twice in rotations")
                positions[d] = (v, pos)
        slot_list = []
        for sid, entry in enumerate(raw_slots):
            u, v, w_uv, w_vu = entry
            for d, want in ((2 * sid, u), (2 * sid + 1, v)):
                if d not in positions or positions[d][0] != want:
                    raise CorruptFileError(f"dart {d} missing from rotation of {want}")
            slot_list.append((u, v, positions[2 * sid][1], positions[2 * sid + 1][1], w_uv, w_vu))
        if len(positions) != 2 * len(raw_slots):
            raise CorruptFileError("rotations mention darts of nonexistent slots")
        g = build_graph(n, slot_list)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise CorruptFileError(f"malformed graph document: {exc}") from exc
    if outer_face is not None:
        if (
            isinstance(outer_face, bool)
            or not isinstance(outer_face, int)
            or not 0 <= outer_face < g.face_count()
        ):
            raise CorruptFileError(f"outer_face {outer_face!r} is not a face index")
    return g, outer_face


def dump_json(doc: Any, sink: TextIO) -> None:
    # json.dumps runs the C encoder in one shot; json.dump to a stream
    # would run the pure-Python one, with the same bytes
    sink.write(json.dumps(doc, sort_keys=True, separators=(",", ":")))
    sink.write("\n")


def save_graph(g: EmbeddedDigraph, path: str, outer_face: int | None = None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        dump_json(graph_to_json(g, outer_face), fh)


def load_graph(path: str) -> tuple[EmbeddedDigraph, int | None]:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise CorruptFileError(f"invalid JSON: {exc}") from exc
    return graph_from_json(doc)
