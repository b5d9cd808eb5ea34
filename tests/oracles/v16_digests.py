"""Derive the version 16 oracle digests from version 15 files.

Version 16 drops the arc_tail column and changes nothing else. This
script reads each file that the version 15 code saves for the gate
instances of tests/test_persistence.py with tests/oracle_file.py's
struct reader, drops the arc tails, sets the version to 16, writes the
columns with tests/oracle_file.py's encoder and prints the sha256 of the
result: the values GATE_DIGESTS and LARGE_GATE pin. No step runs the
version 16 save(); the test that compares save() with these digests does.

Two steps, each from the repository root, V15 being a checkout of the
version 15 code:

    PYTHONPATH=V15/src:. python tests/oracles/v16_digests.py save DIR
    PYTHONPATH=. python tests/oracles/v16_digests.py derive DIR

save writes DIR/<name>.bin with the planar_mssp on the path, which must
be version 15; derive needs no package at all.
"""

from __future__ import annotations

import hashlib
import io
import sys
from pathlib import Path

from tests.oracle_file import decode, decode_columns, encode_columns, encode_document

NAMES = (
    "bowtie-inner", "grid16-oneway-inner", "grid16-outer", "grid32-outer", "grid8-outer",
    "random10-outer", "random12-inner", "tri_oneway-inner", "grid64-outer",
)


def save(out: Path) -> None:
    """Save every gate instance's oracle with the version 15 code."""
    from planar_mssp import build, normalize
    from planar_mssp.mssp import ORACLE_VERSION
    from tests.test_persistence import gate_instance

    if ORACLE_VERSION != 15:
        raise SystemExit(f"planar_mssp on the path writes version {ORACLE_VERSION}, not 15")
    out.mkdir(parents=True, exist_ok=True)
    for name in NAMES:
        g, face, seed = gate_instance(name)
        buf = io.BytesIO()
        build(normalize(g, face, seed=seed)).save(buf)
        (out / f"{name}.bin").write_bytes(buf.getvalue())


def to_v16(raw: bytes) -> bytes:
    """A version 15 file without its arc tails, as version 16."""
    header, col = decode_columns(raw)
    if header["version"] != 15:
        raise ValueError(f"a version {header['version']} file, not 15")
    del col["arc_tail"]
    header["version"] = 16
    data = encode_columns(header, col)
    # the document's way round gives the same bytes
    assert encode_document(decode(data)) == data
    return data


def derive(src: Path) -> None:
    """Print each gate instance's version 16 digest."""
    for name in NAMES:
        data = to_v16((src / f"{name}.bin").read_bytes())
        print(f'    "{name}": "{hashlib.sha256(data).hexdigest()}",')


if __name__ == "__main__":
    if len(sys.argv) != 3 or sys.argv[1] not in ("save", "derive"):
        raise SystemExit("usage: v16_digests.py save|derive DIR")
    {"save": save, "derive": derive}[sys.argv[1]](Path(sys.argv[2]))
