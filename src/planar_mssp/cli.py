"""Command line interface.

Subcommands: gen, build, query, path, verify. Every failure is
reported as one line "error {Kind}: {message}" on stderr with a nonzero
exit code. When --seed is omitted, the MSSP_SEED environment variable is
used; failing that, seed 0.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from . import __version__
from .errors import CorruptFileError, FaceNotFoundError, MsspError, UnreachableError
from .harness import gen_grid, gen_random_planar, verify
from .io import dump_json, load_graph, save_graph
from .mssp import build as build_oracle, load as load_oracle
from .normalize import normalize


def _resolve_seed(value: int | None) -> int:
    if value is not None:
        return value
    env = os.environ.get("MSSP_SEED")
    if env is None:
        return 0
    try:
        return int(env)
    except ValueError:
        raise CorruptFileError(f"MSSP_SEED is not an integer: {env!r}") from None


def _face_index(graph, stored_outer: int | None, face_arg: str) -> int:
    """Resolve --face: 'auto-outer', a face index, or a vertex list."""
    if face_arg == "auto-outer":
        if stored_outer is None:
            raise FaceNotFoundError(
                "graph file does not record an outer face; pass --face"
            )
        return stored_outer
    try:
        return int(face_arg)
    except ValueError:
        pass
    try:
        target = [int(p) for p in face_arg.split(",")]
    except ValueError:
        raise FaceNotFoundError(
            f"--face must be 'auto-outer', an index, or a vertex list, got {face_arg!r}"
        ) from None
    walks = graph.face_walks()
    for fi, walk in enumerate(walks):
        seq = [graph.dart_vertex(d) for d in walk]
        if len(seq) != len(target):
            continue
        if any(
            seq[shift:] + seq[:shift] == target for shift in range(len(seq))
        ):
            return fi
    raise FaceNotFoundError(f"no face has boundary {target}")


def _read_pairs(path: str) -> list[tuple[int, int]]:
    """Query pairs, one 'j u' per line; blank lines and # comments skipped."""
    out: list[tuple[int, int]] = []
    with open(path, "r", encoding="utf-8") as fh:
        for ln, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 2:
                raise CorruptFileError(f"{path}:{ln}: expected 'j u', got {line!r}")
            try:
                out.append((int(parts[0]), int(parts[1])))
            except ValueError:
                raise CorruptFileError(
                    f"{path}:{ln}: expected two integers, got {line!r}"
                ) from None
    return out


# ----------------------------------------------------------------------
# subcommands


def _cmd_gen(args: argparse.Namespace) -> int:
    seed = _resolve_seed(args.seed)
    if args.delete_prob > 0.0:
        graph, outer = gen_random_planar(
            args.grid, args.max_weight, seed, args.delete_prob
        )
    else:
        graph, outer = gen_grid(args.grid, args.max_weight, seed)
    save_graph(graph, args.output, outer)
    print(
        f"wrote {args.output}: {graph.vertex_count} vertices,"
        f" {graph.slot_count} slots, outer face {outer}"
    )
    return 0


def _cmd_build(args: argparse.Namespace) -> int:
    seed = _resolve_seed(args.seed)
    graph, stored_outer = load_graph(args.input)
    face = _face_index(graph, stored_outer, args.face)
    norm = normalize(graph, face, seed)
    t0 = time.perf_counter()
    oracle = build_oracle(
        norm, instrument=args.instrument, collect_edge_stats=args.edge_stats
    )
    build_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    oracle.save(args.output)
    save_s = time.perf_counter() - t0
    if args.emit_trace:
        with open(args.emit_trace, "w", encoding="utf-8") as fh:
            dump_json(oracle.trace(), fh)
    s = oracle.stats
    print(
        f"built {args.output}: {s.n_original} vertices, {s.ring_count} ring roots,"
        f" {s.node_count} nodes, {s.stored_entries} stored entries"
        f" ({s.record_entries} records), max level {s.max_level},"
        f" build {build_s:.2f}s, save {save_s:.2f}s"
    )
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    oracle = load_oracle(args.input)
    for j, u in _read_pairs(args.pairs):
        print(oracle.distance(j, u))
    return 0


def _cmd_path(args: argparse.Namespace) -> int:
    oracle = load_oracle(args.input)
    for j, u in _read_pairs(args.pairs):
        try:
            arcs = oracle.query_path(j, u)
        except UnreachableError:
            print("UNREACHABLE")
            continue
        print(" ".join(map(str, arcs)))
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    seed = _resolve_seed(args.seed)
    graph, stored_outer = load_graph(args.input)
    face = _face_index(graph, stored_outer, args.face)
    report = verify(
        graph,
        face,
        seed,
        force_exhaustive=args.exhaustive,
        path_checks=args.path_checks,
    )
    print(report.format_text())
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            dump_json(report.to_json(), fh)
    return 0 if report.passed else 1


# ----------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="planar-mssp",
        description="Multiple-source shortest path oracles for planar embedded digraphs.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a grid or random planar instance")
    p.add_argument("--grid", type=int, required=True, metavar="K", help="grid side length")
    p.add_argument("--max-weight", type=int, default=100)
    p.add_argument("--delete-prob", type=float, default=0.0,
                   help="per-slot deletion probability (keeps the graph connected)")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("build", help="preprocess a graph into a distance oracle")
    p.add_argument("-i", "--input", required=True, help="graph JSON file")
    p.add_argument("-o", "--output", required=True, help="oracle file")
    p.add_argument("--face", default="auto-outer",
                   help="'auto-outer', a face index, or a comma-separated boundary vertex list")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--emit-trace", metavar="PATH",
                   help="also write the recursion structure as JSON")
    p.add_argument("--instrument", action="store_true",
                   help="run internal consistency checks during the build (slow)")
    p.add_argument("--edge-stats", action="store_true",
                   help="collect per-level per-arc tree counts into the stats")
    p.set_defaults(func=_cmd_build)

    p = sub.add_parser("query", help="answer distance queries from an oracle")
    p.add_argument("-i", "--input", required=True, help="oracle file")
    p.add_argument("--pairs", required=True, help="file with one 'j u' pair per line")
    p.set_defaults(func=_cmd_query)

    p = sub.add_parser("path", help="report shortest paths as arc id sequences")
    p.add_argument("-i", "--input", required=True, help="oracle file")
    p.add_argument("--pairs", required=True, help="file with one 'j u' pair per line")
    p.set_defaults(func=_cmd_path)

    p = sub.add_parser("verify", help="check an oracle against brute force")
    p.add_argument("-i", "--input", required=True, help="graph JSON file")
    p.add_argument("--face", default="auto-outer")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--exhaustive", action="store_true",
                   help="check every pair even on large instances")
    p.add_argument("--path-checks", type=int, default=200)
    p.add_argument("--json", metavar="PATH", help="also write the report as JSON")
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except MsspError as exc:
        name = type(exc).__name__.removesuffix("Error")
        print(f"error {name}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        name = type(exc).__name__.removesuffix("Error")
        print(f"error {name}: {exc}", file=sys.stderr)
        return 1
    except json.JSONDecodeError as exc:
        print(f"error CorruptFile: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
