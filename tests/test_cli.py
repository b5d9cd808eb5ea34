"""Command line interface, run in-process through main(argv)."""

from __future__ import annotations

import json
import re
import time

import pytest

from planar_mssp import FaceNotFoundError, build, build_graph, load, load_graph, normalize
from planar_mssp.cli import _face_index, main
from tests.conftest import answers
from tests.test_mssp import GRID3_DIST


@pytest.fixture
def grid3_files(tmp_path):
    g = tmp_path / "g.json"
    o = tmp_path / "o.json"
    assert main(["gen", "--grid", "3", "--seed", "1", "-o", str(g)]) == 0
    assert main(["build", "-i", str(g), "-o", str(o), "--seed", "1"]) == 0
    return g, o


def pairs_file(tmp_path, pairs, name="pairs.txt"):
    p = tmp_path / name
    p.write_text("".join(f"{j} {u}\n" for j, u in pairs))
    return str(p)


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("planar-mssp ")


def test_gen_reports_shape(tmp_path, capsys):
    out = tmp_path / "g.json"
    assert main(["gen", "--grid", "3", "--seed", "1", "-o", str(out)]) == 0
    msg = capsys.readouterr().out
    assert "9 vertices" in msg and "12 slots" in msg and "outer face" in msg
    g, outer = load_graph(str(out))
    assert g.vertex_count == 9
    assert outer is not None


def test_build_reports_stats(tmp_path, capsys):
    g = tmp_path / "g.json"
    o = tmp_path / "o.json"
    assert main(["gen", "--grid", "3", "--seed", "1", "-o", str(g)]) == 0
    capsys.readouterr()
    assert main(["build", "-i", str(g), "-o", str(o), "--seed", "1"]) == 0
    msg = capsys.readouterr().out
    assert "built" in msg
    assert "9 vertices, 8 ring roots" in msg
    assert re.search(r"build \d+\.\d\ds, save \d+\.\d\ds$", msg.strip())
    assert load(str(o)).ring_count == 8
    # a loaded oracle has no build report: build the same graph and seed
    graph, outer = load_graph(str(g))
    s = build(normalize(graph, outer, 1)).stats
    assert (
        f"{s.stored_entries} stored entries ({s.stored_rows} table rows,"
        f" {s.record_entries} record entries)"
    ) in msg


def test_query_chain_matches_frozen_distances(tmp_path, grid3_files, capsys):
    _, o = grid3_files
    oracle = load(str(o))
    pairs = [(j, u) for j in range(8) for u in (0, 4, 8)]
    pf = pairs_file(tmp_path, pairs)
    capsys.readouterr()
    assert main(["query", "-i", str(o), "--pairs", pf]) == 0
    lines = capsys.readouterr().out.splitlines()
    expected = [str(GRID3_DIST[oracle.face_vertices[j]][u]) for j, u in pairs]
    assert lines == expected


def test_path_chain_is_consistent(tmp_path, grid3_files, capsys):
    _, o = grid3_files
    oracle = load(str(o))
    pairs = [(0, 8), (3, 0), (5, 5)]
    pf = pairs_file(tmp_path, pairs)
    capsys.readouterr()
    assert main(["path", "-i", str(o), "--pairs", pf]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == [
        " ".join(map(str, oracle.query_path(j, u))) for j, u in pairs
    ]
    # a path to the root's own vertex is the empty line
    own = oracle.face_vertices[2]
    pf2 = pairs_file(tmp_path, [(2, own)], "own.txt")
    assert main(["path", "-i", str(o), "--pairs", pf2]) == 0
    assert capsys.readouterr().out == "\n"


def test_pairs_file_comments_and_errors(tmp_path, grid3_files, capsys):
    _, o = grid3_files
    p = tmp_path / "pairs.txt"
    p.write_text("# heading\n\n0 0\n  1 8  \n")
    capsys.readouterr()
    assert main(["query", "-i", str(o), "--pairs", str(p)]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 2

    p.write_text("0 1 2\n")
    assert main(["query", "-i", str(o), "--pairs", str(p)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error CorruptFile: ")
    assert f"{p}:1:" in err

    p.write_text("a b\n")
    assert main(["query", "-i", str(o), "--pairs", str(p)]) == 1
    assert "two integers" in capsys.readouterr().err


def test_query_bad_root_error_line(tmp_path, grid3_files, capsys):
    _, o = grid3_files
    pf = pairs_file(tmp_path, [(99, 0)])
    capsys.readouterr()
    assert main(["query", "-i", str(o), "--pairs", pf]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error BadRootIndex: ")


def test_path_unreachable_line(tmp_path, capsys):
    from planar_mssp import build_graph, save_graph
    from tests.conftest import TRI_ONEWAY_SLOTS

    g = tmp_path / "tri.json"
    o = tmp_path / "tri-oracle.json"
    save_graph(build_graph(3, TRI_ONEWAY_SLOTS), str(g))
    assert main(["build", "-i", str(g), "-o", str(o), "--face", "0"]) == 0
    oracle = load(str(o))
    j = oracle.face_vertices.index(1)
    pf = pairs_file(tmp_path, [(j, 0), (j, 2)])
    capsys.readouterr()
    assert main(["path", "-i", str(o), "--pairs", pf]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "UNREACHABLE"
    assert main(["query", "-i", str(o), "--pairs", pf]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "UNREACHABLE"


def test_face_by_vertex_list_and_index(tmp_path, grid3_files, capsys):
    g, o = grid3_files
    by_list = tmp_path / "by-list.json"
    assert main([
        "build", "-i", str(g), "-o", str(by_list),
        "--face", "0,1,2,5,8,7,6,3", "--seed", "1",
    ]) == 0
    a = load(str(o))
    b = load(str(by_list))
    assert a.face_vertices == b.face_vertices
    assert answers(a, 0, 8) == answers(b, 0, 8)

    _, stored = load_graph(str(g))
    by_index = tmp_path / "by-index.json"
    assert main([
        "build", "-i", str(g), "-o", str(by_index),
        "--face", str(stored), "--seed", "1",
    ]) == 0
    c = load(str(by_index))
    assert answers(a, 3, 4) == answers(c, 3, 4)


def test_face_errors(tmp_path, grid3_files, capsys):
    from planar_mssp import save_graph

    g, _ = grid3_files
    bare = tmp_path / "bare.json"
    graph, _ = load_graph(str(g))
    save_graph(graph, str(bare))  # no outer face recorded
    capsys.readouterr()
    assert main(["build", "-i", str(bare), "-o", str(tmp_path / "x.json")]) == 1
    assert capsys.readouterr().err.startswith("error FaceNotFound: ")

    assert main([
        "build", "-i", str(g), "-o", str(tmp_path / "x.json"), "--face", "1,2,3",
    ]) == 1
    assert "no face has boundary" in capsys.readouterr().err

    assert main([
        "build", "-i", str(g), "-o", str(tmp_path / "x.json"), "--face", "abc",
    ]) == 1
    assert capsys.readouterr().err.startswith("error FaceNotFound: ")


def test_face_list_match_is_linear_in_the_face_length():
    # a 30 000-vertex cycle has two faces of that length; a list that is
    # neither must fail fast, and a cyclic shift of a face names it
    n = 30_000
    graph = build_graph(n, [(i, (i + 1) % n, 0, 1, 1, 1) for i in range(n)])
    walks = [[graph.dart_vertex(d) for d in w] for w in graph.face_walks()]
    swapped = [*range(n - 2), n - 1, n - 2]
    start = time.perf_counter()
    with pytest.raises(FaceNotFoundError, match="no face has boundary"):
        _face_index(graph, None, ",".join(map(str, swapped)))
    assert time.perf_counter() - start < 2.0
    for fi, walk in enumerate(walks):
        shifted = walk[n // 3:] + walk[:n // 3]
        assert _face_index(graph, None, ",".join(map(str, shifted))) == fi


def test_seed_defaults_to_zero(tmp_path, monkeypatch):
    # --seed is the one way to set the seed: the environment does not
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    monkeypatch.setenv("MSSP_SEED", "7")
    assert main(["gen", "--grid", "4", "-o", str(a)]) == 0
    assert main(["gen", "--grid", "4", "--seed", "0", "-o", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_gen_delete_prob(tmp_path):
    out = tmp_path / "r.json"
    assert main([
        "gen", "--grid", "5", "--seed", "3", "--delete-prob", "0.3", "-o", str(out),
    ]) == 0
    g, outer = load_graph(str(out))
    assert g.connected_undirected()
    assert g.slot_count <= 40
    g.check()


@pytest.mark.parametrize(("flag", "value", "message"), [
    ("--grid", "0", "grid side must be positive, got 0"),
    ("--delete-prob", "1.5", "delete probability must be in [0, 1], got 1.5"),
    ("--delete-prob", "-0.5", "delete probability must be in [0, 1], got -0.5"),
    ("--delete-prob", "nan", "delete probability must be in [0, 1], got nan"),
    ("--max-weight", "-1", "max weight must be non-negative, got -1"),
])
def test_gen_rejects_a_value_out_of_range(tmp_path, capsys, flag, value, message):
    out = tmp_path / "g.json"
    args = {"--grid": "3", "--delete-prob": "0.0", "--max-weight": "100", flag: value}
    assert main(["gen", *(f"{k}={v}" for k, v in args.items()), "-o", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error Value: {message}\n"
    assert not out.exists()


def test_missing_input_file(tmp_path, capsys):
    missing = str(tmp_path / "nope.json")
    assert main(["query", "-i", missing, "--pairs", missing]) == 1
    assert capsys.readouterr().err.startswith("error FileNotFound: ")


def test_corrupt_oracle_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    pf = pairs_file(tmp_path, [(0, 0)])
    assert main(["query", "-i", str(bad), "--pairs", pf]) == 1
    assert capsys.readouterr().err.startswith("error CorruptFile: ")


@pytest.mark.parametrize("cmd", ["build", "verify"])
def test_graph_file_not_utf8(tmp_path, capsys, cmd):
    g = tmp_path / "g.json"
    g.write_bytes(b'\xff\xfe{"format": "planar-mssp-graph"}')
    out = ["-o", str(tmp_path / "o.bin")] if cmd == "build" else []
    assert main([cmd, "-i", str(g), *out]) == 1
    assert capsys.readouterr().err.startswith("error CorruptFile: ")


def test_graph_file_nested_too_deep(tmp_path, capsys):
    g = tmp_path / "g.json"
    g.write_text("[" * 200000)
    assert main(["build", "-i", str(g), "-o", str(tmp_path / "o.bin")]) == 1
    assert capsys.readouterr().err.startswith("error CorruptFile: ")


@pytest.mark.parametrize("cmd", ["query", "path"])
def test_pairs_file_not_utf8(tmp_path, grid3_files, capsys, cmd):
    _, o = grid3_files
    p = tmp_path / "pairs.txt"
    p.write_bytes(b"0 1\n\xff 2\n")
    capsys.readouterr()
    assert main([cmd, "-i", str(o), "--pairs", str(p)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error CorruptFile: ") and "UTF-8" in err


def test_verify_cli(tmp_path, grid3_files, capsys):
    g, _ = grid3_files
    report_path = tmp_path / "report.json"
    capsys.readouterr()
    code = main([
        "verify", "-i", str(g), "--seed", "1", "--json", str(report_path),
    ])
    out = capsys.readouterr().out
    assert code == 0
    assert "result: PASS" in out
    doc = json.loads(report_path.read_text())
    assert doc["passed"] is True
    assert doc["mismatch_count"] == 0


def test_emit_trace(tmp_path, grid3_files):
    g, _ = grid3_files
    trace_path = tmp_path / "trace.json"
    assert main([
        "build", "-i", str(g), "-o", str(tmp_path / "o2.json"),
        "--seed", "1", "--emit-trace", str(trace_path),
        "--instrument",
    ]) == 0
    doc = json.loads(trace_path.read_text())
    assert doc["ring_count"] == 8
    assert doc["nodes"] and doc["records"]


@pytest.mark.parametrize("weight", [1.5, True])
def test_build_rejects_non_int_weight(tmp_path, capsys, weight):
    g = tmp_path / "g.json"
    assert main(["gen", "--grid", "2", "--seed", "1", "-o", str(g)]) == 0
    doc = json.loads(g.read_text())
    doc["slots"][0][2] = weight
    g.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["build", "-i", str(g), "-o", str(tmp_path / "o.json")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error Graph: ") and "not an int" in err
