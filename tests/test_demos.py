"""Every demo script runs to the end and prints what it promises."""

from __future__ import annotations

import re
import runpy
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(path, capsys):
    runpy.run_path(str(path))["main"]()
    out = capsys.readouterr().out
    assert out
    if path.stem == "contraction_walkthrough":
        # contraction leaves the interval root's distances unchanged
        assert ": 0 changed" in out
    if path.stem == "path_reporting":
        # a descent probes at most one record table per level below the top
        m = re.search(r"at most (\d+) record tables probed per descent"
                      r" \(bound ceil\(log2 N\) = (\d+)\)", out)
        assert m and 0 < int(m[1]) <= int(m[2])


def test_demos_are_found():
    assert [p.stem for p in DEMOS] == ["contraction_walkthrough", "grid_tour", "path_reporting"]
