"""The layer functions the traced benchmark wraps stay where it wraps them.

perfbench/spans.py replaces these module attributes with timing wrappers
for a traced run. If build stopped calling a layer through its module
binding, the run would still pass but report zero time for that layer.
It also wraps MsspOracle.to_json by name, so a traced run fails outright
if that method goes.
"""

from __future__ import annotations

from collections import Counter

import planar_mssp.contraction as contraction_mod
import planar_mssp.mssp as mssp_mod
from planar_mssp import EmbeddedDigraph, MsspOracle, build, gen_grid, normalize

MSSP_LAYERS = ("sssp_tree", "out_adjacency", "select_trees", "contract_tree")


def test_layer_functions_are_bound_in_their_modules():
    for name in MSSP_LAYERS:
        assert callable(getattr(mssp_mod, name)), name
    assert callable(contraction_mod.shared_forest)


def test_build_calls_every_wrapped_layer(monkeypatch):
    g, outer = gen_grid(5, seed=3)
    norm = normalize(g, outer, seed=3)
    calls: Counter[str] = Counter()
    settled: list[int] = []

    def counting(name, fn):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            result = fn(*args, **kwargs)
            if name == "sssp_tree":
                settled.append(len(result.dist))
            return result

        return wrapped

    for name in MSSP_LAYERS:
        monkeypatch.setattr(mssp_mod, name, counting(name, getattr(mssp_mod, name)))
    monkeypatch.setattr(
        contraction_mod, "shared_forest", counting("shared_forest", contraction_mod.shared_forest)
    )
    monkeypatch.setattr(EmbeddedDigraph, "copy", counting("copy", EmbeddedDigraph.copy))
    build(norm)
    for name in (*MSSP_LAYERS, "shared_forest", "copy"):
        assert calls[name] >= 1, f"build never called {name}"
    assert len(settled) == calls["sssp_tree"] and min(settled) >= 1


def test_to_json_is_kept_for_the_tracer():
    assert callable(MsspOracle.to_json)
    g, outer = gen_grid(3, seed=1)
    doc = build(normalize(g, outer, seed=1)).to_json()
    assert {"tables", "records", "arcs", "n_original", "version"} <= doc.keys()
