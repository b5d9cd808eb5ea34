"""Multiple-source shortest path oracles for planar embedded digraphs.

Given a plane digraph with non-negative arc weights and a distinguished
face, preprocessing in O(n log f) time and space yields exact distance
queries from any of the f face vertices to any vertex in O(log f) time,
plus shortest path reporting in time proportional to the path length.

Typical flow:

    >>> from planar_mssp import gen_grid, normalize, build
    >>> graph, outer = gen_grid(4, seed=1)
    >>> oracle = build(normalize(graph, outer, seed=1))
    >>> oracle.distance(0, 9)  # doctest: +SKIP
    118
"""

from __future__ import annotations

from . import errors
from .embedded_graph import EmbeddedDigraph, build_graph, reverse_dart
from .errors import (
    BadRootIndexError,
    BadRotationError,
    CorruptFileError,
    DisconnectedInputError,
    DuplicateArcError,
    FaceNotFoundError,
    FaceVertexQueryError,
    FormatLimitError,
    GraphError,
    MsspError,
    NegativeWeightError,
    PerturbationTieError,
    SelfLoopSlotError,
    UnreachableError,
    UnreachableVertexError,
    VersionMismatchError,
)
from .harness import (
    VerificationReport,
    brute_distances,
    gen_grid,
    gen_random_planar,
    verify,
)
from .io import graph_from_json, graph_to_json, load_graph, save_graph
from .mssp import BuildStats, MsspOracle, build, load
from .normalize import (
    UNREACHABLE,
    ArcInfo,
    NormalizedInstance,
    normalize,
)
from .sssp import SSSPTree, sssp_tree

__version__ = "0.1.0"

__all__ = [
    "ArcInfo",
    "BadRootIndexError",
    "BadRotationError",
    "BuildStats",
    "CorruptFileError",
    "DisconnectedInputError",
    "DuplicateArcError",
    "EmbeddedDigraph",
    "FaceNotFoundError",
    "FaceVertexQueryError",
    "FormatLimitError",
    "GraphError",
    "MsspError",
    "MsspOracle",
    "NegativeWeightError",
    "NormalizedInstance",
    "PerturbationTieError",
    "SSSPTree",
    "SelfLoopSlotError",
    "UNREACHABLE",
    "UnreachableError",
    "UnreachableVertexError",
    "VerificationReport",
    "VersionMismatchError",
    "brute_distances",
    "build",
    "build_graph",
    "errors",
    "gen_grid",
    "gen_random_planar",
    "graph_from_json",
    "graph_to_json",
    "load",
    "load_graph",
    "normalize",
    "reverse_dart",
    "save_graph",
    "sssp_tree",
    "verify",
    "__version__",
]
