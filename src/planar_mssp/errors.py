"""Exception types raised across the package."""

from __future__ import annotations


class MsspError(Exception):
    """Base class for all errors raised by this package."""


class GraphError(MsspError):
    """Structural problem in an embedded graph or an operation on one."""


class DuplicateArcError(GraphError):
    """Two arcs were declared for the same ordered vertex pair."""


class BadRotationError(GraphError):
    """Rotation positions at some vertex do not form 0..deg-1 exactly once."""


class NegativeWeightError(GraphError):
    """An arc was given a negative base weight or perturbation."""


class SelfLoopSlotError(GraphError):
    """A slot has equal endpoints."""


class DisconnectedInputError(MsspError):
    """The input graph is not connected in the undirected sense."""


class FaceNotFoundError(MsspError):
    """The face handed to normalize is not a face walk of the graph."""


class UnreachableVertexError(MsspError):
    """A shortest-path tree failed to reach a vertex it was required to reach."""


class BadRootIndexError(MsspError):
    """A query used a root index outside 0..N-1."""


class FaceVertexQueryError(MsspError):
    """A query targeted a ring vertex, which is not a legal target."""


class UnreachableError(MsspError):
    """A path was requested for a pair whose distance is not a real path."""


class VersionMismatchError(MsspError):
    """A persisted oracle was written by an incompatible format version."""


class CorruptFileError(MsspError):
    """A persisted oracle or graph file could not be decoded."""


class FormatLimitError(MsspError):
    """A value does not fit int64, the widest column of the oracle file."""


class PerturbationTieError(MsspError):
    """Two arcs from one vertex to one neighbour had equal (base, perturb)
    weights in contraction's dedup, so shortest paths are not unique.

    normalize's random 63-bit perturbations make a tie vanishingly
    unlikely; a graph whose perturbations were set by hand can meet one.
    """
