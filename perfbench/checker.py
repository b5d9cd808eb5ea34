"""Brute-force answers and the checks every timed answer must pass.

Expected values come from ``harness.brute_distances`` on the normalized
graph, computed before the timed loops. An answer fails when

* a distance differs from the brute-force distance (``UNREACHABLE`` when
  that distance needs an augmentation arc, i.e. reaches ``w_big``);
* a path is not a contiguous walk of original arcs from ``face_vertices[j]``
  to ``u`` whose (base, perturbation) weight equals the brute-force one;
* ``UnreachableError`` is raised where brute force finds a path, or any
  other error is raised;
* the query's descent depth exceeds ``ceil(log2 N) + 1``.
"""

from __future__ import annotations

import math

from planar_mssp import UNREACHABLE, UnreachableError, brute_distances
from planar_mssp.normalize import ARC_ORIGINAL, ARC_SPOKE

# finite path bases stay below 2**62 (the package's admission cap)
_FINITE = 1 << 62


def brute_expected(norm, pairs) -> dict[tuple[int, int], tuple[int, int]]:
    """(base, perturbation) distance of every (j, u) in pairs."""
    wanted: dict[int, set[int]] = {}
    for j, u in pairs:
        wanted.setdefault(j, set()).add(u)
    arcs = [(a.tail, a.head, a.base, a.perturb) for a in norm.arcs.values() if a.base < _FINITE]
    rings = set(norm.ring_roots)
    out: dict[tuple[int, int], tuple[int, int]] = {}
    for j, us in sorted(wanted.items()):
        src = norm.ring_roots[j]
        dist = brute_distances(arcs, src, rings - {src})
        for u in us:
            out[j, u] = dist[u]
    return out


def depth_bound(roots: int) -> int:
    return math.ceil(math.log2(roots)) + 1 if roots > 1 else 1


class Checker:
    """Judges answers against brute force; counts failures."""

    def __init__(self, norm, expected, depths: list[int]):
        self.expected = expected
        self.w_big = norm.w_big
        self.arcs = norm.arcs
        self.face_vertices = norm.face_vertices
        self.spoke_perturb = {
            norm.ring_index[a.tail]: a.perturb for a in norm.arcs.values() if a.kind == ARC_SPOKE
        }
        bound = depth_bound(len(norm.ring_roots))
        self.deep = {j for j, d in enumerate(depths) if d > bound}

    def distance_ok(self, j: int, u: int, answer) -> bool:
        if j in self.deep:
            return False
        base, _ = self.expected[j, u]
        return answer == (UNREACHABLE if base >= self.w_big else base)

    def path_ok(self, j: int, u: int, answer) -> bool:
        if j in self.deep:
            return False
        base, perturb = self.expected[j, u]
        if base >= self.w_big:
            return isinstance(answer, UnreachableError)
        if not isinstance(answer, list):
            return False
        cur = self.face_vertices[j]
        tb = tp = 0
        for aid in answer:
            a = self.arcs.get(aid)
            if a is None or a.kind != ARC_ORIGINAL or a.tail != cur:
                return False
            cur = a.head
            tb += a.base
            tp += a.perturb
        return cur == u and tb == base and tp == perturb - self.spoke_perturb[j]

    def count_failures(self, pairs, answers, ok) -> int:
        """Failures among answers[i] to pairs[i % len(pairs)].

        The same pair always gets the same answer from a correct oracle, so
        a repeat equal to the first answer shares its verdict.
        """
        first: dict[int, tuple[object, bool]] = {}
        failed = 0
        n = len(pairs)
        for i, answer in enumerate(answers):
            slot = i % n
            seen = first.get(slot)
            if seen is not None and seen[0] == answer:
                good = seen[1]
            else:
                good = ok(*pairs[slot], answer)
                first.setdefault(slot, (answer, good))
            failed += not good
        return failed
