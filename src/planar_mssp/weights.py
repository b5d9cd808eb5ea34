"""Lexicographic arc weights.

A LexWeight is a pair (base, perturb) of non-negative integers compared
lexicographically and added componentwise. The base carries the real
distance; the perturb component is a pseudo-random tie-breaker that makes
shortest paths unique.
"""

from __future__ import annotations

from typing import NamedTuple


class LexWeight(NamedTuple):
    base: int
    perturb: int = 0

    def __add__(self, other):  # type: ignore[override]
        return LexWeight(self.base + other[0], self.perturb + other[1])

    def __repr__(self) -> str:
        return f"LexWeight({self.base}, {self.perturb})"


ZERO = LexWeight(0, 0)
