"""Lexicographic weight arithmetic and ordering."""

from __future__ import annotations

from hypothesis import given
from hypothesis import strategies as st

from planar_mssp import ZERO, LexWeight

finite = st.tuples(
    st.integers(min_value=0, max_value=1 << 62),
    st.integers(min_value=0, max_value=1 << 63),
).map(lambda t: LexWeight(*t))


def test_zero_is_identity():
    w = LexWeight(7, 3)
    assert w + ZERO == w
    assert ZERO + w == w


def test_addition_componentwise():
    assert LexWeight(2, 5) + LexWeight(9, 1) == LexWeight(11, 6)


def test_base_dominates_perturb():
    assert LexWeight(3, 10**18) < LexWeight(4, 0)
    assert LexWeight(3, 1) < LexWeight(3, 2)


def test_repr():
    assert repr(LexWeight(4, 2)) == "LexWeight(4, 2)"


@given(finite, finite)
def test_order_matches_tuple_order(a, b):
    assert (a < b) == (tuple(a) < tuple(b))
    assert (a == b) == (tuple(a) == tuple(b))


@given(finite, finite)
def test_addition_commutes(a, b):
    assert a + b == b + a


@given(finite, finite, finite)
def test_addition_associates(a, b, c):
    assert (a + b) + c == a + (b + c)


@given(finite, finite, finite)
def test_addition_monotone_in_order(a, b, c):
    if a < b:
        assert a + c <= b + c
