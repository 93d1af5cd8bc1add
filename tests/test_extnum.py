"""Exact extended-nonnegative arithmetic and horizon-aware distances."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from monoidgeo import (
    INF,
    ZERO,
    ExtNonNeg,
    TruncatedDistance,
    UndefinedProduct,
    ext_max,
    ext_min,
    truncated_min,
)
from builders import truncated_plus

rationals = st.fractions(min_value=0, max_value=1000)
ext_values = st.one_of(rationals.map(ExtNonNeg.of), st.just(INF))


def test_add_examples():
    assert ExtNonNeg.of(Fraction(1, 2)) + ExtNonNeg.of(Fraction(1, 3)) == ExtNonNeg.of(Fraction(5, 6))
    assert ExtNonNeg.of(Fraction(7, 4)) + INF == INF
    assert ZERO + ZERO == ZERO


def test_scale_examples():
    assert ExtNonNeg.of(Fraction(3, 4)).scale(2) == ExtNonNeg.of(Fraction(3, 2))
    assert INF.scale(3) == INF
    with pytest.raises(UndefinedProduct):
        INF.scale(0)


def test_compare_examples():
    assert INF.compare(INF) == 0
    assert ExtNonNeg.of(Fraction(5, 6)).compare(INF) < 0
    assert ExtNonNeg.of(Fraction(2, 4)).compare(ExtNonNeg.of(Fraction(1, 2))) == 0


def test_negative_rejected():
    with pytest.raises(ValueError):
        ExtNonNeg.of(Fraction(-1, 2))


@given(ext_values, ext_values, ext_values)
def test_add_associative_commutative(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a


@given(ext_values)
def test_zero_is_identity(a):
    assert a + ZERO == a


@given(ext_values, ext_values, ext_values)
def test_total_order(a, b, c):
    # antisymmetry
    if a <= b and b <= a:
        assert a == b
    # transitivity
    if a <= b and b <= c:
        assert a <= c
    # totality
    assert a <= b or b <= a


def test_infinite_above_everything():
    assert ExtNonNeg.of(10**30) < INF
    assert ext_min([INF, ExtNonNeg.of(3)]) == ExtNonNeg.of(3)
    assert ext_min([]) == INF
    assert ext_max([ExtNonNeg.of(3), INF]) == INF


def test_lowest_terms_canonical():
    a = ExtNonNeg.finite(2, 4)
    assert a.finite_value().numerator == 1
    assert a.finite_value().denominator == 2


# -- truncated distances ----------------------------------------------------


def test_unknown_above_must_be_finite():
    with pytest.raises(ValueError):
        TruncatedDistance.unknown_above(INF)


def test_plus_infinite_dominates_unknown():
    u = TruncatedDistance.unknown_above(ExtNonNeg.of(8))
    inf = TruncatedDistance.known(INF)
    assert truncated_plus(u, inf) == inf
    assert truncated_plus(inf, u) == inf


def test_plus_unknown_propagates():
    u = TruncatedDistance.unknown_above(ExtNonNeg.of(8))
    k = TruncatedDistance.known(ExtNonNeg.of(Fraction(1, 2)))
    out = truncated_plus(u, k)
    assert not out.is_known
    assert out.value == ExtNonNeg.of(Fraction(17, 2))


def test_truncated_min_exact_when_known_below_bounds():
    items = [
        TruncatedDistance.known(ExtNonNeg.of(3)),
        TruncatedDistance.unknown_above(ExtNonNeg.of(8)),
    ]
    out = truncated_min(items)
    assert out.is_known and out.value == ExtNonNeg.of(3)


def test_truncated_min_stays_unknown_when_bound_below_known():
    items = [
        TruncatedDistance.known(ExtNonNeg.of(9)),
        TruncatedDistance.unknown_above(ExtNonNeg.of(8)),
    ]
    out = truncated_min(items)
    assert not out.is_known
    assert out.value == ExtNonNeg.of(8)


def test_truncated_min_empty_is_infinite():
    out = truncated_min([])
    assert out.is_known and out.value == INF
