"""Semimetric axioms, balls, set distances and quasi-metricity."""

from fractions import Fraction

import pytest

from monoidgeo import (
    INF,
    CellSet,
    ExtNonNeg,
    FreeMonoid,
    GammaOracle,
    HorizonTooSmall,
    TruncatedDistance,
    WordMetricSpace,
    bicyclic_monoid,
    check_axioms,
    check_quasi_metric,
    gamma_set_distance,
)
from builders import cyclic_group

F1 = FreeMonoid(1, ["a"])
F2 = FreeMonoid(2, ["a", "b"])
Z3 = cyclic_group(3)


def test_axioms_pass_on_fixtures():
    for oracle in (F1, F2, Z3, bicyclic_monoid()):
        space = WordMetricSpace(oracle, 10)
        report = check_axioms(space, oracle.elements_up_to(3))
        assert report.passed, (oracle.name, report.to_json())


def test_axioms_catch_broken_space():
    class Broken(WordMetricSpace):
        def points_equal(self, p, q):
            return False  # claims ε != ε, so d = 0 on the diagonal violates (i)

    report = check_axioms(Broken(F1, 8), F1.elements_up_to(1))
    assert not report.passed
    v = report.violations[0]
    assert v.inequality == "d(x,y) = 0 iff x = y"


def _set_distance(oracle, A, B):
    """The least word distance over A x B, read off the vertex cell sets."""
    return gamma_set_distance(oracle, CellSet(A), CellSet(B), 8)


def test_set_distance_min_and_empty():
    assert _set_distance(F1, [(), ("a",)], [("a", "a", "a")]) == TruncatedDistance.known(ExtNonNeg.of(2))
    assert _set_distance(F1, [], [()]) == TruncatedDistance.known(INF)


def _ball(oracle, center, radius, kind, horizon=8):
    """The vertices of a ball of the word semimetric, as the `ball` command
    finds them (the vertex part of the Cayley graph's ball)."""
    return sorted(GammaOracle(oracle, horizon).ball_cellset(center, radius, kind).vertices)


def test_ball_out_in_strong():
    assert _ball(F1, ("a",), 2, "out") == [("a",), ("a", "a"), ("a", "a", "a")]
    assert _ball(F1, ("a", "a"), 1, "in") == [("a",), ("a", "a")]
    # strong ball in a free monoid degenerates to the center
    assert _ball(F1, ("a",), 2, "strong") == [("a",)]
    # in Z/3, d(g, e) = 2, so even the group's strong 1-ball is only {e}
    assert _ball(Z3, (), 1, "strong") == [()]
    assert _ball(Z3, (), 2, "strong") == [(), ("g",), ("g", "g")]


def test_ball_radius_beyond_horizon():
    with pytest.raises(HorizonTooSmall):
        _ball(F1, (), 9, "out")


def test_quasi_metric_group_passes():
    space = WordMetricSpace(Z3, 8)
    report = check_quasi_metric(space, Z3.elements_up_to(3), Fraction(2), Fraction(0))
    assert report.passed


def test_quasi_metric_free_monoid_fails():
    space = WordMetricSpace(F1, 8)
    report = check_quasi_metric(space, F1.elements_up_to(3), Fraction(4), Fraction(4))
    assert not report.passed
    v = report.violations[0]
    assert v.lhs == INF  # the witness is an infinite forward distance
