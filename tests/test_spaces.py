"""Semimetric axioms, balls, set distances and quasi-metricity."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from monoidgeo import (
    INF,
    ZERO,
    CellSet,
    ExtNonNeg,
    FreeMonoid,
    GammaOracle,
    HorizonTooSmall,
    TruncatedDistance,
    WordMetricSpace,
    check_axioms,
    check_quasi_metric,
    gamma_set_distance,
)
from monoidgeo.spaces import Violation, ViolationReport
from builders import PairwiseSpace, bicyclic_monoid, cyclic_group
from test_gamma_table_reference import _distance_table

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
        def distance_rows(self, sample):
            rows, scale, inf = super().distance_rows(sample)
            rows[0][0] = scale  # d(ε, ε) = 1 violates (i)
            return rows, scale, inf

    report = check_axioms(Broken(F1, 8), F1.elements_up_to(1))
    assert not report.passed
    v = report.violations[0]
    assert v.inequality == "d(x,y) = 0 iff x = y"


def _check_axioms_reference(space, sample):
    """check_axioms as it was before the integer triangle kernel: one
    ExtNonNeg sum and comparison per triple."""
    sample = list(sample)
    d = _distance_table(space, sample)
    violations = []
    n = len(sample)
    for i in range(n):
        for j in range(n):
            equal = sample[i] == sample[j]
            zero = d[i, j] == ZERO
            if zero != equal:
                violations.append(
                    Violation(
                        points=(space.format_point(sample[i]), space.format_point(sample[j])),
                        inequality="d(x,y) = 0 iff x = y",
                        lhs=d[i, j],
                        rhs=ZERO if equal else d[i, j],
                    )
                )
    for i in range(n):
        for j in range(n):
            dij = d[i, j]
            for k in range(n):
                if d[i, k] > dij + d[j, k]:
                    violations.append(
                        Violation(
                            points=(
                                space.format_point(sample[i]),
                                space.format_point(sample[j]),
                                space.format_point(sample[k]),
                            ),
                            inequality="d(x,z) <= d(x,y) + d(y,z)",
                            lhs=d[i, k],
                            rhs=dij + d[j, k],
                        )
                    )
    return ViolationReport("axioms", violations)


class MatrixSpace(PairwiseSpace):
    """Points 0..n-1 with d(p, q) = rows[p][q]; None stands for infinity."""

    def __init__(self, rows):
        self.rows = [[None if v is None else Fraction(v) for v in row] for row in rows]

    def distance(self, p, q):
        v = self.rows[p][q]
        return TruncatedDistance.known(INF if v is None else ExtNonNeg.of(v))


def _triangle_report(rows):
    """check_axioms on every point of a matrix space, checked against the
    reference; returns the triangle violations as (points, lhs, rhs) strings."""
    space = MatrixSpace(rows)
    report = check_axioms(space, range(len(rows)))
    assert report.to_json() == _check_axioms_reference(space, range(len(rows))).to_json()
    return [
        (v.points, str(v.lhs), str(v.rhs)) for v in report.violations if v.inequality.startswith("d(x,z)")
    ]


def test_triangle_mixed_denominators():
    # 2/3 > 1/3 + 1/4; scaled by 4 (not the lcm 12) the three read 2, 1, 1 and pass.
    rows = [[0, "1/3", "2/3"], ["3/2", 0, "1/4"], ["1/4", "3/2", 0]]
    assert _triangle_report(rows) == [
        (("0", "1", "2"), "2/3", "7/12"),
        (("1", "2", "0"), "3/2", "1/2"),
        (("2", "0", "1"), "3/2", "7/12"),
    ]


def test_triangle_infinite_lhs_over_finite_sum():
    # d(0,1) and d(1,2) both equal the largest finite entry, so the sentinel
    # for infinity must exceed twice it.
    rows = [[0, 1, None], [None, 0, 1], [None, None, 0]]
    assert _triangle_report(rows) == [(("0", "1", "2"), "inf", "2")]
    report = check_axioms(MatrixSpace(rows), range(3))
    assert report.violations[0].lhs.to_json() == {"kind": "infinite"}


def test_axiom_i_on_repeated_points_matches_reference():
    # Point 0 occurs twice, so d(0, 0) = 0 passes at both of its positions;
    # d(0, 1) = 0 and d(2, 2) = 1 each fail (i).
    space = MatrixSpace([[0, 0, 1], [1, 0, 1], [1, 1, 1]])
    sample = [0, 1, 0, 2]
    report = check_axioms(space, sample)
    assert report.to_json() == _check_axioms_reference(space, sample).to_json()
    assert [v.points for v in report.violations if v.inequality == "d(x,y) = 0 iff x = y"] == [
        ("0", "1"), ("0", "1"), ("2", "2")
    ]


def test_triangle_exact_ties_pass():
    rows = [[0, "1/2", "5/4"], [None, 0, "3/4"], [None, None, 0]]
    assert check_axioms(MatrixSpace(rows), range(3)).passed
    assert _triangle_report(rows) == []


def test_triangle_infinite_first_leg_never_fails():
    # d(0,1) = inf bounds d(0,2) whatever d(1,2) is, finite or not.
    rows = [[0, None, 5, None], [None, 0, 1, None], [None, None, 0, 2], [None, None, None, 0]]
    assert _triangle_report(rows) == [(("0", "2", "3"), "inf", "7"), (("1", "2", "3"), "inf", "3")]


def test_triangle_violations_in_sample_order():
    rows = [[0, 1, 5, 5], [9, 0, 1, 1], [1, 9, 0, 9], [9, 9, 9, 0]]
    assert _triangle_report(rows) == [
        (("0", "1", "2"), "5", "2"),
        (("0", "1", "3"), "5", "2"),
        (("1", "2", "0"), "9", "2"),
        (("2", "0", "1"), "9", "2"),
        (("2", "0", "3"), "9", "6"),
    ]


def test_triangle_tiny_samples():
    assert check_axioms(MatrixSpace([]), []).to_json() == {"check": "axioms", "verdict": "pass", "violations": []}
    assert _triangle_report([[0]]) == []
    # No finite entry at all: d(0,0) = inf fails axiom (i) only.
    assert _triangle_report([[None]]) == []
    assert not check_axioms(MatrixSpace([[None]]), [0]).passed


_ENTRIES = st.sampled_from([0, Fraction(1, 3), Fraction(1, 2), 1, Fraction(5, 4), 2, None])


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=0, max_value=5).flatmap(
    lambda n: st.lists(st.lists(_ENTRIES, min_size=n, max_size=n), min_size=n, max_size=n)
))
def test_check_axioms_matches_reference_on_random_matrices(rows):
    _triangle_report(rows)


@st.composite
def _sparse_matrices(draw):
    """n <= 8 rows with at least half of the entries infinite, as on a tree."""
    n = draw(st.integers(min_value=1, max_value=8))
    cells = n * n
    infinite = set(draw(st.lists(st.integers(0, cells - 1), min_size=(cells + 1) // 2, max_size=cells, unique=True)))
    finite = iter(draw(st.lists(_ENTRIES.filter(lambda v: v is not None), min_size=cells, max_size=cells)))
    flat = [None if c in infinite else next(finite) for c in range(cells)]
    return [flat[i * n:(i + 1) * n] for i in range(n)]


@settings(max_examples=300, deadline=None)
@given(_sparse_matrices())
def test_check_axioms_matches_reference_on_sparse_matrices(rows):
    _triangle_report(rows)


def test_triangle_failure_outside_the_first_points_support():
    # d(0,2) is infinite, so 2 lies outside 0's finite support, but d(0,1)
    # and d(1,2) are finite: the pass over 1's support still finds it.
    rows = [[0, None, None, 1], [None, 0, 2, None], [None, None, 0, None], [None, 3, None, 0]]
    assert _triangle_report(rows) == [(("0", "3", "1"), "inf", "4"), (("3", "1", "2"), "inf", "5")]


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
