"""The value types keep the contract of the frozen dataclasses they were.

``Vertex``, ``EdgePoint``, ``Segment``, ``ExtNonNeg``, ``TruncatedDistance``
and ``Violation`` are plain slotted classes.  Each instance equals only an
instance of its own class with equal fields, hashes as the tuple of its
fields, refuses assignment and deletion of a field, and its constructor
still converts and checks its arguments.  The records' constructors keep
their defaults and checks too.
"""

from fractions import Fraction

import pytest

from monoidgeo import (
    INF,
    EdgePoint,
    ExtNonNeg,
    GammaOracle,
    InvalidElement,
    PropertyReport,
    Segment,
    SmInput,
    TruncatedDistance,
    Vertex,
    Violation,
    ViolationReport,
)
from builders import cyclic_group

W = ("a", "b")
HALF = Fraction(1, 2)

# (class, field names, field values, the same values with one field changed)
CASES = [
    (Vertex, ("element",), (W,), (("a",),)),
    (EdgePoint, ("element", "gen", "mu"), (W, "a", HALF), (W, "b", HALF)),
    (Segment, ("element", "gen", "lo", "hi"), (W, "a", Fraction(0), HALF), (W, "a", Fraction(0), Fraction(1))),
    (ExtNonNeg, ("frac",), (Fraction(3, 2),), (Fraction(2),)),
    (TruncatedDistance, ("kind", "value"), ("known", ExtNonNeg(Fraction(1))), ("unknown_above", ExtNonNeg(Fraction(1)))),
    (Violation, ("points", "inequality", "lhs", "rhs"), (("x", "y"), "d(x,y) = 0 iff x = y", INF, INF),
     (("y", "x"), "d(x,y) = 0 iff x = y", INF, INF)),
]
IDS = [case[0].__name__ for case in CASES]


@pytest.mark.parametrize("cls, names, values, other", CASES, ids=IDS)
def test_equality_and_hash_follow_the_field_tuple(cls, names, values, other):
    a, b = cls(*values), cls(**dict(zip(names, values)))
    assert a == b and not (a != b)
    assert hash(a) == hash(b) == hash(values)
    assert tuple(getattr(a, name) for name in names) == values
    assert a != cls(*other)
    assert len({a, b, cls(*other)}) == 2


@pytest.mark.parametrize("cls, names, values, other", CASES, ids=IDS)
def test_equality_holds_only_within_the_class(cls, names, values, other):
    a = cls(*values)
    assert a != values and values != a
    assert a.__eq__(values) is NotImplemented
    assert a.__eq__(object()) is NotImplemented
    # A subclass with the same fields is another class.
    sub = type("Sub", (cls,), {"__slots__": ()})
    assert a != sub(*values)


@pytest.mark.parametrize("cls, names, values, other", CASES, ids=IDS)
def test_fields_cannot_be_assigned_or_deleted(cls, names, values, other):
    a = cls(*values)
    for name, value in zip(names, other):
        with pytest.raises(AttributeError):
            setattr(a, name, value)
        with pytest.raises(AttributeError):
            delattr(a, name)
    with pytest.raises(AttributeError):
        a.extra = 1
    assert tuple(getattr(a, name) for name in names) == values


@pytest.mark.parametrize("cls, names, values, other", CASES, ids=IDS)
def test_repr_names_the_fields(cls, names, values, other):
    a = cls(*values)
    assert repr(a) == f"{cls.__name__}(" + ", ".join(f"{n}={v!r}" for n, v in zip(names, values)) + ")"


def test_vertex_hashes_as_its_one_field_tuple():
    assert hash(Vertex(W)) == hash((W,))
    assert hash(ExtNonNeg(None)) == hash((None,))


def test_ext_nonneg_is_not_a_fraction():
    assert ExtNonNeg(Fraction(1)) != Fraction(1)
    assert Fraction(1) != ExtNonNeg(Fraction(1))
    assert ExtNonNeg(Fraction(1)) != 1


def test_constructors_convert_their_numbers():
    e = ExtNonNeg(2)
    assert type(e.frac) is Fraction and e == ExtNonNeg(Fraction(2))
    assert ExtNonNeg("3/4").frac == Fraction(3, 4)
    p = EdgePoint(W, "a", "1/3")
    assert type(p.mu) is Fraction and p == EdgePoint(W, "a", Fraction(1, 3))


@pytest.mark.parametrize("mu", [0, 1, Fraction(0), Fraction(1), Fraction(-1, 2), Fraction(3, 2)])
def test_edge_point_offset_must_lie_strictly_inside_the_edge(mu):
    with pytest.raises(InvalidElement):
        EdgePoint(W, "a", mu)


@pytest.mark.parametrize("lo, hi", [(HALF, Fraction(1, 3)), (Fraction(-1, 2), HALF), (HALF, Fraction(3, 2))])
def test_segment_bounds_must_be_ordered_inside_the_edge(lo, hi):
    with pytest.raises(InvalidElement):
        Segment(W, "a", lo, hi)


@pytest.mark.parametrize("x", [-1, Fraction(-1, 3), "-2"])
def test_ext_nonneg_rejects_negative_values(x):
    with pytest.raises(ValueError):
        ExtNonNeg(x)


def test_truncated_distance_rejects_a_bad_kind_and_an_infinite_bound():
    with pytest.raises(ValueError, match="bad kind"):
        TruncatedDistance("exact", ExtNonNeg(Fraction(1)))
    with pytest.raises(ValueError, match="must be finite"):
        TruncatedDistance("unknown_above", INF)
    assert TruncatedDistance("known", INF).value is INF


@pytest.fixture(scope="module")
def gamma():
    return GammaOracle(cyclic_group(3), 4)


@pytest.mark.parametrize("radius", [0, Fraction(-1, 2), 5, Fraction(9, 2)])
def test_sm_input_radius_must_be_positive_and_within_the_horizon(gamma, radius):
    with pytest.raises(ValueError):
        SmInput(gamma.monoid, gamma, radius=radius, horizon=4)


def test_sm_input_converts_its_radius(gamma):
    inp = SmInput(gamma.monoid, gamma, "3/2", 4)
    assert inp.radius == Fraction(3, 2) and type(inp.radius) is Fraction
    assert inp.representatives == ((),)
    assert SmInput(gamma.monoid, gamma, 4, 4).radius == 4


def test_records_keep_their_defaults_and_fresh_containers():
    a, b = PropertyReport("p", "pass", 3), PropertyReport("p", "pass", 3)
    assert a.witnesses == [] and a.artifacts == {}
    a.witnesses.append(1)
    a.artifacts["k"] = 1
    assert b.witnesses == [] and b.artifacts == {}
    r1, r2 = ViolationReport("axioms"), ViolationReport("axioms")
    r1.violations.append(1)
    assert r2.violations == [] and r2.passed
    assert PropertyReport("p", "holds_at_horizon", 3).witnesses == []
