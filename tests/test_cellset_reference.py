"""Integer cell sets against the Fraction construction they replaced.

A translate mB is made by relabelling B's bases and keeping its integer
bounds; ``former_translate`` is the former ``CellSet.translate``, the
constructor over one product per vertex and per segment, and
``former_contains`` the former scan over every segment.  On every fixture
the translates of the strong ball B at R = 1/2, 1 and 2 over the horizon
ball must equal the former ones, answer membership alike, and lie at the
same set distance from B, kind included, as the constructor-built sets and
the pointwise ``reference_set_distance`` give; so must those of the
out-ball of radius R (n3 cannot build a strong ball).  On the out-balls of
zero and bicyclic some translates identify bases, and their segments must
merge as the constructor merges them.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from monoidgeo import CellSet, EdgePoint, GammaOracle, HorizonTooSmall, Segment, gamma_set_distance
from monoidgeo.cayley import Translates
from builders import sample_points
from test_distance_field import ORACLES
from test_gamma_table_reference import FIXTURES, load
from test_set_distance import reference_set_distance

HORIZON = 4
RADII = (Fraction(1, 2), Fraction(1), Fraction(2))
SAMPLE_OFFSETS = (Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(1))


def former_translate(oracle, B: CellSet, m) -> CellSet:
    return CellSet(
        (oracle.multiply(m, v) for v in B.vertices),
        (Segment(oracle.multiply(m, s.element), s.gen, s.lo, s.hi) for s in B.segments),
    )


def former_contains(cells: CellSet, p) -> bool:
    if not isinstance(p, EdgePoint):
        return p.element in cells.vertices
    return any(
        seg.element == p.element and seg.gen == p.gen and seg.lo <= p.mu <= seg.hi for seg in cells.segments
    )


def _collides(oracle, B: CellSet, m) -> bool:
    bases = B.vertices | {s.element for s in B.segments}
    return len({oracle.multiply(m, v) for v in bases}) < len(bases)


def _check_translates(oracle, plain, B: CellSet, far: int, points) -> int:
    """Compares every translate of B over the horizon ball with the former
    one; returns how many of them identify two bases."""
    translates = Translates(oracle, B)
    collisions = 0
    for m in oracle.elements_up_to(HORIZON):
        mB, former = translates[m], former_translate(plain, B, m)
        assert mB == former and mB.to_json() == former.to_json(), m
        assert all(isinstance(s.lo, Fraction) and isinstance(s.hi, Fraction) for s in mB.segments)
        for x in points + sample_points(former, SAMPLE_OFFSETS):
            assert mB.contains(x) == former_contains(former, x), (m, x)
        d = gamma_set_distance(oracle, B, mB, far)
        assert d == gamma_set_distance(plain, B, former, far), m
        assert d == reference_set_distance(plain, B, former, far), m
        collisions += _collides(plain, B, m)
    return collisions


@pytest.mark.parametrize("R", RADII, ids=str)
@pytest.mark.parametrize("name", FIXTURES)
def test_translates_match_the_former_construction(name, R):
    oracle, plain = load(name), load(name)
    far = max(HORIZON, int(5 * R) + 1)
    gamma = GammaOracle(oracle, far)
    e = oracle.identity
    out_ball = gamma.out_ball_cellset(e, Fraction(HORIZON))
    balls = {}
    for kind in ("strong", "in", "out"):
        try:
            balls[kind] = gamma.ball_cellset(e, R, kind)
        except HorizonTooSmall:
            assert name == "n3" and kind != "out"
    for kind, B in balls.items():
        points = sample_points(B, SAMPLE_OFFSETS) + sample_points(out_ball, SAMPLE_OFFSETS)
        collisions = _check_translates(oracle, plain, B, far, points)
        if oracle.cancellation_theorem is not None:
            assert collisions == 0, kind
        elif name in ("zero", "bicyclic") and kind == "out" and R == 2:
            # z*x = z in zero, and p*(q p) = p = p*e in bicyclic.
            assert collisions > 0


# ---------------------------------------------------------------------------
# Random cell sets that share edges
# ---------------------------------------------------------------------------

bounds = st.integers(min_value=1, max_value=6).flatmap(
    lambda den: st.tuples(st.integers(0, den), st.integers(0, den)).map(
        lambda ks: (Fraction(min(ks), den), Fraction(max(ks), den))
    )
)
SMALL = ("free2", "Z5", "bicyclic", "zero", "fp_r1_z2", "zero no fast path", "absorbing table")


@st.composite
def shared_sets(draw):
    """(oracle name, A, B, m, n, horizon): two cell sets on a small ball, B
    holding segments on some of A's edges, and two multipliers."""
    name = draw(st.sampled_from(SMALL))
    oracle = ORACLES[name][0]()
    elements = oracle.elements_up_to(2)
    edges = st.tuples(st.sampled_from(elements), st.sampled_from(oracle.generators))

    def cells(shared=()):
        vertices = draw(st.lists(st.sampled_from(elements), max_size=2))
        own = draw(st.lists(edges, max_size=3))
        segments = [Segment(m, s, *draw(bounds)) for m, s in own + list(shared)]
        return CellSet(vertices, segments)

    A = cells()
    a_edges = [(s.element, s.gen) for s in A.segments]
    B = cells(draw(st.lists(st.sampled_from(a_edges), min_size=1, max_size=3)) if a_edges else ())
    m, n = draw(st.sampled_from(elements)), draw(st.sampled_from(elements))
    return name, A, B, m, n, draw(st.integers(min_value=0, max_value=4))


@settings(max_examples=300, deadline=None)
@given(shared_sets())
def test_random_shared_edge_sets_match_the_former_construction(case):
    name, A, B, m, n, h = case
    oracle, plain = ORACLES[name][0](), ORACLES[name][0]()
    mA, nB = A.translate(oracle, m), B.translate(oracle, n)
    former_mA, former_nB = former_translate(plain, A, m), former_translate(plain, B, n)
    assert (mA, nB) == (former_mA, former_nB)
    for x in sample_points(former_mA, SAMPLE_OFFSETS) + sample_points(former_nB, SAMPLE_OFFSETS):
        assert mA.contains(x) == former_contains(former_mA, x)
        assert nB.contains(x) == former_contains(former_nB, x)
    for P, Q, former_P, former_Q in ((A, B, A, B), (mA, nB, former_mA, former_nB), (nB, mA, former_nB, former_mA)):
        expected = reference_set_distance(plain, former_P, former_Q, h)
        assert gamma_set_distance(oracle, P, Q, h) == expected
        assert gamma_set_distance(plain, former_P, former_Q, h) == expected


def test_translate_merges_segments_on_identified_bases():
    # In the bicyclic monoid p*e = p*(q p) = p, so the two edges (e, p) and
    # (q p, p) land on (p, p), where [0, 1/2] and [1/4, 3/4] merge.
    oracle = load("bicyclic")
    B = CellSet([(), ("q", "p")], [
        Segment((), "p", Fraction(0), Fraction(1, 2)),
        Segment(("q", "p"), "p", Fraction(1, 4), Fraction(3, 4)),
    ])
    pB = B.translate(oracle, ("p",))
    assert pB.vertices == {("p",)}
    assert pB.segments == (Segment(("p",), "p", Fraction(0), Fraction(3, 4)),)
    assert pB.contains(EdgePoint(("p",), "p", Fraction(5, 8)))
