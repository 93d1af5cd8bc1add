"""Word distances, the five-case Cayley distance, cell sets, balls."""

import os
from fractions import Fraction

import pytest

from monoidgeo import (
    INF,
    ZERO,
    CellSet,
    EdgePoint,
    ExtNonNeg,
    FreeMonoid,
    GammaOracle,
    HorizonTooSmall,
    NoPath,
    Segment,
    Vertex,
    check_inclusion_qi,
    FreeProductMonoid,
    gamma_distance,
    gamma_set_distance,
    shortest_word,
    word_distance,
)
from monoidgeo.cli import parse_monoid_spec
from builders import apply_translation, bicyclic_monoid, cyclic_group, zero_monoid

F1 = FreeMonoid(1, ["a"])
F2 = FreeMonoid(2, ["a", "b"])
Z3 = cyclic_group(3)


def known(d):
    assert d.is_known, d
    return d.value


# -- word distance ----------------------------------------------------------


def test_word_distance_basic():
    assert known(word_distance(F2, (), ("a", "b"), 8)) == ExtNonNeg.of(2)
    assert known(word_distance(Z3, (), ("g", "g"), 8)) == ExtNonNeg.of(2)
    assert known(word_distance(F2, ("a",), ("a",), 8)) == ZERO


def test_word_distance_directed():
    assert known(word_distance(F1, (), ("a",), 8)) == ExtNonNeg.of(1)
    assert known(word_distance(F1, ("a",), (), 8)) == INF


def test_word_distance_certified_infinite_by_fast_path():
    assert known(word_distance(F2, ("a",), ("b",), 8)) == INF


def test_word_distance_frontier_exhaustion_certifies():
    # finite monoid: BFS exhausts, no fast path needed
    z3_plain = cyclic_group(3)
    assert known(word_distance(z3_plain, (), ("g",), 8)) == ExtNonNeg.of(1)


def test_word_distance_unknown_without_fast_path():
    # rewriting monoid with the fast path disabled: horizon truncation
    from monoidgeo import RewritingMonoid

    b = RewritingMonoid(["p", "q"], [(("p", "q"), ())])
    d = word_distance(b, ("q",), (), 3)
    assert not d.is_known
    assert d.value == ExtNonNeg.of(3)


def test_bicyclic_distance_formula():
    b = bicyclic_monoid()
    # from q^1 to q^2 p^1: b + (c-a) + d = 0 + 1 + 1
    assert known(word_distance(b, ("q",), ("q", "q", "p"), 8)) == ExtNonNeg.of(2)
    assert known(word_distance(b, ("q", "q"), ("q",), 8)) == INF


def test_shortest_word_remultiplies():
    w = shortest_word(F2, ("a",), ("a", "b", "a"), 8)
    assert w == ("b", "a")
    b = bicyclic_monoid()
    w = shortest_word(b, ("p",), ("q",), 8)
    assert b.multiply(("p",), w) == ("q",)
    assert len(w) == known(word_distance(b, ("p",), ("q",), 8)).finite_value()
    with pytest.raises(NoPath):
        shortest_word(F1, ("a",), (), 8)


def test_bfs_matches_fast_path_on_bicyclic():
    from monoidgeo import RewritingMonoid

    fast = bicyclic_monoid()
    slow = RewritingMonoid(["p", "q"], [(("p", "q"), ())])
    ball = fast.elements_up_to(4)
    for x in ball:
        for y in ball:
            df = word_distance(fast, x, y, 10)
            ds = word_distance(slow, x, y, 10)
            if ds.is_known:
                assert df == ds
            else:
                # truncated BFS must be consistent with the exact answer
                assert df.value > ds.value or df.value.is_infinite


def test_bfs_matches_fast_path_on_free_product():
    m = FreeProductMonoid(1, cyclic_group(2))

    class NoFast(FreeProductMonoid):
        def exact_quotient(self, x, y):
            return NotImplemented

    plain = NoFast(1, cyclic_group(2))
    ball = m.elements_up_to(3)
    for x in ball:
        for y in ball:
            df = word_distance(m, x, y, 8)
            ds = word_distance(plain, x, y, 8)
            if ds.is_known:
                assert df == ds, (x, y)


# -- cayley points and the 5-case distance ---------------------------------


def test_edge_offset_strictly_interior():
    with pytest.raises(Exception):
        EdgePoint((), "a", Fraction(0))
    with pytest.raises(Exception):
        EdgePoint((), "a", Fraction(1))


def test_case_vertex_to_edge():
    d = gamma_distance(F1, Vertex(()), EdgePoint((), "a", Fraction(1, 3)), 8)
    assert known(d) == ExtNonNeg.of(Fraction(1, 3))


def test_case_edge_to_vertex_min():
    # d((ε,a,1/3), a) = min(1/3 + d(ε,a), 2/3 + d(a,a)) = 2/3
    d = gamma_distance(F1, EdgePoint((), "a", Fraction(1, 3)), Vertex(("a",)), 8)
    assert known(d) == ExtNonNeg.of(Fraction(2, 3))
    # toward the base instead: d((ε,a,1/3), ε) = min(1/3 + 0, 2/3 + inf) = 1/3
    d = gamma_distance(F1, EdgePoint((), "a", Fraction(1, 3)), Vertex(()), 8)
    assert known(d) == ExtNonNeg.of(Fraction(1, 3))


def test_case_same_edge():
    d = gamma_distance(F1, EdgePoint((), "a", Fraction(1, 4)), EdgePoint((), "a", Fraction(3, 4)), 8)
    assert known(d) == ExtNonNeg.of(Fraction(1, 2))
    d = gamma_distance(F1, EdgePoint((), "a", Fraction(3, 4)), EdgePoint((), "a", Fraction(1, 4)), 8)
    assert known(d) == ExtNonNeg.of(Fraction(1, 2))


def test_case_edge_to_edge_via_base():
    # d((ε,a,μ), (a,a,ν)) = d((ε,a,μ), a) + ν
    p = EdgePoint((), "a", Fraction(1, 2))
    q = EdgePoint(("a",), "a", Fraction(1, 4))
    d = gamma_distance(F1, p, q, 8)
    assert known(d) == ExtNonNeg.of(Fraction(1, 2) + Fraction(1, 4))


def test_gamma_directedness_witness():
    assert known(gamma_distance(F1, Vertex(()), Vertex(("a",)), 8)) == ExtNonNeg.of(1)
    assert known(gamma_distance(F1, Vertex(("a",)), Vertex(()), 8)) == INF


def test_gamma_triangle_on_samples():
    g = GammaOracle(F2, 8)
    pts = [Vertex(()), Vertex(("a",)), Vertex(("a", "b"))]
    for m in F2.elements_up_to(2):
        for s in F2.generators:
            pts.append(EdgePoint(m, s, Fraction(1, 2)))
    for p in pts:
        for q in pts:
            for r in pts:
                dpq = g.known_distance(p, q)
                dqr = g.known_distance(q, r)
                dpr = g.known_distance(p, r)
                assert dpr <= dpq + dqr


def test_left_translation_contracts_never_expands():
    # left multiplication is distance non-increasing in general, and exactly
    # preserving on cancellative fixtures
    z = zero_monoid()
    g = GammaOracle(z, 6)
    p, q = Vertex(("a",)), Vertex(())
    assert g.known_distance(p, q) == INF
    zp = apply_translation(z, ("z",), p)
    zq = apply_translation(z, ("z",), q)
    assert g.known_distance(zp, zq) == ZERO


# -- cell sets --------------------------------------------------------------


def test_cellset_merges_overlapping_segments():
    c = CellSet([], [Segment((), "a", Fraction(0), Fraction(1, 2)), Segment((), "a", Fraction(1, 4), Fraction(1))])
    assert len(c.segments) == 1
    assert (c.segments[0].lo, c.segments[0].hi) == (Fraction(0), Fraction(1))


def test_cellset_contains_closed():
    c = CellSet([()], [Segment((), "a", Fraction(1, 4), Fraction(1, 2))])
    assert c.contains(Vertex(()))
    assert c.contains(EdgePoint((), "a", Fraction(1, 4)))
    assert c.contains(EdgePoint((), "a", Fraction(3, 8)))
    assert not c.contains(EdgePoint((), "a", Fraction(3, 4)))
    assert not c.contains(Vertex(("a",)))


def test_cellset_translate():
    c = CellSet([()], [Segment((), "a", Fraction(0), Fraction(1))])
    t = c.translate(F1, ("a",))
    assert t.vertices == frozenset({("a",)})
    assert t.segments[0].element == ("a",)


def test_set_distance_same_edge_interior_overlap():
    a = CellSet([], [Segment((), "a", Fraction(0), Fraction(1, 2))])
    b = CellSet([], [Segment((), "a", Fraction(1, 4), Fraction(1))])
    assert known(gamma_set_distance(F1, a, b, 8)) == ZERO


def test_set_distance_same_edge_gap():
    a = CellSet([], [Segment((), "a", Fraction(0), Fraction(1, 4))])
    b = CellSet([], [Segment((), "a", Fraction(1, 2), Fraction(1))])
    assert known(gamma_set_distance(F1, a, b, 8)) == ExtNonNeg.of(Fraction(1, 4))


def test_set_distance_empty_is_infinite():
    a = CellSet([()])
    assert known(gamma_set_distance(F1, a, CellSet(), 8)) == INF


def test_set_distance_singletons_match_point_distance():
    g = GammaOracle(F2, 8)
    pts = [Vertex(()), Vertex(("a",)), Vertex(("b", "a"))]
    for p in pts:
        for q in pts:
            a = CellSet([p.element])
            b = CellSet([q.element])
            assert gamma_set_distance(F2, a, b, 8) == g.distance(p, q)


def test_set_distance_closure_limit_directed():
    # closure of the edge (ε,a) approaches the vertex a, so the set distance
    # from the open edge to {a} is 0 even though d(·, a) > 0 pointwise
    edge = CellSet([], [Segment((), "a", Fraction(0), Fraction(1))])
    target = CellSet([("a",)])
    assert known(gamma_set_distance(F1, edge, target, 8)) == ZERO
    # but from {a} to the edge the infimum is not 0: leaving a never returns
    back = gamma_set_distance(F1, target, edge, 8)
    assert known(back) == INF


# -- balls ------------------------------------------------------------------


def test_out_ball_f1():
    g = GammaOracle(F1, 8)
    b = g.out_ball_cellset((), Fraction(2))
    assert b.vertices == frozenset({(), ("a",), ("a", "a")})
    # full edges from ε and a, nothing from aa
    spans = {(s.element, s.gen): (s.lo, s.hi) for s in b.segments}
    assert spans[((), "a")] == (Fraction(0), Fraction(1))
    assert spans[(("a",), "a")] == (Fraction(0), Fraction(1))
    assert (("a", "a"), "a") not in spans


def test_out_ball_fractional_radius():
    g = GammaOracle(F1, 8)
    b = g.out_ball_cellset((), Fraction(3, 2))
    spans = {(s.element, s.gen): (s.lo, s.hi) for s in b.segments}
    assert spans[(("a",), "a")] == (Fraction(0), Fraction(1, 2))


def test_in_ball_f1():
    g = GammaOracle(F1, 8)
    b = g.in_ball_cellset(("a", "a"), Fraction(1))
    assert b.vertices == frozenset({("a",), ("a", "a")})
    spans = {(s.element, s.gen): (s.lo, s.hi) for s in b.segments}
    # edge (a,a): all of it reaches aa within 1 (forward); edge (aa,a) only
    # its start... the far end of (a,a) reaches aa at cost 1-mu <= 1 always
    assert spans[(("a",), "a")] == (Fraction(0), Fraction(1))


def test_strong_ball_f1_radius_one():
    g = GammaOracle(F1, 8)
    b = g.strong_ball_cellset((), Fraction(1))
    assert b.vertices == frozenset({()})
    assert len(b.segments) == 1
    s = b.segments[0]
    assert (s.element, s.gen, s.lo, s.hi) == ((), "a", Fraction(0), Fraction(1))


def test_strong_ball_z3():
    g = GammaOracle(Z3, 8)
    b = g.strong_ball_cellset((), Fraction(1))
    assert b.vertices == frozenset({()})
    spans = {(s.element, s.gen): (s.lo, s.hi) for s in b.segments}
    assert spans == {((), "g"): (Fraction(0), Fraction(1))}


def test_ball_kind_dispatch():
    g = GammaOracle(F1, 8)
    assert g.ball_cellset((), Fraction(1), "out") == g.out_ball_cellset((), Fraction(1))
    with pytest.raises(ValueError):
        g.ball_cellset((), Fraction(1), "weird")


def test_explicit_horizon_zero_is_not_the_default():
    # At horizon 0 every nonzero distance in Z5 is only known to exceed 0:
    # d(e, g) = 1 is unknown, and neither an out-ball nor an in-ball of
    # radius 1 can be built (d(g^4, e) = 1 is unknown too).
    z5 = cyclic_group(5)
    g = GammaOracle(z5, 8)
    e, gen = Vertex(()), Vertex(("g",))
    above_zero = gamma_distance(z5, e, gen, 0)
    assert not above_zero.is_known and above_zero.value == ZERO
    assert g.distance(e, gen, 0) == above_zero
    assert g.set_distance(CellSet([()]), CellSet([("g",)]), 0) == above_zero
    assert g.distance(e, gen) == gamma_distance(z5, e, gen, 8)
    with pytest.raises(HorizonTooSmall):
        g.out_ball_cellset((), Fraction(1), 0)
    with pytest.raises(HorizonTooSmall):
        g.in_ball_cellset((), Fraction(1), 0)
    assert g.in_ball_cellset((), Fraction(1)).vertices == {(), ("g",) * 4}


# -- inclusion QI and geodesics ---------------------------------------------


@pytest.mark.parametrize(
    "oracle",
    [F1, F2, Z3, FreeProductMonoid(1, cyclic_group(2)), bicyclic_monoid()],
    ids=["F1", "F2", "Z3", "F1*Z2", "bicyclic"],
)
def test_inclusion_qi_fixtures(oracle):
    g = GammaOracle(oracle, 8)
    report = check_inclusion_qi(g, 8, sample_depth=3)
    assert report.passed, report.to_json()


def edge_points_outside_unit_balls(gamma, depth):
    """The reference for the edge points `check qi` does not sample: each
    point at offset 1/3, 1/2 or 2/3 on an edge out of the depth ball whose
    distance to or from its base vertex is not known to be at most 1."""
    one, out = ExtNonNeg.finite(1), []
    for m in gamma.monoid.elements_up_to(depth):
        for s in gamma.monoid.generators:
            for mu in (Fraction(1, 3), Fraction(1, 2), Fraction(2, 3)):
                p = EdgePoint(m, s, mu)
                if gamma.known_distance(Vertex(m), p) > one or gamma.known_distance(p, Vertex(m)) > one:
                    out.append(p)
    return out


FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


@pytest.mark.parametrize("name", sorted(os.listdir(FIXTURES)))
def test_every_edge_point_lies_in_the_unit_ball_of_its_base(name):
    # The CLI's default sample depth, at the default horizon.
    oracle = parse_monoid_spec(os.path.join(FIXTURES, name))[0]
    assert edge_points_outside_unit_balls(GammaOracle(oracle, 8), 4) == []
