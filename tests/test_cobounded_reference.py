"""The exact cobounded check against the sampler it replaced.

``reference_cobounded`` is the former check: the points of B and of the
out-ball of radius min(h, 3), edge points at segment midpoints only, each
looked for in the translates mB with m in the horizon ball.  It can miss a
gap, never invent one, so wherever it finds an uncovered point the exact
check must fail.  Every point the exact check names must lie in no
translate of the horizon ball either.

The planted sets show what the exact check sees that the sampler does not:
a gap between segment midpoints, a cover that only a translate other than
B completes, and in the submonoid pipeline the out-edges of the
representatives P, not only of ε; and that it names an uncovered vertex.
"""

import os
from fractions import Fraction

import pytest

from monoidgeo import (
    CellSet,
    EdgePoint,
    GammaOracle,
    HorizonTooSmall,
    Segment,
    SubmonoidOracle,
    Vertex,
    check_cobounded,
)
from monoidgeo.cayley import Translates
from monoidgeo.cli import parse_monoid_spec
from builders import cyclic_group, sample_points

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")
NAMES = sorted(f[:-5] for f in os.listdir(FIXTURES) if f.endswith(".json"))
RADII = (Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2))


def reference_cobounded(oracle, gamma, B, horizon, far, translates):
    """The sample points that no translate mB, m in the horizon ball of the
    acting monoid `oracle`, contains."""
    e = oracle.identity
    out_ball = gamma.out_ball_cellset(e, Fraction(min(horizon, 3)), far)
    sample = list(dict.fromkeys(sample_points(B) + sample_points(out_ball)))
    covers = [translates[m] for m in oracle.elements_up_to(horizon)]
    return [str(x) for x in sample if not any(mB.contains(x) for mB in covers)]


def _point(oracle, witness):
    """The CayleyPoint a witness such as ``v:ε`` or ``e:g:f:2/3`` names."""
    kind, base, *edge = witness.split(":")
    element = oracle.parse_word("" if base == "ε" else base)
    return Vertex(element) if kind == "v" else EdgePoint(element, edge[0], Fraction(edge[1]))


def _in_no_translate(oracle, translates, horizon, witness):
    x = _point(oracle, witness)
    return not any(translates[m].contains(x) for m in oracle.elements_up_to(horizon))


def _load(name):
    oracle, _ = parse_monoid_spec(os.path.join(FIXTURES, f"{name}.json"))
    return oracle


@pytest.mark.parametrize("name", NAMES)
def test_exact_check_fails_wherever_the_sampler_finds_a_gap(name):
    oracle = _load(name)
    cases = 0
    for horizon in (2, 3, 4, 5):
        for R in RADII:
            far = max(horizon, int(5 * R) + 1)
            gamma = GammaOracle(oracle, horizon)
            try:
                B = gamma.strong_ball_cellset(oracle.identity, R, far)
            except HorizonTooSmall:
                assert name == "n3"  # its in-ball candidates are not enumerable
                continue
            translates = Translates(oracle, B)
            exact = check_cobounded(translates, gamma, R, [oracle.identity], horizon)
            sampled = reference_cobounded(oracle, gamma, B, horizon, far, translates)
            assert exact.passed or exact.witnesses, (horizon, R)
            if sampled:
                assert not exact.passed, (horizon, R, sampled)
            for w in exact.witnesses:
                assert _in_no_translate(oracle, translates, horizon, w), (horizon, R, w)
            # Half an edge out of ε is all B holds below R = 1.
            assert exact.passed == (R >= 1), (horizon, R, exact.witnesses)
            cases += 1
    assert cases == (0 if name == "n3" else 16)


def _strong_ball(oracle, R, far):
    return GammaOracle(oracle, far).strong_ball_cellset(oracle.identity, R, far)


def _with_segment(B, segment):
    """B with its segments on the edge of `segment` replaced by it."""
    edge = (segment.element, segment.gen)
    kept = [s for s in B.segments if (s.element, s.gen) != edge]
    return CellSet(B.vertices, kept + [segment])


def test_planted_gap_past_the_midpoint_fails():
    # B without (2/3, 1] of the edge (ε, a): the sampler's midpoints all lie
    # in B, the exact check names the gap's midpoint.
    oracle = _load("free2")
    R, horizon, far = Fraction(1), 4, 6
    B = _with_segment(_strong_ball(oracle, R, far), Segment((), "a", Fraction(0), Fraction(2, 3)))
    gamma = GammaOracle(oracle, horizon)
    translates = Translates(oracle, B)
    assert reference_cobounded(oracle, gamma, B, horizon, far, translates) == []
    report = check_cobounded(translates, gamma, R, [()], horizon)
    assert report.witnesses == ["e:ε:a:5/6"]
    x = _point(oracle, report.witnesses[0])
    assert (x.element, x.gen) == ((), "a") and Fraction(2, 3) < x.mu < 1
    assert _in_no_translate(oracle, translates, horizon, report.witnesses[0])


def test_planted_cover_completed_by_another_translate_passes():
    # On Z3, B holds [0, 1/2] of (ε, g) and [1/2, 1] of (g, g); g²B holds
    # [1/2, 1] of (ε, g), so the translates cover Γ though B does not hold
    # ε's out-star.  Every base of B lies within 1 of ε.
    z3 = cyclic_group(3)
    B = CellSet([()], [
        Segment((), "g", Fraction(0), Fraction(1, 2)),
        Segment(("g",), "g", Fraction(1, 2), Fraction(1)),
    ])
    gamma = GammaOracle(z3, 4)
    assert not B.contains(EdgePoint((), "g", Fraction(3, 4)))
    report = check_cobounded(Translates(z3, B), gamma, Fraction(1), [()], 4)
    assert report.passed and report.witnesses == []
    # Without the (g, g) segment nothing holds (1/2, 1) of (ε, g).
    half = CellSet([()], [Segment((), "g", Fraction(0), Fraction(1, 2))])
    assert check_cobounded(Translates(z3, half), gamma, Fraction(1), [()], 4).witnesses == ["e:ε:g:3/4"]


def test_submonoid_checks_the_out_edges_of_p():
    # M = ends_in_e in fp_r1_z2 = F1*Z2 at the submonoid pipeline's R = 2,
    # with N = M·P for P = {ε, g}.  Of M, only ε puts a base of B on g, so
    # the edge (g, f) is B's alone: cut it to [0, 1/3] and the check on P
    # fails there, while a check on ε alone would pass.
    n = _load("fp_r1_z2")
    M = SubmonoidOracle(n)
    R, horizon, far = Fraction(2), 4, 11
    gamma = GammaOracle(n, 8)
    B = _strong_ball(n, R, far)
    P = [(), ("g",)]
    assert check_cobounded(Translates(M, B), gamma, R, P, horizon).passed
    cut = _with_segment(B, Segment(("g",), "f", Fraction(0), Fraction(1, 3)))
    translates = Translates(M, cut)
    report = check_cobounded(translates, gamma, R, P, horizon)
    assert report.witnesses == ["e:g:f:2/3"]
    assert _in_no_translate(M, translates, horizon, "e:g:f:2/3")
    assert reference_cobounded(M, gamma, cut, horizon, far, translates) != []
    assert check_cobounded(Translates(M, cut), gamma, R, [()], horizon).passed


def test_planted_missing_vertex_fails():
    # On free1, B holds the edge (ε, a) and the vertex a but not ε, and no
    # translate holds ε: only ε puts a base on it, and free1 has no inverses.
    oracle = _load("free1")
    B = CellSet([("a",)], [Segment((), "a", Fraction(0), Fraction(1))])
    translates = Translates(oracle, B)
    report = check_cobounded(translates, GammaOracle(oracle, 4), Fraction(1), [()], 4)
    assert report.witnesses == ["v:ε"]
    assert _in_no_translate(oracle, translates, 4, "v:ε")
