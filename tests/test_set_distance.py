"""The base-pair reduction against the pointwise evaluation it replaced.

``_ext_distance`` is the former recursive five-case evaluator over extended
points, whose edge offsets may be 0 or 1, and ``closure_reps`` the former
``CellSet.closure_reps``; ``reference_set_distance`` is the former
``gamma_set_distance``: interval gaps between segments on a common edge plus
the five-case distance of every pair of closure representatives, combined by
``truncated_min``.  They are kept here verbatim as the specification:
``gamma_distance`` and ``gamma_set_distance`` must give the same answers,
kind included, on every oracle of the distance-field tests at every horizon.
"""

import random
from fractions import Fraction

import pytest

from monoidgeo import (
    CayleyPoint,
    CellSet,
    EdgePoint,
    INF,
    ExtNonNeg,
    MonoidOracle,
    Segment,
    TableMonoid,
    TruncatedDistance,
    Vertex,
    gamma_distance,
    gamma_set_distance,
    truncated_min,
    word_distance,
)
from builders import cyclic_group, truncated_plus
from test_distance_field import FIELD_OUTCOMES, ORACLES, ReferenceBall, _outcome

# Internal extended points allow closed offsets 0 and 1 so that infima over
# segment closures can be evaluated at interval endpoints.  An extended edge
# point with offset 0 or 1 is *not* identified with a vertex: the case
# formulas are evaluated literally, which yields the correct closure limits
# in the directed setting.

_ExtPoint = tuple  # ("v", m) | ("e", m, s, mu) with mu in [0, 1]


def _ext(p: CayleyPoint) -> _ExtPoint:
    if isinstance(p, Vertex):
        return ("v", p.element)
    return ("e", p.element, p.gen, p.mu)


def _ext_distance(
    oracle: MonoidOracle, p: _ExtPoint, q: _ExtPoint, horizon: int
) -> TruncatedDistance:
    wd = lambda a, b: word_distance(oracle, a, b, horizon)
    if p[0] == "v" and q[0] == "v":
        return wd(p[1], q[1])
    if p[0] == "v":
        _, n, _y, nu = q
        return truncated_plus(wd(p[1], n), ExtNonNeg.of(nu))
    _, m, x, mu = p
    mx = oracle.multiply(m, (x,))
    if q[0] == "v":
        n = q[1]
        via_back = truncated_plus(wd(m, n), ExtNonNeg.of(mu))
        via_forward = truncated_plus(wd(mx, n), ExtNonNeg.of(1 - mu))
        return truncated_min([via_back, via_forward])
    _, n, y, nu = q
    if m == n and x == y:
        return TruncatedDistance.known(ExtNonNeg.of(abs(mu - nu)))
    to_base = _ext_distance(oracle, p, ("v", n), horizon)
    return truncated_plus(to_base, ExtNonNeg.of(nu))


def closure_reps(cells: CellSet) -> list[_ExtPoint]:
    reps: list[_ExtPoint] = [("v", v) for v in sorted(cells.vertices)]
    for seg in cells.segments:
        reps.append(("e", seg.element, seg.gen, seg.lo))
        if seg.hi != seg.lo:
            reps.append(("e", seg.element, seg.gen, seg.hi))
    return reps


def _interval_gap(a_lo, a_hi, b_lo, b_hi) -> Fraction:
    if a_hi < b_lo:
        return b_lo - a_hi
    if b_hi < a_lo:
        return a_lo - b_hi
    return Fraction(0)


def reference_set_distance(oracle, A, B, horizon):
    if not A or not B:
        return TruncatedDistance.known(INF)
    candidates = []
    b_by_edge = {}
    for seg in B.segments:
        b_by_edge.setdefault((seg.element, seg.gen), []).append(seg)
    for seg in A.segments:
        for other in b_by_edge.get((seg.element, seg.gen), ()):
            gap = _interval_gap(seg.lo, seg.hi, other.lo, other.hi)
            candidates.append(TruncatedDistance.known(ExtNonNeg.of(gap)))
    for p in closure_reps(A):
        for q in closure_reps(B):
            candidates.append(_ext_distance(oracle, p, q, horizon))
    return truncated_min(candidates)


OFFSETS = (Fraction(0), Fraction(1, 4), Fraction(1, 3), Fraction(1, 2), Fraction(2, 3), Fraction(3, 4), Fraction(1))
CASES_PER_HORIZON = 24


def _segment(rng, m, s):
    lo, hi = sorted((rng.choice(OFFSETS), rng.choice(OFFSETS)))
    return Segment(m, s, lo, hi)


def _cellset(rng, elements, gens, edges=(), only_edges=False):
    vertices = [] if only_edges else rng.sample(elements, min(len(elements), rng.randint(0, 3)))
    pool = [(m, s) for m in elements for s in gens]
    chosen = [] if only_edges else rng.sample(pool, min(len(pool), rng.randint(0, 3)))
    return CellSet(vertices, [_segment(rng, m, s) for m, s in chosen + list(edges)])


# How B relates to A: drawn independently; sharing A's edges besides its own
# cells; or only segments on A's edges, with A only segments, so the
# same-edge rule decides the answer.
MODES = ("independent", "shared", "same-edge only")


def _random_pair(rng, sources, targets, gens, mode):
    if mode == "same-edge only":
        pool = [(m, s) for m in sources for s in gens]
        A = CellSet([], [_segment(rng, m, s) for m, s in rng.sample(pool, min(len(pool), rng.randint(1, 2)))])
    else:
        A = _cellset(rng, sources, gens)
    if mode == "independent":
        return A, _cellset(rng, targets, gens)
    # Shared edges get one or two B segments, so several gaps per edge occur.
    edges = [(seg.element, seg.gen) for seg in A.segments]
    edges = edges + [e for e in edges if rng.random() < 0.5]
    return A, _cellset(rng, targets, gens, edges, only_edges=mode == "same-edge only")


@pytest.mark.parametrize("name", sorted(ORACLES))
def test_set_distance_matches_pairwise(name):
    build, horizon, source_depth, target_depth = ORACLES[name]
    oracle, plain = build(), build()
    ball = ReferenceBall(build())
    sources = ball.elements_up_to(source_depth)
    targets = ball.elements_up_to(target_depth)
    gens = list(oracle.generators)
    rng = random.Random(f"set-distance-{name}")
    outcomes = set()
    for h in range(horizon + 1):
        for i in range(CASES_PER_HORIZON):
            A, B = _random_pair(rng, sources, targets, gens, MODES[i % len(MODES)])
            expected = reference_set_distance(plain, A, B, h)
            got = gamma_set_distance(oracle, A, B, h)
            assert got == expected, (A.vertices, A.segments, B.vertices, B.segments, h)
            outcomes.add(_outcome(got))
    assert "known" in outcomes
    if name in FIELD_OUTCOMES:
        assert "unknown_above" in outcomes


def test_same_edge_pairs_skip_the_generic_formula():
    # Both sets lie on the edge (e, g) of Z5; every representative pair is a
    # same-edge pair, so the answer is the interval gap 1/4.  The generic
    # formula would pair the source (g, 0) with the target (e, 0) and, with
    # d(g, e) = 4 past horizon 0, turn the answer into "unknown above 0".
    z5 = cyclic_group(5)
    A = CellSet([], [Segment((), "g", Fraction(1, 2), Fraction(1))])
    B = CellSet([], [Segment((), "g", Fraction(0), Fraction(1, 4))])
    expected = TruncatedDistance.known(ExtNonNeg.of(Fraction(1, 4)))
    assert reference_set_distance(z5, A, B, 0) == expected
    assert gamma_set_distance(z5, A, B, 0) == expected
    # Points: the generic formula would give d(g, e) + 1/5 + 1/5, unknown
    # above 2/5, where the points are 3/5 apart.
    p, q = EdgePoint((), "g", Fraction(4, 5)), EdgePoint((), "g", Fraction(1, 5))
    assert gamma_distance(z5, p, q, 0) == TruncatedDistance.known(ExtNonNeg.of(Fraction(3, 5)))


def test_same_edge_pairs_on_a_loop_edge():
    # z*a = z: both ends of the edge (z, a) are z, so the generic formula
    # would give d(z, z) + 0 + 0 = 0 where the same-edge gap is 1/2.
    absorbing = TableMonoid(["e", "a", "z"], [[0, 1, 2], [1, 2, 2], [2, 2, 2]], generators=["a"])
    z = ("a", "a")
    A = CellSet([], [Segment(z, "a", Fraction(3, 4), Fraction(1))])
    B = CellSet([], [Segment(z, "a", Fraction(0), Fraction(1, 4))])
    expected = TruncatedDistance.known(ExtNonNeg.of(Fraction(1, 2)))
    p, q = EdgePoint(z, "a", Fraction(4, 5)), EdgePoint(z, "a", Fraction(1, 5))
    for h in range(3):
        assert reference_set_distance(absorbing, A, B, h) == expected
        assert gamma_set_distance(absorbing, A, B, h) == expected
        # Points: the generic formula would give 1/5 + 1/5 for 3/5.
        assert gamma_distance(absorbing, p, q, h) == TruncatedDistance.known(ExtNonNeg.of(Fraction(3, 5)))


# Interior offsets for single points; 1/5 and 4/5 differ by more than 1/2,
# so on one edge the generic formula would undercut |mu - nu|.
POINT_OFFSETS = (Fraction(1, 5), Fraction(1, 4), Fraction(1, 3), Fraction(1, 2), Fraction(2, 3), Fraction(3, 4), Fraction(4, 5))
POINT_KINDS = (("v", "v"), ("v", "e"), ("e", "v"), ("e", "e"), "same edge")
POINT_PAIRS_PER_HORIZON = 40


def _point(rng, kind, elements, gens) -> CayleyPoint:
    m = rng.choice(elements)
    if kind == "v":
        return Vertex(m)
    return EdgePoint(m, rng.choice(gens), rng.choice(POINT_OFFSETS))


def _random_points(rng, sources, targets, gens, kind):
    if kind == "same edge":
        p = _point(rng, "e", sources, gens)
        return p, EdgePoint(p.element, p.gen, rng.choice(POINT_OFFSETS))
    return _point(rng, kind[0], sources, gens), _point(rng, kind[1], targets, gens)


@pytest.mark.parametrize("name", sorted(ORACLES))
def test_point_distance_matches_recursive_evaluation(name):
    build, horizon, source_depth, target_depth = ORACLES[name]
    oracle, plain = build(), build()
    ball = ReferenceBall(build())
    sources = ball.elements_up_to(source_depth)
    targets = ball.elements_up_to(target_depth)
    gens = list(oracle.generators)
    rng = random.Random(f"point-distance-{name}")
    outcomes = set()
    for h in range(horizon + 1):
        for i in range(POINT_PAIRS_PER_HORIZON):
            p, q = _random_points(rng, sources, targets, gens, POINT_KINDS[i % len(POINT_KINDS)])
            expected = _ext_distance(plain, _ext(p), _ext(q), h)
            got = gamma_distance(oracle, p, q, h)
            assert got == expected, (p, q, h)
            outcomes.add(_outcome(got))
    assert "known" in outcomes
    assert FIELD_OUTCOMES.get(name, set()) <= outcomes
