"""The integer five-case kernel and Γ's distance table against the code they replaced.

``_base_pair_distance``, ``gamma_distance`` and ``gamma_set_distance`` below
are the former Fraction evaluators of ``monoidgeo.cayley``, and
``_distance_table`` and ``_integer_rows`` the former table of
``monoidgeo.spaces.check_axioms``.  ``per_pair_rows`` is the former
``GammaOracle.distance_rows``: one integer kernel call per pair of points.
They are kept here as the specification: the integer kernel must give the
same answers, kind included, and ``GammaOracle.distance_rows``, built from
rows of base vertices, the same table, raising at the same first unknown
pair with the same text.  A plain min of ``_encoded`` codes plus offsets,
decoded by ``_truncated``, must be ``truncated_min`` of the distances plus
those offsets, and the reference kernel's answer.
"""

import math
import os
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from monoidgeo import (
    INF,
    CellSet,
    EdgePoint,
    ExtNonNeg,
    GammaOracle,
    HorizonTooSmall,
    Segment,
    TruncatedDistance,
    Vertex,
    WordMetricSpace,
    cayley,
    check_axioms,
    truncated_min,
    word_distance,
)
from monoidgeo.cli import parse_monoid_spec
from monoidgeo.spaces import SemimetricSpace
from builders import PairwiseSpace, cyclic_group
from test_set_distance import _interval_gap

HERE = os.path.dirname(os.path.abspath(__file__))
FIXTURES = ("free1", "free2", "z3", "s3", "bicyclic", "zero", "fp_r1_z2", "fp_r2_z2", "n3")


def load(name):
    return parse_monoid_spec(os.path.join(HERE, "fixtures", f"{name}.json"))[0]


# ---------------------------------------------------------------------------
# The reference: the Fraction evaluators and table, as they were
# ---------------------------------------------------------------------------

_AT_VERTEX = Fraction(0)


def _offer(bases: dict, base, edge, offset: Fraction) -> None:
    by_edge = bases.setdefault(base, {})
    if edge not in by_edge or offset < by_edge[edge]:
        by_edge[edge] = offset


def _base_pair_distance(oracle, sources: dict, targets: dict, best, horizon: int) -> TruncatedDistance:
    best_known = best is not None
    for s, s_offsets in sources.items():
        for t, t_offsets in targets.items():
            offsets = [
                a + b
                for a_edge, a in s_offsets.items()
                for b_edge, b in t_offsets.items()
                if a_edge is None or a_edge != b_edge
            ]
            if not offsets:
                continue
            d = word_distance(oracle, s, t, horizon)
            value = d.value.frac
            if value is None:
                if best is None:
                    best_known = True
                continue
            value += min(offsets)
            if best is None or value < best or (value == best and d.is_known and not best_known):
                best, best_known = value, d.is_known
    if best_known:
        return TruncatedDistance.known(INF if best is None else ExtNonNeg(best))
    return TruncatedDistance.unknown_above(ExtNonNeg(best))


def gamma_distance(oracle, p, q, horizon: int) -> TruncatedDistance:
    if isinstance(p, Vertex) and isinstance(q, Vertex):
        return word_distance(oracle, p.element, q.element, horizon)
    edge = gap = None
    if isinstance(p, EdgePoint) and isinstance(q, EdgePoint) and (p.element, p.gen) == (q.element, q.gen):
        edge, gap = (p.element, p.gen), abs(p.mu - q.mu)
    if isinstance(p, Vertex):
        sources = {p.element: {None: _AT_VERTEX}}
    else:
        sources = {p.element: {edge: p.mu}}
        _offer(sources, oracle.multiply(p.element, (p.gen,)), edge, 1 - p.mu)
    targets = {q.element: {None: _AT_VERTEX} if isinstance(q, Vertex) else {edge: q.mu}}
    return _base_pair_distance(oracle, sources, targets, gap, horizon)


def gamma_set_distance(oracle, A: CellSet, B: CellSet, horizon: int) -> TruncatedDistance:
    if not A or not B:
        return TruncatedDistance.known(INF)
    least_gap = None
    b_by_edge = {}
    for seg in B.segments:
        b_by_edge.setdefault((seg.element, seg.gen), []).append(seg)
    shared = set()
    for seg in A.segments:
        for other in b_by_edge.get((seg.element, seg.gen), ()):
            shared.add((seg.element, seg.gen))
            gap = _interval_gap(seg.lo, seg.hi, other.lo, other.hi)
            if least_gap is None or gap < least_gap:
                least_gap = gap

    sources: dict = {}
    targets: dict = {}
    for v in A.vertices:
        _offer(sources, v, None, _AT_VERTEX)
    for v in B.vertices:
        _offer(targets, v, None, _AT_VERTEX)
    for seg in A.segments:
        edge = (seg.element, seg.gen) if (seg.element, seg.gen) in shared else None
        _offer(sources, seg.element, edge, seg.lo)
        _offer(sources, oracle.multiply(seg.element, (seg.gen,)), edge, 1 - seg.hi)
    for seg in B.segments:
        edge = (seg.element, seg.gen) if (seg.element, seg.gen) in shared else None
        _offer(targets, seg.element, edge, seg.lo)
    return _base_pair_distance(oracle, sources, targets, least_gap, horizon)


def _distance_table(space: SemimetricSpace, sample) -> dict:
    table = {}
    for i, p in enumerate(sample):
        for j, q in enumerate(sample):
            table[i, j] = space.known_distance(p, q)
    return table


def _integer_rows(d: dict, n: int) -> tuple[list[list[int]], int]:
    """The table as rows of exact ints, and the int standing for infinity."""
    fracs = [v.frac for v in d.values() if v.is_finite]
    scale = math.lcm(*(f.denominator for f in fracs))
    inf = 2 * max((f.numerator * (scale // f.denominator) for f in fracs), default=0) + 1

    def scaled(v: ExtNonNeg) -> int:
        return inf if v.frac is None else v.frac.numerator * (scale // v.frac.denominator)

    return [[scaled(d[i, k]) for k in range(n)] for i in range(n)], inf


def per_pair_rows(gamma: GammaOracle, sample) -> tuple[list[list[int]], int, int]:
    """The former ``GammaOracle.distance_rows``: each point reduced to its
    sources and its target once, offsets over 2L, then one kernel call per
    pair of points, its code decoded: even is known, odd a bound."""
    scale = math.lcm(*(p.mu.denominator for p in sample if isinstance(p, EdgePoint)))
    targets = [cayley._target(q, 2 * scale) for q in sample]
    rows = []
    for p in sample:
        sources = cayley._sources(gamma.monoid, p, 2 * scale)
        row = []
        for q, target in zip(sample, targets):
            best = cayley._base_pair_distance(
                gamma.monoid, sources, (target,), cayley._gap(sources, target), scale, gamma.horizon
            )
            if best is not None and best & 1:
                raise HorizonTooSmall(
                    f"d({gamma.format_point(p)}, {gamma.format_point(q)}) "
                    f"only known to exceed {Fraction(best >> 1, scale)}"
                )
            row.append(None if best is None else best >> 1)
        rows.append(row)
    return SemimetricSpace._with_sentinel(rows, scale)


class ReferenceGamma(PairwiseSpace):
    """Γ through the reference ``gamma_distance``, with the pairwise table."""

    def __init__(self, monoid, horizon):
        self.monoid, self.horizon = monoid, horizon

    def distance(self, p, q):
        return gamma_distance(self.monoid, p, q, self.horizon)


# ---------------------------------------------------------------------------
# Tables
# ---------------------------------------------------------------------------

OFFSETS = (Fraction(1, 3), Fraction(1, 2), Fraction(2, 3))


def mixed_sample(oracle, depth: int) -> list:
    """The ball's vertices, then edge points on every edge out of the ball
    two smaller, their offsets 1/3, 1/2 and 2/3 in turn; every third edge
    carries a second point, so same-edge pairs at distinct offsets occur."""
    points = [Vertex(m) for m in oracle.elements_up_to(depth)]
    edges = [(m, s) for m in oracle.elements_up_to(depth - 2) for s in oracle.generators]
    for i, (m, s) in enumerate(edges):
        points.append(EdgePoint(m, s, OFFSETS[i % 3]))
        if i % 3 == 0:
            points.append(EdgePoint(m, s, OFFSETS[1]))
    return points


def as_fractions(rows, scale, inf):
    return [[None if v == inf else Fraction(v, scale) for v in row] for row in rows]


def reference_rows(space, sample):
    """The reference table as Fractions, or the reference's HorizonTooSmall text."""
    try:
        d = _distance_table(space, sample)
    except HorizonTooSmall as exc:
        return str(exc)
    n = len(sample)
    return [[d[i, k].frac for k in range(n)] for i in range(n)]


def new_rows(space, sample):
    try:
        return as_fractions(*space.distance_rows(sample))
    except HorizonTooSmall as exc:
        return str(exc)


def exact_rows(rows_of, space, sample):
    """``rows_of(space, sample)`` as (rows, scale, inf), or its HorizonTooSmall text."""
    try:
        return rows_of(space, sample)
    except HorizonTooSmall as exc:
        return str(exc)


def assert_rows_match_per_pair(monoid, reference_monoid, horizon, sample):
    expected = exact_rows(per_pair_rows, GammaOracle(reference_monoid, horizon), sample)
    assert exact_rows(GammaOracle.distance_rows, GammaOracle(monoid, horizon), sample) == expected
    return expected


@pytest.mark.parametrize("depth", [2, 3, 4, 5])
@pytest.mark.parametrize("name", FIXTURES)
def test_gamma_table_matches_reference(name, depth):
    oracle = load(name)
    sample = mixed_sample(oracle, depth)
    expected = reference_rows(ReferenceGamma(load(name), 8), sample)
    assert new_rows(GammaOracle(oracle, 8), sample) == expected
    if name == "n3":
        assert isinstance(expected, str)  # d(a, ε) is never certified infinite


@pytest.mark.parametrize("depth", [2, 3, 4, 5])
@pytest.mark.parametrize("name", FIXTURES)
def test_gamma_table_matches_per_pair_rows(name, depth):
    # The same ints, scale and sentinel, or the same error text.
    expected = assert_rows_match_per_pair(load(name), load(name), 8, mixed_sample(load(name), depth))
    assert isinstance(expected, str) == (name == "n3")


@pytest.mark.parametrize("name", ["free2", "zero", "fp_r1_z2"])
def test_default_rows_are_the_former_integer_rows(name):
    space = ReferenceGamma(load(name), 8)
    sample = mixed_sample(space.monoid, 3)
    rows, scale, inf = space.distance_rows(sample)
    assert (rows, inf) == _integer_rows(_distance_table(space, sample), len(sample))
    assert as_fractions(rows, scale, inf) == as_fractions(*GammaOracle(load(name), 8).distance_rows(sample))


@pytest.mark.parametrize("name", ["free2", "z3", "bicyclic", "zero", "fp_r1_z2"])
def test_gamma_axioms_report_matches_reference_table(name):
    sample = mixed_sample(load(name), 3)
    got = check_axioms(GammaOracle(load(name), 8), sample)
    assert got.to_json() == check_axioms(ReferenceGamma(load(name), 8), sample).to_json()


def test_table_tie_keeps_the_known_value():
    # In Z5 at horizon 0, the point (e, g, 1/2) reaches e back along its edge
    # in a known 1/2; forward, d(g, e) = 4 is only known to exceed 0, a bound
    # of 1/2 as well.  The known value wins the tie, so the table is complete.
    z5 = cyclic_group(5)
    sample = [Vertex(()), EdgePoint((), "g", Fraction(1, 2))]
    expected = reference_rows(ReferenceGamma(z5, 0), sample)
    assert expected == [[0, Fraction(1, 2)], [Fraction(1, 2), 0]]
    assert new_rows(GammaOracle(cyclic_group(5), 0), sample) == expected
    rows = assert_rows_match_per_pair(cyclic_group(5), cyclic_group(5), 0, sample)
    assert rows == ([[0, 1], [1, 0]], 2, 3)


# ---------------------------------------------------------------------------
# Horizon errors, work and state
# ---------------------------------------------------------------------------


def cli_sample(oracle, depth):
    """The Γ sample of ``check axioms --depth depth``."""
    points = [Vertex(m) for m in oracle.elements_up_to(depth)]
    for m in oracle.elements_up_to(max(depth - 1, 0)):
        for s in oracle.generators:
            points.append(EdgePoint(m, s, Fraction(1, 2)))
    return points


def test_check_axioms_names_the_reference_pair_when_the_horizon_is_too_small():
    n3 = load("n3")
    points = cli_sample(n3, 4)
    expected = reference_rows(ReferenceGamma(load("n3"), 4), points)
    assert isinstance(expected, str)
    with pytest.raises(HorizonTooSmall) as exc:
        check_axioms(GammaOracle(n3, 4), points)
    assert str(exc.value) == expected
    assert assert_rows_match_per_pair(n3, load("n3"), 4, points) == expected


def test_gamma_check_takes_one_word_distance_per_base_pair(monkeypatch):
    free2 = load("free2")
    gamma = GammaOracle(free2, 8)
    points = cli_sample(free2, 5)
    calls = []
    real = cayley.word_distance

    def counting(*args):
        calls.append(args[1:3])
        return real(*args)

    monkeypatch.setattr(cayley, "word_distance", counting)
    before = sorted(vars(gamma))
    assert check_axioms(gamma, points).passed
    assert sorted(vars(gamma)) == before
    bases = len(free2.elements_up_to(5))
    assert bases == 63
    assert len(calls) <= bases * bases
    assert len(set(calls)) == len(calls)


def test_word_table_takes_one_word_distance_per_pair(monkeypatch):
    free2 = load("free2")
    calls = []
    real = cayley.word_distance

    def counting(*args):
        calls.append(args[1:3])
        return real(*args)

    monkeypatch.setattr(cayley, "word_distance", counting)
    assert check_axioms(WordMetricSpace(free2, 8), free2.elements_up_to(5)).passed
    assert len(calls) == len(set(calls)) == 63 * 63


def test_gamma_table_takes_the_kernel_for_same_edge_pairs_only(monkeypatch):
    # The CLI sample at depth 5 has 62 edge points, one on each edge, so the
    # only same-edge pairs are (p, p) for those.
    free2 = load("free2")
    points = cli_sample(free2, 5)
    calls = []
    real = cayley._base_pair_distance

    def counting(oracle, sources, targets, *rest):
        calls.append((sources, targets))
        return real(oracle, sources, targets, *rest)

    monkeypatch.setattr(cayley, "_base_pair_distance", counting)
    GammaOracle(free2, 8).distance_rows(points)
    assert len(calls) == sum(isinstance(p, EdgePoint) for p in points) == 62
    assert all(len(targets) == 1 and targets[0][1] == sources[0][1] is not None for sources, targets in calls)


# ---------------------------------------------------------------------------
# Random points and cell sets
# ---------------------------------------------------------------------------

# Built once and shared by the examples, since a grown distance field gives
# the same answers as a fresh one; the reference reads oracles of its own.
# zero has the loop edges z·a = z and z·z = z.
ORACLES = {name: load(name) for name in ("free2", "z3", "bicyclic", "zero", "fp_r1_z2", "n3")}
ORACLES["z5"] = cyclic_group(5)
REFERENCE_ORACLES = {name: load(name) for name in ORACLES if name != "z5"}
REFERENCE_ORACLES["z5"] = cyclic_group(5)

offsets = st.integers(min_value=2, max_value=12).flatmap(
    lambda den: st.integers(min_value=1, max_value=den - 1).map(lambda k: Fraction(k, den))
)
closed_offsets = st.integers(min_value=1, max_value=12).flatmap(
    lambda den: st.integers(min_value=0, max_value=den).map(lambda k: Fraction(k, den))
)


@st.composite
def point_pairs(draw):
    name = draw(st.sampled_from(sorted(ORACLES)))
    elements = ORACLES[name].elements_up_to(3)
    gens = ORACLES[name].generators

    def point():
        m = draw(st.sampled_from(elements))
        if draw(st.booleans()):
            return Vertex(m)
        return EdgePoint(m, draw(st.sampled_from(gens)), draw(offsets))

    p = point()
    if isinstance(p, EdgePoint) and draw(st.booleans()):
        q = EdgePoint(p.element, p.gen, draw(offsets))  # same edge
    else:
        q = point()
    return name, p, q, draw(st.integers(min_value=0, max_value=5))


@settings(max_examples=400, deadline=None)
@given(point_pairs())
def test_point_distance_matches_reference(case):
    name, p, q, h = case
    expected = gamma_distance(REFERENCE_ORACLES[name], p, q, h)
    assert cayley.gamma_distance(ORACLES[name], p, q, h) == expected


@st.composite
def edge_samples(draw):
    """A fixture, a horizon and a sample in shuffled order: a few vertices,
    and edges carrying one, two or three points at offsets 1/3, 1/2, 2/3."""
    name = draw(st.sampled_from(sorted(ORACLES)))
    elements = ORACLES[name].elements_up_to(2)
    edges = [(m, s) for m in elements for s in ORACLES[name].generators]
    points = [Vertex(m) for m in draw(st.lists(st.sampled_from(elements), max_size=4, unique=True))]
    for m, s in draw(st.lists(st.sampled_from(edges), min_size=1, max_size=3, unique=True)):
        for mu in draw(st.lists(st.sampled_from(OFFSETS), min_size=1, max_size=3, unique=True)):
            points.append(EdgePoint(m, s, mu))
    return name, draw(st.integers(min_value=0, max_value=5)), draw(st.permutations(points))


@settings(max_examples=300, deadline=None)
@given(edge_samples())
def test_gamma_table_matches_per_pair_rows_on_shared_edges(case):
    name, h, sample = case
    assert_rows_match_per_pair(ORACLES[name], REFERENCE_ORACLES[name], h, sample)


@st.composite
def cell_set_pairs(draw):
    name = draw(st.sampled_from(sorted(ORACLES)))
    elements = ORACLES[name].elements_up_to(2)
    edges = [(m, s) for m in elements for s in ORACLES[name].generators]

    def segment(edge):
        lo, hi = sorted((draw(closed_offsets), draw(closed_offsets)))
        return Segment(edge[0], edge[1], lo, hi)

    def cell_set(shared=()):
        vertices = draw(st.lists(st.sampled_from(elements), max_size=2))
        own = draw(st.lists(st.sampled_from(edges), max_size=2))
        return CellSet(vertices, [segment(e) for e in own + list(shared)])

    A = cell_set()
    A_edges = [(seg.element, seg.gen) for seg in A.segments]
    shared = draw(st.lists(st.sampled_from(A_edges), max_size=2)) if A_edges else []
    return name, A, cell_set(shared), draw(st.integers(min_value=0, max_value=3))


@settings(max_examples=300, deadline=None)
@given(cell_set_pairs())
def test_set_distance_matches_reference(case):
    name, A, B, h = case
    expected = gamma_set_distance(REFERENCE_ORACLES[name], A, B, h)
    assert cayley.gamma_set_distance(ORACLES[name], A, B, h) == expected


def test_point_tie_keeps_the_known_value():
    # The tie of test_table_tie_keeps_the_known_value for a single call, and
    # its unknown twin when the edge points the other way round.
    z5 = cyclic_group(5)
    p = EdgePoint((), "g", Fraction(1, 2))
    half = ExtNonNeg.of(Fraction(1, 2))
    assert cayley.gamma_distance(z5, p, Vertex(()), 0) == TruncatedDistance.known(half)
    assert gamma_distance(z5, p, Vertex(()), 0) == TruncatedDistance.known(half)
    q = EdgePoint(("g",), "g", Fraction(1, 2))
    expected = gamma_distance(z5, q, Vertex(()), 0)
    assert expected == TruncatedDistance.unknown_above(half)
    assert cayley.gamma_distance(z5, q, Vertex(()), 0) == expected


# ---------------------------------------------------------------------------
# The encoding
# ---------------------------------------------------------------------------

KNOWN, UNKNOWN = TruncatedDistance.known, TruncatedDistance.unknown_above
word_distances = st.one_of(
    st.integers(min_value=0, max_value=4).map(KNOWN),
    st.integers(min_value=0, max_value=4).map(UNKNOWN),
    st.just(KNOWN(INF)),
)


@st.composite
def shifted_distances(draw):
    """A denominator L and word distances, each with an offset over L in
    [0, 2L], a source's and a target's together."""
    L = draw(st.integers(min_value=1, max_value=6))
    offsets = st.integers(min_value=0, max_value=2 * L)
    return L, draw(st.lists(st.tuples(word_distances, offsets), min_size=1, max_size=6))


@settings(max_examples=500, deadline=None)
@given(shifted_distances())
@example((1, [(UNKNOWN(1), 0), (KNOWN(1), 0)]))  # a tie: the known value wins
@example((2, [(UNKNOWN(0), 3), (KNOWN(1), 1)]))  # 3/2 both, after offsets
@example((3, [(KNOWN(1), 2), (UNKNOWN(1), 0)]))  # the bound is less
@example((1, [(KNOWN(INF), 0)]))
@example((2, [(KNOWN(INF), 0), (UNKNOWN(2), 4), (KNOWN(INF), 1)]))
def test_plain_min_of_codes_is_truncated_min(case):
    L, items = case
    distances = {(i, "t"): d for i, (d, _) in enumerate(items)}
    expected = truncated_min(TruncatedDistance(d.kind, d.value + Fraction(b, L)) for d, b in items)

    def table(oracle, s, t, horizon):
        return distances[s, t]

    with mock.patch.object(cayley, "word_distance", table):
        codes = [cayley._encoded(None, i, "t", L, 0) for i in range(len(items))]
        least = min((c + 2 * b for c, (_, b) in zip(codes, items) if c is not None), default=None)
        sources = [(i, None, 2 * b) for i, (_, b) in enumerate(items)]
        kernel = cayley._base_pair_distance(None, sources, [("t", None, 0)], None, L, 0)
    with mock.patch.dict(globals(), word_distance=table):
        sources = {i: {None: Fraction(b, L)} for i, (_, b) in enumerate(items)}
        reference = _base_pair_distance(None, sources, {"t": {None: _AT_VERTEX}}, None, 0)
    assert kernel == least
    assert cayley._truncated(least, L) == reference == expected
    assert cayley._truncated(None, L) == truncated_min([])
