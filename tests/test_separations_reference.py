"""S, Q, r, l, lambda and claims 1 and 2 against the horizon-ball and
floor(6R)-ball computations they replaced.

``reference_separations`` is the first body of ``extract_generators`` from
the contact set to Q: d(B, mB) for every m of the horizon ball, S from the
larger of that ball and the floor(2R) ball, and Q by one set distance from
the basepoint per separated translate.  The body that followed it read the
separations off the ball of radius min(h, floor(6R)), so its Q is the
horizon ball's Q cut to that ball.  ``extract_generators`` now reads them
off the ball of radius rho = ceil(3R) - 1, whatever the horizon.  All three
must give the same S, r, l and lambda.  The references' Q entries inside rho
must be the report's, and each of their entries past rho must have
separation >= R, since d(B, mB) >= d(e, m) - 2R.  The claim loops extraction
ran before claims 1 and 2 became theorems (``builders.claim_loops``) find
nothing on the horizon ball's separations, and a planted separation in
(0, r) makes them fail.

The cases are the svarc-milnor runs that reach a report, at h = 1 to 8
(to 7 on fp_r2_z2) and R in {1, 5/4, 3/2, 2, 5/2, 3} with R <= h, and the
submonoid and free-product runs at h = 2 to 8.  R = 1/2 is added: such a B
leaves part of each edge out of ε uncovered, so the cobounded hypothesis is
passed over there to reach the contact set.
"""

import io
import math
import os
from contextlib import redirect_stdout
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import example, given, strategies as st

from monoidgeo import (
    ZERO,
    CellSet,
    ExtNonNeg,
    GammaOracle,
    HorizonTooSmall,
    PropertyReport,
    SmInput,
    Vertex,
    ext_max,
    extract_generators,
    format_word,
)
from monoidgeo import svarcmilnor
from monoidgeo.cayley import gamma_set_distance
from monoidgeo.cli import main, parse_monoid_spec
from builders import claim_loops, q_translates, translates_of
from test_distance_field import symmetric_group_5

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")
RADII = (Fraction(1, 2), Fraction(1), Fraction(5, 4), Fraction(3, 2), Fraction(2), Fraction(5, 2), Fraction(3))
# The fixtures whose extraction reaches the contact set: n3's in-ball is not
# enumerable, and bicyclic and zero are not left-cancellative.
EXTRACTING = ("free1", "free2", "z3", "s3", "fp_r1_z2", "fp_r2_z2")


def reference_separations(inp, translates):
    """(S, separations, Q) as the horizon ball gave them."""
    oracle, gamma, R, horizon, far = inp.monoid, inp.gamma, inp.radius, inp.horizon, inp.far
    B = translates.B
    contact_far = max(horizon, math.floor(2 * R))
    separations = {}
    for m in oracle.elements_up_to(contact_far):
        d = gamma.set_distance(B, translates[m], contact_far)
        if not d.is_known:
            raise HorizonTooSmall(f"d(B, {format_word(m)}B) not known at horizon {contact_far}")
        separations[m] = d.value
    S = [m for m, d in separations.items() if d == ZERO]
    separations = {m: separations[m] for m in oracle.elements_up_to(horizon)}

    center = CellSet([oracle.identity])
    q_translates = []
    for m, sep in separations.items():
        if sep == ZERO or sep.is_infinite:
            continue
        d = gamma_set_distance(gamma.monoid, center, translates[m], far)
        if d.is_known and d.value <= 5 * R:
            q_translates.append((m, sep))
    return S, separations, q_translates


def _r(R, q_translates):
    min_q = min((sep.finite_value() for _, sep in q_translates), default=None)
    return (R if min_q is None else min(R, min_q)) / 2


def _agree(report, inp):
    """The horizon ball's separations and Q, after checking the report
    against both references and running the claim loops on them."""
    oracle, R = inp.monoid, inp.radius
    S, separations, q_horizon = reference_separations(inp, translates_of(inp, report))
    six = set(oracle.elements_up_to(min(inp.horizon, math.floor(6 * R))))
    x0 = Vertex(oracle.identity)
    lam = ext_max(inp.gamma.distance(x0, Vertex(s), inp.far).value for s in S)
    assert report.generators == S
    assert list(report.separations) == oracle.elements_up_to(math.ceil(3 * R) - 1)
    assert all(report.separations[m] == sep for m, sep in separations.items() if m in report.separations)
    for q in (q_horizon, [(m, sep) for m, sep in q_horizon if m in six]):
        assert (report.r, report.l, report.lam) == (_r(R, q), _r(R, q) / 2, lam)
        assert [x for x in q if x[0] in report.separations] == [x for x in q_translates(report) if x[0] in separations]
        assert all(sep >= ExtNonNeg.of(R) for m, sep in q if m not in report.separations)
    for claim in (report.claim1, report.claim2):
        assert claim.verdict == "pass" and claim.artifacts["basis"].startswith("theorem: ")
    assert claim_loops(report, inp, separations)[:2] == ([], [])
    return separations, q_horizon


POSITIVE = st.fractions(min_value=0, max_value=50, max_denominator=60).filter(lambda x: x > 0)
UNIT = st.fractions(min_value=0, max_value=1, max_denominator=60).filter(lambda x: x > 0)


@given(POSITIVE, UNIT)
@example(Fraction(1, 1000), Fraction(1))
@example(Fraction(1, 3), Fraction(1))
def test_the_ball_arithmetic_the_bases_cite(R, t):
    r = t * R / 2  # 0 < r <= R/2, as r = min(R, min Q)/2 with Q's entries positive
    rho = math.ceil(3 * R) - 1
    assert math.floor(2 * R) <= rho  # S lies in the separations ball
    assert math.ceil(2 * R + r) - 1 <= rho  # and so do claim 2's steps
    assert rho < 5 * R  # each m of the ball touches C at its own vertex
    assert math.ceil(3 * R) - 2 * R >= R  # a separation past the ball cannot lower r


@lru_cache(maxsize=None)
def _oracle(name):
    oracle, _ = parse_monoid_spec(os.path.join(FIXTURES, f"{name}.json"))
    return oracle


def _pass_cobounded(monkeypatch):
    monkeypatch.setattr(svarcmilnor, "check_cobounded", lambda *args: PropertyReport("cobounded", "pass", 0))


CASES = [(name, horizon, R) for name in EXTRACTING for horizon in range(1, 8 if name == "fp_r2_z2" else 9)
         for R in RADII if R <= horizon]


@pytest.mark.parametrize("name,horizon,R", CASES, ids=[f"{n}-h{h}-R{R}" for n, h, R in CASES])
def test_separations_match_the_horizon_ball(monkeypatch, name, horizon, R):
    if R == Fraction(1, 2):
        _pass_cobounded(monkeypatch)
    oracle = _oracle(name)
    inp = SmInput(oracle, GammaOracle(oracle, horizon), R, horizon)
    _agree(extract_generators(inp), inp)


def test_separations_match_the_horizon_ball_on_s5_at_its_diameter():
    oracle = symmetric_group_5()
    inp = SmInput(oracle, GammaOracle(oracle, 11), Fraction(1), 11)
    separations, _ = _agree(extract_generators(inp), inp)
    assert len(separations) == 120


def test_q_entries_past_rho_cannot_lower_r():
    # fp_r2_z2 at h = 8 and R = 1: the references' Q holds translates of
    # depth 3 to 6, past rho = 2, all at separation >= R, and the report's
    # separations stop at depth 2.
    oracle = _oracle("fp_r2_z2")
    inp = SmInput(oracle, GammaOracle(oracle, 8), Fraction(1), 8)
    report = extract_generators(inp)
    _, q_horizon = _agree(report, inp)
    assert {len(m) for m, _ in q_horizon} == {2, 3, 4, 5, 6}
    assert max(len(m) for m in report.separations) == 2
    assert q_translates(report) == [(m, sep) for m, sep in q_horizon if len(m) == 2]


@pytest.fixture
def recorded(monkeypatch):
    calls = []
    real = svarcmilnor.extract_generators

    def record(inp):
        report = real(inp)
        calls.append((report, inp))
        return report

    monkeypatch.setattr(svarcmilnor, "extract_generators", record)
    return calls


PIPELINE_CASES = [(name, horizon, command) for name in ("fp_r1_z2", "fp_r2_z2")
                  for horizon in range(2, 9) for command in ("submonoid", "free-product")]


@pytest.mark.parametrize("name,horizon,command", PIPELINE_CASES,
                         ids=[f"{n}-h{h}-{c}" for n, h, c in PIPELINE_CASES])
def test_separations_match_the_horizon_ball_in_the_pipelines(recorded, name, horizon, command):
    with redirect_stdout(io.StringIO()):
        code = main(["--monoid", os.path.join(FIXTURES, f"{name}.json"), "--horizon", str(horizon), command])
    assert code == 0
    ((report, inp),) = recorded
    _agree(report, inp)


def test_planted_claim1_witnesses_keep_the_bfs_order():
    # Two translates of depth 6 outside C, planted at separation 1/4 < r in
    # reverse BFS order: the claim-1 loop names both, in BFS order, and the
    # claim-2 loop, whose steps lie within depth 2, names neither.
    oracle = _oracle("fp_r1_z2")
    inp = SmInput(oracle, GammaOracle(oracle, 8), Fraction(1), 8)
    report = extract_generators(inp)
    separations, q_horizon = _agree(report, inp)
    q = dict(q_horizon)
    outside = [m for m, sep in separations.items() if len(m) == 6 and m not in q and sep != ZERO]
    planted = dict(separations)
    for m in reversed(outside[:2]):
        planted[m] = ExtNonNeg.of(Fraction(1, 4))
    c1, c2, _ = claim_loops(report, inp, planted)
    assert [w["h"] for w in c1] == [format_word(m) for m in outside[:2]]
    assert c2 == []


def test_planted_step_separation_fails_both_claim_loops():
    # A step q of claim 2 outside S, planted at separation 1/4 < r = 1/2.
    oracle = _oracle("fp_r1_z2")
    inp = SmInput(oracle, GammaOracle(oracle, 8), Fraction(1), 8)
    report = extract_generators(inp)
    assert report.r == Fraction(1, 2)
    q = next(m for m, sep in report.separations.items() if sep != ZERO)
    planted = {**report.separations, q: ExtNonNeg.of(Fraction(1, 4))}
    c1, c2, _ = claim_loops(report, inp, planted)
    assert c1 == [{"h": format_word(q), "d(B,hB)": ExtNonNeg.of(Fraction(1, 4))}]
    assert c2 == [{"m": "ε", "n": format_word(q), "d(mB,nB)": ExtNonNeg.of(Fraction(1, 4))}]
