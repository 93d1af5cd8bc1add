"""Q, r, l and claims 1 and 2 against the horizon-ball computation they
replaced.

``reference_separations`` is the former body of ``extract_generators``
from the contact set to claim 2: d(B, mB) for every m of the horizon ball,
Q by one set distance from the basepoint per separated translate, r and l
from Q, claim 1 over the whole horizon ball, and claim 2 by one set
distance per step q.  ``extract_generators`` now reads the separations off
the ball of radius min(h, floor(6R)), takes a basepoint set distance only
on the ring 5R < d(e, m) <= 6R, and claim 2 reads the separations where
they reach.  Both must give the same S, Q (in order), r, l, claim 1 and
claim 2, and the new separations must be a prefix of the old ones.

R = 1/2 puts floor(6R) = 3 below every horizon from 4 on; such a B leaves
part of each edge out of ε uncovered, so the cobounded hypothesis is passed
over there to reach the contact set.
"""

import io
import math
import os
from contextlib import redirect_stdout
from fractions import Fraction
from functools import lru_cache

import pytest

from monoidgeo import (
    ZERO,
    CellSet,
    ExtNonNeg,
    GammaOracle,
    HorizonTooSmall,
    PropertyReport,
    SmInput,
    extract_generators,
    format_word,
)
from monoidgeo import svarcmilnor
from monoidgeo.cayley import gamma_set_distance
from monoidgeo.cli import main, parse_monoid_spec
from builders import translates_of

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")
RADII = (Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2))
# The fixtures whose extraction reaches the contact set: n3's in-ball is not
# enumerable, and bicyclic and zero are not left-cancellative.
EXTRACTING = ("free1", "free2", "z3", "s3", "fp_r1_z2", "fp_r2_z2")


def reference_separations(inp, translates, plant=None):
    """(S, separations, Q, r, l, claim 1, claim 2) as the horizon ball gave
    them; `plant` overrides the separations of some elements."""
    oracle, gamma, R, horizon, far = inp.monoid, inp.gamma, inp.radius, inp.horizon, inp.far
    e = oracle.identity
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
    separations.update(plant or {})

    center = CellSet([e])
    q_translates = []
    for m, sep in separations.items():
        if sep == ZERO or sep.is_infinite:
            continue
        d = gamma_set_distance(gamma.monoid, center, translates[m], far)
        if d.is_known and d.value <= 5 * R:
            q_translates.append((m, sep))
    min_q = min((sep.finite_value() for _, sep in q_translates), default=None)
    r = (R if min_q is None else min(R, min_q)) / 2

    c1 = [
        {"h": format_word(m), "d(B,hB)": sep}
        for m, sep in separations.items()
        if not sep.is_infinite and ZERO < sep < ExtNonNeg.of(r)
    ]
    claim1 = PropertyReport("claim1_gap", "fail" if c1 else "pass", horizon, c1)

    steps = oracle.elements_up_to(math.ceil(2 * R + r) - 1)
    c2 = []
    for q in steps:
        d = gamma_set_distance(gamma.monoid, B, translates[q], far)
        if not d.is_known:
            raise HorizonTooSmall(f"d(B, {format_word(q)}B) unknown")
        if d.value < ExtNonNeg.of(r) and q not in S:
            c2.append({"m": format_word(e), "n": format_word(q), "d(mB,nB)": d.value})
    claim2 = PropertyReport("claim2_quotient", "fail" if c2 else "pass", horizon, c2,
                            artifacts={"pairs_checked": len(steps)})
    return S, separations, q_translates, r, r / 2, claim1, claim2


def _agree(report, inp, plant=None):
    S, separations, q_translates, r, l, claim1, claim2 = reference_separations(inp, translates_of(inp, report), plant)
    assert report.generators == S
    ball = inp.monoid.elements_up_to(min(inp.horizon, math.floor(6 * inp.radius)))
    assert list(report.separations) == ball == list(separations)[: len(ball)]
    assert report.separations == {m: separations[m] for m in ball}
    assert report.q_translates == q_translates
    assert (report.r, report.l) == (r, l)
    assert report.claim1.to_json() == claim1.to_json()
    assert report.claim2.to_json() == claim2.to_json()
    return claim1


@lru_cache(maxsize=None)
def _oracle(name):
    oracle, _ = parse_monoid_spec(os.path.join(FIXTURES, f"{name}.json"))
    return oracle


def _pass_cobounded(monkeypatch):
    monkeypatch.setattr(svarcmilnor, "check_cobounded", lambda *args: PropertyReport("cobounded", "pass", 0))


CASES = [(name, horizon, R) for name in EXTRACTING for horizon in range(2, 9) for R in RADII if R <= horizon]


@pytest.mark.parametrize("name,horizon,R", CASES, ids=[f"{n}-h{h}-R{R}" for n, h, R in CASES])
def test_separations_match_the_horizon_ball(monkeypatch, name, horizon, R):
    if R == Fraction(1, 2):
        _pass_cobounded(monkeypatch)
    oracle = _oracle(name)
    inp = SmInput(oracle, GammaOracle(oracle, horizon), R, horizon)
    _agree(extract_generators(inp), inp)


def test_the_ring_and_the_capped_ball_are_reached():
    # fp_r2_z2 at h = 8 and R = 1: Q holds translates of depth 6, which only
    # the ring's set distances find, and the separations stop at depth 6.
    oracle = _oracle("fp_r2_z2")
    inp = SmInput(oracle, GammaOracle(oracle, 8), Fraction(1), 8)
    report = extract_generators(inp)
    _agree(report, inp)
    depths = {len(m) for m, _ in report.q_translates}
    assert 6 in depths and max(len(m) for m in report.separations) == 6
    assert len(report.separations) < len(oracle.elements_up_to(8))


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
                  for horizon in (2, 4, 6) for command in ("submonoid", "free-product")]


@pytest.mark.parametrize("name,horizon,command", PIPELINE_CASES,
                         ids=[f"{n}-h{h}-{c}" for n, h, c in PIPELINE_CASES])
def test_separations_match_the_horizon_ball_in_the_pipelines(recorded, name, horizon, command):
    with redirect_stdout(io.StringIO()):
        code = main(["--monoid", os.path.join(FIXTURES, f"{name}.json"), "--horizon", str(horizon), command])
    assert code == 0
    ((report, inp),) = recorded
    _agree(report, inp)


def test_planted_claim1_witnesses_keep_the_bfs_order(monkeypatch):
    # Two translates of depth 6 outside C, planted at separation 1/4 < r in
    # reverse BFS order: Q and r do not move, and claim 1 names both, in BFS
    # order, as the horizon ball did.
    oracle = _oracle("fp_r1_z2")
    inp = SmInput(oracle, GammaOracle(oracle, 8), Fraction(1), 8)
    report = extract_generators(inp)
    q = dict(report.q_translates)
    outside = [m for m, sep in report.separations.items() if len(m) == 6 and m not in q and sep != ZERO]
    plant = {m: ExtNonNeg.of(Fraction(1, 4)) for m in reversed(outside[:2])}

    real = svarcmilnor.compute_contact_set

    def planted(*args):
        S, separations = real(*args)
        for m, sep in plant.items():
            separations[m] = sep
        return S, separations

    monkeypatch.setattr(svarcmilnor, "compute_contact_set", planted)
    report = extract_generators(inp)
    claim1 = _agree(report, inp, plant)
    assert claim1.verdict == "fail"
    assert [w["h"] for w in claim1.witnesses] == [format_word(m) for m in outside[:2]]
