"""Claim 2 against the pair loop and the step loop it replaced.

``reference_claim2`` is the first claim-2 loop of ``extract_generators``:
it visits every pair (m, n) of the horizon ball, skips those whose orbit
points are at least 2R + r apart, since d(mB, nB) >= d(m x0, n x0) - 2R,
and takes the set distance of the rest.  The step loop that followed it,
``builders.claim_loops``, compares B only with its right neighbours qB, q
in the ball of radius ceil(2R + r) - 1, and carries the comparison to every
m by left translation.  Extraction now reports claim 2 as a theorem: on
every report both loops must find nothing.  Planted into a report, a
missing contact element must make both fail, the step loop's witnesses
being the pair loop's witnesses with m = e, in the same order, and every
pair-loop witness (m, n) being n = m*q for some step-loop witness q.
"""

import io
import math
import os
from contextlib import redirect_stdout
from fractions import Fraction

import pytest

from monoidgeo import (
    ExtNonNeg,
    GammaOracle,
    HorizonTooSmall,
    SmInput,
    Vertex,
    extract_generators,
    format_word,
)
from monoidgeo import cayley, svarcmilnor
from monoidgeo.cli import main, parse_monoid_spec
from builders import claim_loops, translates_of
from test_distance_field import symmetric_group_5

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")
RADII = (Fraction(1), Fraction(3, 2), Fraction(2))


def reference_claim2(report, inp):
    """The number of pairs the former loop checked, and its witnesses."""
    oracle = inp.monoid
    gamma = inp.gamma
    far = inp.far
    r = report.r
    pair_ball = oracle.elements_up_to(inp.horizon)
    translates = translates_of(inp, report)
    threshold = ExtNonNeg.of(2 * inp.radius + r)
    witnesses = []
    pairs_checked = 0
    for m in pair_ball:
        for n in pair_ball:
            orbit = gamma.distance(Vertex(m), Vertex(n), far)
            if orbit.is_known and (orbit.value.is_infinite or orbit.value >= threshold):
                continue
            if not orbit.is_known and orbit.value >= threshold:
                continue
            d = gamma.set_distance(translates[m], translates[n], far)
            if not d.is_known:
                raise HorizonTooSmall(f"d({format_word(m)}B, {format_word(n)}B) unknown")
            pairs_checked += 1
            if d.value < ExtNonNeg.of(r):
                if not any(oracle.multiply(m, u) == n for u in report.generators):
                    witnesses.append(
                        {"m": format_word(m), "n": format_word(n), "d(mB,nB)": d.value}
                    )
    return pairs_checked, witnesses


def _agree(report, inp):
    """The pair loop's witnesses, after checking the step loop, run on the
    report's separations, against them.  Claim 2 is reported as a theorem."""
    oracle = inp.monoid
    _, witnesses = reference_claim2(report, inp)
    c1, ours, _ = claim_loops(report, inp, report.separations)
    assert report.claim2.verdict == "pass" and report.claim2.witnesses == []
    assert report.claim2.artifacts["basis"].startswith("theorem: ")
    assert c1 == []
    assert ours == [w for w in witnesses if w["m"] == format_word(oracle.identity)]
    steps = [oracle.parse_word(w["n"]) for w in ours]
    for w in witnesses:
        m, n = oracle.parse_word(w["m"]), oracle.parse_word(w["n"])
        assert any(oracle.multiply(m, q) == n for q in steps), w
    return witnesses


def _svarc_milnor_input(oracle, horizon, radius):
    return SmInput(oracle, GammaOracle(oracle, horizon), radius, horizon)


def _fixture_oracle(name):
    oracle, _ = parse_monoid_spec(os.path.join(FIXTURES, name))
    return oracle


SVARC_MILNOR_CASES = [
    (fixture, horizon, radius)
    for fixture in ("free2.json", "z3.json", "fp_r1_z2.json", "fp_r2_z2.json")
    for horizon in range(3, 7)
    for radius in RADII
]


@pytest.mark.parametrize(
    "fixture,horizon,radius", SVARC_MILNOR_CASES,
    ids=[f"{f}-h{h}-R{R}" for f, h, R in SVARC_MILNOR_CASES],
)
def test_claim2_matches_the_pair_loop(fixture, horizon, radius):
    inp = _svarc_milnor_input(_fixture_oracle(fixture), horizon, radius)
    assert _agree(extract_generators(inp), inp) == []


@pytest.mark.parametrize("radius", RADII, ids=[str(R) for R in RADII])
def test_claim2_matches_the_pair_loop_on_s5_at_its_diameter(radius):
    inp = _svarc_milnor_input(symmetric_group_5(), 11, radius)
    assert _agree(extract_generators(inp), inp) == []


@pytest.mark.parametrize("horizon", range(3, 7))
def test_an_integer_threshold_excludes_pairs_at_it(horizon):
    # R = 5/4 and r = 1/2 on free2: 2R + r = 3, so claim 2 compares B with
    # qB for the 7 elements q of length at most 2 and not for those of length 3.
    oracle = _fixture_oracle("free2.json")
    inp = _svarc_milnor_input(oracle, horizon, Fraction(5, 4))
    report = extract_generators(inp)
    assert 2 * inp.radius + report.r == 3
    assert claim_loops(report, inp, report.separations)[2] == 7
    assert _agree(report, inp) == []


@pytest.fixture
def recorded(monkeypatch):
    """The report and input of every extraction the pipelines run."""
    calls = []
    real = svarcmilnor.extract_generators

    def record(inp):
        report = real(inp)
        calls.append((report, inp))
        return report

    monkeypatch.setattr(svarcmilnor, "extract_generators", record)
    return calls


def _run_cli(fixture, *args):
    with redirect_stdout(io.StringIO()):
        return main(["--monoid", os.path.join(FIXTURES, fixture), *args])


PIPELINE_CASES = [
    (fixture, horizon, command)
    for fixture in ("fp_r1_z2.json", "fp_r2_z2.json")
    for horizon in range(3, 6)
    for command in ("submonoid", "free-product")
]


@pytest.mark.parametrize(
    "fixture,horizon,command", PIPELINE_CASES,
    ids=[f"{f}-h{h}-{c}" for f, h, c in PIPELINE_CASES],
)
def test_claim2_matches_the_pair_loop_in_the_pipelines(recorded, fixture, horizon, command):
    assert _run_cli(fixture, "--horizon", str(horizon), command) == 0
    ((report, inp),) = recorded
    assert report.claim2.horizon == horizon
    assert _agree(report, inp) == []


def _drop_from_contact_set(monkeypatch, *dropped):
    """Make the contact set leave the elements `dropped` out of S."""
    real = svarcmilnor.compute_contact_set

    def drop(*args, **kwargs):
        S, separations = real(*args, **kwargs)
        for u in dropped:
            S.remove(u)
        return S, separations

    monkeypatch.setattr(svarcmilnor, "compute_contact_set", drop)


PLANTED_ORACLES = {
    "free2": (lambda: _fixture_oracle("free2.json"), 4),
    "S5": (symmetric_group_5, 11),
}


@pytest.mark.parametrize("name", sorted(PLANTED_ORACLES))
def test_planted_missing_contact_element_fails_both_ways(monkeypatch, name):
    _drop_from_contact_set(monkeypatch, ("b",))
    oracle, horizon = PLANTED_ORACLES[name]
    inp = _svarc_milnor_input(oracle(), horizon, Fraction(1))
    report = extract_generators(inp)
    witnesses = _agree(report, inp)
    # b touches B, so the pair (e, b) is the first one left without a step.
    assert witnesses[0] == {"m": "ε", "n": "b", "d(mB,nB)": ExtNonNeg.of(0)}


@pytest.mark.parametrize("name", sorted(PLANTED_ORACLES))
def test_planted_missing_contact_elements_keep_the_witness_order(monkeypatch, name):
    # Two witnesses for each m, so the order within one m's neighbours shows.
    _drop_from_contact_set(monkeypatch, ("a",), ("b",))
    oracle, horizon = PLANTED_ORACLES[name]
    inp = _svarc_milnor_input(oracle(), horizon, Fraction(1))
    report = extract_generators(inp)
    witnesses = _agree(report, inp)
    assert [(w["m"], w["n"]) for w in witnesses[:2]] == [("ε", "a"), ("ε", "b")]


def test_planted_missing_contact_element_exits_1(monkeypatch):
    # Claim 2 is a theorem about the true S, so the generation bound, which
    # has no contact element for the step to b, is what fails.
    _drop_from_contact_set(monkeypatch, ("b",))
    generations = []
    real = svarcmilnor.verify_generation_bound

    def record(report, inp):
        generations.append(real(report, inp))
        return generations[-1]

    monkeypatch.setattr(svarcmilnor, "verify_generation_bound", record)
    assert _run_cli("free2.json", "--horizon", "4", "svarc-milnor", "-R", "1") == 1
    (generation,) = generations
    assert generation.verdict == "fail"
    assert generation.witnesses[0]["m"] == "b"


def test_extraction_takes_one_set_distance_per_element_of_the_rho_ball(monkeypatch):
    # The pair loop made about half a million orbit distance calls at h = 6.
    # Extraction now takes d(B, mB) once for each m of the ball of radius
    # ceil(3R) - 1, in BFS order, whatever the horizon, and no other set
    # distance: Q, r and both claims are read off those separations.
    calls = []
    real = cayley.gamma_set_distance

    def count(oracle, X, Y, horizon):
        calls.append((X, Y))
        return real(oracle, X, Y, horizon)

    monkeypatch.setattr(cayley, "gamma_set_distance", count)
    oracle = _fixture_oracle("fp_r2_z2.json")
    for horizon, radius in ((2, Fraction(2)), (4, Fraction(1)), (6, Fraction(1)), (8, Fraction(1))):
        calls.clear()
        inp = _svarc_milnor_input(oracle, horizon, radius)
        report = extract_generators(inp)
        ball = oracle.elements_up_to(math.ceil(3 * radius) - 1)
        assert list(report.separations) == ball
        assert all(X is report.ball for X, _ in calls)
        assert [Y for _, Y in calls] == [report.ball.translate(oracle, m) for m in ball]
        if horizon == 2:
            assert len(ball) > len(oracle.elements_up_to(horizon))  # the ball reaches past the horizon
