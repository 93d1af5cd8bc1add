"""The quasi-isometry check against the pair loop it replaced.

``reference_qi_witnesses`` is the former body of ``verify_qi_bounds``: it
visits every pair (m1, m2) of the horizon ball, takes the quotient q of a
shortest word from m1 to m2, and tests both inequalities with d_S(m1, m2)
= d_S(e, q).  ``distances_over_generators`` finds d_S(e, q) by a BFS over
right multiplication by S that prunes nothing; it stops once every quotient
the loop asks for is reached, or at the loop's cap int(max depth / l) + 1.

``verify_qi_bounds`` now reads d_S <= d/l + 1 off the generation
certificates, for every pair at orbit distance <= horizon, and takes
d <= lambda d_S as a lemma.  The pairs the loop checked beyond that
distance are counted here, so what the new claim leaves out stays measured.

``reference_coverage`` is the former coverage loop.  It asked, for each
sample point x, for a covering element h with d(h, x) <= R and d(x, h) <= R.
``verify_qi_bounds`` no longer asks: the exact cobounded check puts every
point in some hB, and x in hB puts x within R of h both ways.  Wherever
that check passes, the reference must find no failure, and it checks both
distances for every covering element of every sample point.
"""

import io
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
    shortest_word,
    verify_generation_bound,
    verify_qi_bounds,
    word_distance,
)
from monoidgeo import svarcmilnor
from monoidgeo.cli import main, parse_monoid_spec
from builders import covering_elements, replaced, sample_points, translates_of
from test_distance_field import symmetric_group_5

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def distances_over_generators(oracle, S, targets, cap):
    """d_S(e, m) for every m a BFS over right multiplication by S reaches
    before all of `targets` are reached or the depth reaches `cap`."""
    dist = {oracle.identity: 0}
    frontier = [oracle.identity]
    missing = set(targets) - set(dist)
    depth = 0
    while missing and frontier and depth < cap:
        depth += 1
        nxt = []
        for m in frontier:
            for u in S:
                p = oracle.multiply(m, u)
                if p not in dist:
                    dist[p] = depth
                    nxt.append(p)
                    missing.discard(p)
        frontier = nxt
    return dist


def reference_qi_witnesses(report, inp):
    """The inequality witnesses of the former pair loop over the horizon
    ball, and the number of finite pairs it checked beyond the horizon."""
    oracle = inp.monoid
    gamma = inp.gamma
    x0 = Vertex(oracle.identity)
    far = inp.far
    l, lam = report.l, report.lam
    ball = oracle.elements_up_to(inp.horizon)
    max_depth = max(gamma.known_distance(x0, Vertex(m)).finite_value() for m in ball)
    cap = int(max_depth / l) + 1
    quotients = {}
    for m1 in ball:
        for m2 in ball:
            orbit = word_distance(oracle, m1, m2, far)
            if not orbit.is_known:
                raise HorizonTooSmall(f"d(f({format_word(m1)}), f({format_word(m2)})) unknown")
            if orbit.value.is_infinite:
                # m2 is not in m1*N, so not in m1*M either: d_S is infinite
                # too, and both inequalities hold.
                continue
            q = oracle.normal_form(shortest_word(oracle, m1, m2, far))
            quotients[m1, m2] = (q, orbit.value.finite_value())
    dS_from_e = distances_over_generators(
        oracle, report.generators, {q for q, _ in quotients.values()}, cap
    )
    witnesses = []
    for (m1, m2), (q, D) in quotients.items():
        dS = dS_from_e.get(q)
        if dS is None:
            witnesses.append(
                {"m1": format_word(m1), "m2": format_word(m2),
                 "reason": f"quotient {format_word(q)} not reachable over S within cap {cap}"}
            )
            continue
        if Fraction(dS) > D / l + 1:
            witnesses.append(
                {"m1": format_word(m1), "m2": format_word(m2),
                 "inequality": "d_S(m1,m2) <= (1/l) d(f(m1),f(m2)) + 1",
                 "d_S": dS, "d": [D.numerator, D.denominator]}
            )
        if lam.is_finite and ExtNonNeg.of(D) > ExtNonNeg.of(Fraction(dS)).scale(lam.finite_value()):
            witnesses.append(
                {"m1": format_word(m1), "m2": format_word(m2),
                 "inequality": "d(f(m1),f(m2)) <= lambda d_S(m1,m2)",
                 "d_S": dS, "d": [D.numerator, D.denominator]}
            )
    beyond = sum(D > inp.horizon for _, D in quotients.values())
    return witnesses, beyond


def reference_coverage(report, inp):
    """The sample points the former coverage loop reported, after checking
    d(h, x) <= R and d(x, h) <= R for every covering element h of every
    sample point x; and the number of (x, h) pairs checked."""
    gamma = inp.gamma
    R = ExtNonNeg.of(inp.radius)
    sample = sample_points(gamma.out_ball_cellset(inp.monoid.identity, Fraction(min(inp.horizon, 3)), inp.far))
    translates = translates_of(inp, report)
    failures, pairs = [], 0
    for x in sample:
        covering = list(covering_elements(inp, translates, x))
        for h in covering:
            assert gamma.known_distance(Vertex(h), x) <= R, (x, h)
            assert gamma.known_distance(x, Vertex(h)) <= R, (x, h)
        pairs += len(covering)
        if not covering:
            failures.append(str(x))
    return failures, pairs


@pytest.fixture
def recorded(monkeypatch):
    """Every verify_qi_bounds call the pipelines make, with the reference's
    answer on the same extraction report."""
    calls = []
    real = svarcmilnor.verify_qi_bounds

    def record(report, inp, generation):
        qi = real(report, inp, generation)
        calls.append((qi, reference_qi_witnesses(report, inp) + reference_coverage(report, inp)))
        return qi

    monkeypatch.setattr(svarcmilnor, "verify_qi_bounds", record)
    return calls


def _run_cli(fixture, *args):
    with redirect_stdout(io.StringIO()):
        return main(["--monoid", os.path.join(FIXTURES, fixture), *args])


def _agree(qi, reference):
    witnesses, _, failures, pairs = reference
    assert bool(qi.witnesses) == bool(witnesses)
    # The run passed the exact cobounded check, so coverage is the lemma's.
    assert failures == [] and pairs > 0


# (fixture, CLI arguments) -> finite pairs of the ball the loop checked at
# orbit distance horizon + 1, which the certificate claim leaves out.
CLI_CASES = {
    ("free1.json", "--horizon 4 svarc-milnor -R 1"): 0,
    ("free2.json", "--horizon 4 svarc-milnor -R 1"): 0,
    ("z3.json", "svarc-milnor -R 1"): 0,
    ("fp_r1_z2.json", "--horizon 3 svarc-milnor -R 1"): 3,
    ("fp_r1_z2.json", "--horizon 4 svarc-milnor -R 1"): 5,
    ("fp_r2_z2.json", "--horizon 3 svarc-milnor -R 1"): 16,
    ("fp_r2_z2.json", "--horizon 4 svarc-milnor -R 1"): 44,
    ("fp_r1_z2.json", "--horizon 4 submonoid"): 0,
    ("fp_r2_z2.json", "--horizon 4 submonoid"): 0,
    ("fp_r1_z2.json", "--horizon 4 free-product"): 0,
    ("fp_r2_z2.json", "--horizon 4 free-product"): 0,
}


@pytest.mark.parametrize("fixture,args", sorted(CLI_CASES), ids=[" ".join(c) for c in sorted(CLI_CASES)])
def test_qi_verdict_matches_the_pair_loop(recorded, fixture, args):
    assert _run_cli(fixture, *args.split()) == 0
    ((qi, reference),) = recorded
    _agree(qi, reference)
    assert reference[1] == CLI_CASES[fixture, args]


def test_qi_verdict_matches_the_pair_loop_on_s5_at_its_diameter(recorded):
    gamma = GammaOracle(symmetric_group_5(), 11)
    inp = SmInput(gamma.monoid, gamma, Fraction(1), 11)
    out = svarcmilnor.run_pipeline(inp)
    ((qi, reference),) = recorded
    assert qi is out["qi"]
    _agree(qi, reference)
    assert reference[1] == 0


def _without_b(report):
    return replaced(report, generators=[s for s in report.generators if s != ("b",)])


def test_planted_missing_generator_fails_both_ways():
    oracle, _ = parse_monoid_spec(os.path.join(FIXTURES, "free2.json"))
    inp = SmInput(oracle, GammaOracle(oracle, 4), Fraction(1), 4)
    planted = _without_b(extract_generators(inp))
    witnesses, _ = reference_qi_witnesses(planted, inp)
    assert {"m1": "ε", "m2": "b", "reason": "quotient b not reachable over S within cap 17"} in witnesses

    # No contact element carries a step to b: the factorization stops and
    # the generation bound records where, instead of raising.
    generation = verify_generation_bound(planted, inp)
    assert generation.verdict == "fail"
    by_m = {w["m"]: w for w in generation.witnesses}
    assert set(by_m["b"]) == {"m", "step", "reason"}
    assert "no contact element carries" in by_m["b"]["reason"]
    qi = verify_qi_bounds(planted, inp, generation)
    assert qi.verdict == "fail"
    assert "b" in [w.get("q") for w in qi.witnesses]


def test_planted_missing_generator_exits_1(monkeypatch):
    real = svarcmilnor.extract_generators
    monkeypatch.setattr(svarcmilnor, "extract_generators", lambda inp: _without_b(real(inp)))
    assert _run_cli("free2.json", "--horizon", "4", "svarc-milnor", "-R", "1") == 1
