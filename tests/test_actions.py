"""Translation actions and the action-property checkers."""

import json
import os
from fractions import Fraction

import pytest

from monoidgeo import (
    EdgePoint,
    ExtNonNeg,
    FreeMonoid,
    FreeProductMonoid,
    GammaOracle,
    HorizonTooSmall,
    SmInput,
    TableMonoid,
    TruncatedDistance,
    Vertex,
    check_action_laws,
    check_cancellative,
    check_cobounded,
    check_idealistic,
    check_isometric_embedding_action,
    compute_contact_set,
    from_spec_dict,
    run_pipeline,
)
from monoidgeo.cayley import Translates
from builders import (
    ActionOracle,
    PairwiseSpace,
    apply_translation,
    bicyclic_monoid,
    cyclic_group,
    sampled_action_laws,
    sampled_idealistic,
    sampled_isometric_embedding,
    translation_action,
    zero_monoid,
)

F1 = FreeMonoid(1, ["a"])
F2 = FreeMonoid(2, ["a", "b"])
Z3 = cyclic_group(3)

FIXTURES = [
    ("F1", F1),
    ("F2", F2),
    ("Z3", Z3),
    ("F1*Z2", FreeProductMonoid(1, cyclic_group(2))),
    ("bicyclic", bicyclic_monoid()),
    ("zero", zero_monoid()),
]


def test_apply_translation_examples():
    assert apply_translation(F2, ("a",), EdgePoint((), "b", Fraction(1, 2))) == EdgePoint(
        ("a",), "b", Fraction(1, 2)
    )
    assert apply_translation(F2, (), Vertex(("b",))) == Vertex(("b",))
    assert apply_translation(F2, ("a",), Vertex(("b",))) == Vertex(("a", "b"))


@pytest.mark.parametrize("name,oracle", FIXTURES)
def test_action_laws(name, oracle):
    gamma = GammaOracle(oracle, 6)
    action = translation_action(gamma)
    ms = oracle.elements_up_to(2)
    points = [Vertex(m) for m in ms] + [
        EdgePoint(m, s, Fraction(1, 2)) for m in oracle.elements_up_to(1) for s in oracle.generators
    ]
    assert sampled_action_laws(action, ms, points).passed
    assert check_action_laws(oracle).verdict == "pass"


FIXTURE_DIR = os.path.join(os.path.dirname(__file__), "fixtures")
SPEC_FIXTURES = sorted(f[:-5] for f in os.listdir(FIXTURE_DIR))
# Left zeros a*x = a, b*x = b adjoined to an identity: no class theorem, and a*a = a*ε.
LEFT_ZEROS = TableMonoid(["e", "a", "b"], [[0, 1, 2], [1, 1, 1], [2, 2, 2]], generators=["a", "b"])


def _decisions_and_samplers(oracle, horizon):
    """(decisions, sampler verdicts or None where a distance is not known)
    on `check action`'s sample at `horizon` and its default depth: the
    multipliers and vertices of depth <= 3."""
    depth = min(horizon, 3)
    ms = oracle.elements_up_to(depth)
    action = translation_action(GammaOracle(oracle, horizon))
    points = [Vertex(m) for m in ms]
    decisions = (check_action_laws(oracle), check_isometric_embedding_action(oracle, ms, depth, horizon, horizon))
    try:
        samplers = (sampled_action_laws(action, ms, points), sampled_isometric_embedding(action, ms, points, horizon))
    except HorizonTooSmall:
        samplers = None
    return decisions, samplers


@pytest.mark.parametrize("horizon", [2, 3, 4, 5])
@pytest.mark.parametrize("name", SPEC_FIXTURES)
def test_decisions_agree_with_the_samplers(name, horizon):
    # Wherever the former pair-by-pair samplers reach a verdict, the
    # decisions give the same one (pass and holds_at_horizon alike).  On N³
    # the samplers cannot certify an infinite distance, so they reach none.
    with open(os.path.join(FIXTURE_DIR, f"{name}.json"), encoding="utf-8") as fh:
        oracle = from_spec_dict(json.load(fh))
    decisions, samplers = _decisions_and_samplers(oracle, horizon)
    assert (samplers is None) == (name == "n3")
    for decision in decisions:
        assert decision.verdict in ("pass", "holds_at_horizon", "fail")
    if samplers is not None:
        assert [d.passed for d in decisions] == [s.passed for s in samplers]


def test_decisions_and_samplers_fail_on_a_planted_non_cancellative_table():
    (laws, iso), samplers = _decisions_and_samplers(LEFT_ZEROS, 3)
    assert LEFT_ZEROS.cancellation_theorem is None
    assert laws.passed and samplers[0].passed
    assert not iso.passed and not samplers[1].passed
    assert iso.witnesses == [{"m": "a", "a": "a", "b": "ε", "product": "a", "side": "left"}]


@pytest.mark.parametrize("name,oracle", FIXTURES)
def test_isometric_iff_left_cancellative(name, oracle):
    """Verdict co-occurrence: the translation action is isometric exactly
    when no left-cancellation failure exists at the same horizon."""
    gamma = GammaOracle(oracle, 10)
    action = translation_action(gamma)
    ms = oracle.elements_up_to(3)
    points = [Vertex(m) for m in oracle.elements_up_to(3)]
    iso = sampled_isometric_embedding(action, ms, points, 10)
    canc = check_cancellative(oracle, "left", 3)
    assert iso.passed == canc.passed, (name, iso.witnesses[:1], canc.witnesses)
    assert check_isometric_embedding_action(oracle, ms, 3, 3, 10).passed == canc.passed


def test_zero_monoid_isometry_witness_rechecks():
    z = zero_monoid()
    gamma = GammaOracle(z, 6)
    action = translation_action(gamma)
    iso = sampled_isometric_embedding(action, z.elements_up_to(2), [Vertex(m) for m in z.elements_up_to(2)], 6)
    assert not iso.passed
    w = iso.witnesses[0]
    m = z.parse_word(w["m"])
    # re-evaluate both sides of the recorded witness
    p = Vertex(z.parse_word(w["p"][2:]))
    q = Vertex(z.parse_word(w["q"][2:]))
    d0 = gamma.known_distance(p, q)
    d1 = gamma.known_distance(apply_translation(z, m, p), apply_translation(z, m, q))
    assert d0 != d1


def test_cobounded_strong_ball_covers():
    gamma = GammaOracle(F1, 8)
    B = gamma.strong_ball_cellset((), Fraction(1))
    report = check_cobounded(Translates(F1, B), gamma, Fraction(1), [()], 8)
    assert report.passed and report.witnesses == []


def test_cobounded_fails_for_vertex_only():
    from monoidgeo import CellSet

    gamma = GammaOracle(F1, 8)
    report = check_cobounded(Translates(F1, CellSet([()])), gamma, Fraction(1), [()], 8)
    assert not report.passed
    assert report.witnesses == ["e:ε:a:1/2"]


def test_contact_set_f1():
    gamma = GammaOracle(F1, 8)
    B = gamma.strong_ball_cellset((), Fraction(1))
    S, seps = compute_contact_set(Translates(F1, B), gamma, Fraction(1))
    assert S == [(), ("a",)]
    # the ball of radius ceil(3R) - 1 = 2, whatever the horizon
    assert seps == {(): ExtNonNeg.of(0), ("a",): ExtNonNeg.of(0), ("a", "a"): ExtNonNeg.of(1)}
    assert gamma.set_distance(B, B.translate(F1, ("a",) * 3)).value == ExtNonNeg.of(2)


def test_contact_set_z3():
    gamma = GammaOracle(Z3, 8)
    B = gamma.strong_ball_cellset((), Fraction(1))
    S, seps = compute_contact_set(Translates(Z3, B), gamma, Fraction(1))
    assert S == [(), ("g",)]
    assert seps[("g", "g")] == ExtNonNeg.of(1)


def test_contact_set_trivial():
    t = TableMonoid(["e"], [[0]], identity="e", generators=[], name="trivial")
    gamma = GammaOracle(t, 4)
    B = gamma.strong_ball_cellset((), Fraction(1))
    # the contact set is exact over the ball it reads
    assert compute_contact_set(Translates(t, B), gamma, Fraction(1)) == ([()], {(): ExtNonNeg.of(0)})


def test_contact_set_contains_identity_always():
    for name, oracle in FIXTURES:
        gamma = GammaOracle(oracle, 6)
        B = gamma.strong_ball_cellset((), Fraction(1), 6)
        S, _ = compute_contact_set(Translates(oracle, B), gamma, Fraction(1))
        assert () in S, name


@pytest.mark.parametrize("name,oracle", [f for f in FIXTURES if f[0] in ("F1", "F2", "Z3", "F1*Z2")])
def test_idealistic_translation_actions(name, oracle):
    gamma = GammaOracle(oracle, 8)
    action = translation_action(gamma)
    assert sampled_idealistic(action, Vertex(()), 4, 8).passed
    assert check_idealistic(oracle, 8).verdict == "pass"


class FreeGroupSpace(PairwiseSpace):
    """The free group on {a, b} under its (symmetric) word metric; elements
    are reduced words over a, A, b, B.  Test-local fixture."""

    name = "freegroup2"

    def _reduce(self, w):
        out = []
        inv = {"a": "A", "A": "a", "b": "B", "B": "b"}
        for c in w:
            if out and out[-1] == inv[c]:
                out.pop()
            else:
                out.append(c)
        return tuple(out)

    def distance(self, p, q, horizon=None):
        inv = {"a": "A", "A": "a", "b": "B", "B": "b"}
        p_inv = tuple(inv[c] for c in reversed(p))
        return TruncatedDistance.known(ExtNonNeg.of(len(self._reduce(p_inv + q))))


def test_idealistic_fails_for_free_monoid_in_free_group():
    """F2 translating the free group: d(a x0, b x0) = 2 is finite but no
    u in F2 has a u = b."""
    space = FreeGroupSpace()
    action = ActionOracle(
        monoid=F2,
        space=space,
        apply=lambda m, p: space._reduce(tuple(m) + tuple(p)),
    )
    report = sampled_idealistic(action, (), 4, 4)
    assert not report.passed
    assert any(w["m"] == "a" and w["n"] == "b" for w in report.witnesses)


def test_property_report_json_encodes_exact_values():
    # The QI report carries lambda, the basepoint displacement of a contact element.
    out = run_pipeline(SmInput(F1, GammaOracle(F1, 8), Fraction(1), 8))
    doc = out["qi"].to_json()
    assert doc["artifacts"]["lambda"] == {"kind": "exact", "num": 1, "den": 1}
    assert doc["artifacts"]["l"] == [1, 4]
