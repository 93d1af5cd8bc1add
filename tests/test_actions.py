"""Translation actions and the action-property checkers."""

from fractions import Fraction

import pytest

from monoidgeo import (
    ActionOracle,
    EdgePoint,
    ExtNonNeg,
    FreeMonoid,
    FreeProductMonoid,
    GammaOracle,
    INF,
    SemimetricSpace,
    TableMonoid,
    TruncatedDistance,
    Vertex,
    apply_translation,
    bicyclic_monoid,
    check_action_laws,
    check_cancellative,
    check_cobounded,
    check_idealistic,
    check_isometric_embedding_action,
    compute_contact_set,
    translation_action,
    zero_monoid,
)
from builders import cyclic_group

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
    assert check_action_laws(action, ms, points).passed


@pytest.mark.parametrize("name,oracle", FIXTURES)
def test_isometric_iff_left_cancellative(name, oracle):
    """Verdict co-occurrence: the translation action is isometric exactly
    when no left-cancellation failure exists at the same horizon."""
    gamma = GammaOracle(oracle, 10)
    action = translation_action(gamma)
    ms = oracle.elements_up_to(3)
    points = [Vertex(m) for m in oracle.elements_up_to(3)]
    iso = check_isometric_embedding_action(action, ms, points, 10)
    canc = check_cancellative(oracle, "left", 3)
    assert iso.passed == canc.holds, (name, iso.witnesses[:1], canc.witness)


def test_zero_monoid_isometry_witness_rechecks():
    z = zero_monoid()
    gamma = GammaOracle(z, 6)
    action = translation_action(gamma)
    iso = check_isometric_embedding_action(
        action, z.elements_up_to(2), [Vertex(m) for m in z.elements_up_to(2)], 6
    )
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
    action = translation_action(gamma)
    B = gamma.strong_ball_cellset((), Fraction(1))
    sample = gamma.out_ball_cellset((), Fraction(3)).sample_points()
    assert check_cobounded(action, B, sample, 8).passed


def test_cobounded_fails_for_vertex_only():
    from monoidgeo import CellSet

    gamma = GammaOracle(F1, 8)
    action = translation_action(gamma)
    B = CellSet([()])
    report = check_cobounded(action, B, [EdgePoint((), "a", Fraction(1, 2))], 8)
    assert not report.passed
    assert report.witnesses == ["e:ε:a:1/2"]


def test_contact_set_f1():
    gamma = GammaOracle(F1, 8)
    action = translation_action(gamma)
    B = gamma.strong_ball_cellset((), Fraction(1))
    report = compute_contact_set(action, B, 8)
    assert report.artifacts["contact_set"] == ["ε", "a"]
    seps = report.artifacts["separations"]
    assert seps[("a", "a")] == ExtNonNeg.of(1)
    assert seps[("a",) * 3] == ExtNonNeg.of(2)
    assert report.artifacts["min_positive_separation"] == ExtNonNeg.of(1)


def test_contact_set_z3():
    gamma = GammaOracle(Z3, 8)
    action = translation_action(gamma)
    B = gamma.strong_ball_cellset((), Fraction(1))
    report = compute_contact_set(action, B, 8)
    assert report.artifacts["contact_set"] == ["ε", "g"]
    assert report.artifacts["separations"][("g", "g")] == ExtNonNeg.of(1)


def test_contact_set_trivial():
    t = TableMonoid(["e"], [[0]], identity="e", generators=[], name="trivial")
    gamma = GammaOracle(t, 4)
    action = translation_action(gamma)
    B = gamma.strong_ball_cellset((), Fraction(1))
    report = compute_contact_set(action, B, 4)
    assert report.artifacts["contact_set"] == ["ε"]
    # the contact set is exact over the horizon ball it is asked about
    assert report.verdict == "holds_at_horizon"


def test_contact_set_contains_identity_always():
    for name, oracle in FIXTURES:
        gamma = GammaOracle(oracle, 6)
        action = translation_action(gamma)
        B = gamma.strong_ball_cellset((), Fraction(1), 6)
        report = compute_contact_set(action, B, 4)
        assert "ε" in report.artifacts["contact_set"], name


@pytest.mark.parametrize("name,oracle", [f for f in FIXTURES if f[0] in ("F1", "F2", "Z3", "F1*Z2")])
def test_idealistic_translation_actions(name, oracle):
    gamma = GammaOracle(oracle, 8)
    action = translation_action(gamma)
    assert check_idealistic(action, Vertex(()), 4, 8).passed


class FreeGroupSpace(SemimetricSpace):
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
    report = check_idealistic(action, (), 4, 4)
    assert not report.passed
    assert any(w["m"] == "a" and w["n"] == "b" for w in report.witnesses)


def test_property_report_json_encodes_exact_values():
    gamma = GammaOracle(F1, 8)
    action = translation_action(gamma)
    B = gamma.strong_ball_cellset((), Fraction(1))
    doc = compute_contact_set(action, B, 8).to_json()
    assert doc["artifacts"]["min_positive_separation"] == {"kind": "exact", "num": 1, "den": 1}
