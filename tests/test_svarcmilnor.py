"""Generating-set extraction and its verifiers on the stock fixtures."""

import io
import json
from contextlib import redirect_stdout
from fractions import Fraction

import pytest

from monoidgeo import (
    ActionOracle,
    ExtNonNeg,
    FreeMonoid,
    FreeProductMonoid,
    GammaOracle,
    HorizonTooSmall,
    HypothesisFailed,
    SmInput,
    SubmonoidOracle,
    TableMonoid,
    Vertex,
    apply_translation,
    check_cancellative,
    check_idealistic,
    check_isometric_embedding_action,
    ends_in_group_identity_submonoid,
    extract_generators,
    factor_over_generators,
    format_word,
    run_free_product,
    run_pipeline,
    run_submonoid_theorem,
    translation_action,
    verify_generation_bound,
    verify_qi_bounds,
    zero_monoid,
)
from monoidgeo.cli import main
from monoidgeo.svarcmilnor import _cobounded_sample
from builders import cyclic_group
from test_distance_field import ORACLES

F1 = FreeMonoid(1, ["a"])


def make_input(oracle, radius=1, horizon=8):
    gamma = GammaOracle(oracle, horizon)
    return SmInput(
        action=translation_action(gamma),
        radius=Fraction(radius),
        horizon=horizon,
    )


@pytest.fixture(scope="module")
def f1_result():
    return run_pipeline(make_input(F1))


def test_f1_extraction_constants(f1_result):
    r = f1_result["report"]
    assert [format_word(s) for s in r.generators] == ["ε", "a"]
    assert r.r == Fraction(1, 2)
    assert r.l == Fraction(1, 4)
    assert r.lam == ExtNonNeg.of(1)


def test_f1_q_translates(f1_result):
    r = f1_result["report"]
    # translates separated from B but still touching the radius-5 out-ball
    got = {format_word(m): sep for m, sep in r.q_translates}
    assert got == {
        "aa": ExtNonNeg.of(1),
        "aaa": ExtNonNeg.of(2),
        "aaaa": ExtNonNeg.of(3),
        "aaaaa": ExtNonNeg.of(4),
    }
    assert r.outer_ball_radius == Fraction(5)


def test_f1_claims(f1_result):
    r = f1_result["report"]
    assert r.claim1.verdict == "pass"
    assert r.claim2.verdict == "pass"
    assert r.claim2.artifacts["pairs_checked"] > 0


def test_f1_generation_bound(f1_result):
    gen = f1_result["generation"]
    assert gen.verdict == "pass"
    facts = gen.artifacts["factorizations"]
    # a^3: distance 3, l = 1/4 -> k = 12 subdivision steps, 13 letters
    assert facts["aaa"]["length"] == 13
    assert facts["aaa"]["bound"] == [13, 1]
    # the factorization letters multiply back (spot check via the library)
    inp = make_input(F1)
    rep = f1_result["report"]
    letters = factor_over_generators(rep, inp, ("a", "a", "a"), {})
    prod = ()
    for u in letters:
        prod = F1.multiply(prod, u)
    assert prod == ("a", "a", "a")


def test_f1_qi_bounds(f1_result):
    qi = f1_result["qi"]
    assert qi.verdict == "pass"
    assert qi.artifacts["l"] == [1, 4]


def test_z3_pipeline():
    out = run_pipeline(make_input(cyclic_group(3)))
    r = out["report"]
    assert [format_word(s) for s in r.generators] == ["ε", "g"]
    assert r.r == Fraction(1, 2)
    assert r.lam == ExtNonNeg.of(1)
    # Q: the g2 translate at separation 1
    assert {format_word(m): sep for m, sep in r.q_translates} == {"gg": ExtNonNeg.of(1)}
    assert out["generation"].passed and out["qi"].passed


def test_f2_pipeline():
    out = run_pipeline(make_input(FreeMonoid(2, ["a", "b"])))
    r = out["report"]
    assert sorted(format_word(s) for s in r.generators) == ["a", "b", "ε"]
    assert r.r == Fraction(1, 2) and r.l == Fraction(1, 4)
    assert r.claim1.passed and r.claim2.passed
    assert out["generation"].passed and out["qi"].passed


def test_extraction_rejects_non_isometric_action():
    with pytest.raises(HypothesisFailed) as exc:
        extract_generators(make_input(zero_monoid(), horizon=5))
    assert exc.value.hypothesis == "isometric_embedding"


# The sampler cannot decide these: with no fast path an infinite distance is
# never certified, so it stops at the first unreachable pair.  For N^3 (n3)
# the strong ball itself is already uncertified, so no sample is drawn.
SAMPLER_UNDECIDED = {"F1*Z2 no fast path", "bicyclic no fast path", "zero no fast path", "n3"}


def _hypothesis_case(name):
    """(the acting monoid's oracle, SmInput) as the pipelines build them: the
    translation action at radius 1, or for the submonoid of F1*Z2 its action
    on the ambient graph at the submonoid pipeline's radius 2."""
    if name == "ends_in_e<F1*Z2":
        n = FreeProductMonoid(1, cyclic_group(2))
        gamma = GammaOracle(n, 8)
        m = SubmonoidOracle(n, ends_in_group_identity_submonoid(n))
        action = ActionOracle(m, gamma, lambda u, pt: apply_translation(n, u, pt))
        return n, SmInput(action=action, radius=Fraction(2), horizon=4)
    build, horizon, _, _ = ORACLES[name]
    oracle = build()
    return oracle, make_input(oracle, horizon=horizon)


@pytest.mark.parametrize("name", sorted(ORACLES) + ["ends_in_e<F1*Z2"])
def test_cancellation_decides_isometric_embedding_as_the_sampler_does(name):
    # The sampler's multipliers (depth <= 3) and points (B and the depth-3
    # out-ball), as the pipeline drew them before it stopped sampling.
    n, inp = _hypothesis_case(name)
    gamma = inp.action.space
    ms = inp.action.monoid.elements_up_to(min(inp.horizon, 3))
    try:
        B = gamma.strong_ball_cellset((), inp.radius, inp.far)
    except HorizonTooSmall:
        B = None  # the pipeline stops here, before any hypothesis
    canc = check_cancellative(n, "left", inp.horizon, ms)
    if B is not None:
        points = _cobounded_sample(inp, B)
        if name in SAMPLER_UNDECIDED:
            with pytest.raises(HorizonTooSmall):
                check_isometric_embedding_action(inp.action, ms, points, inp.horizon)
        else:
            iso = check_isometric_embedding_action(inp.action, ms, points, inp.horizon)
            assert canc.holds == iso.passed
    if not canc.holds:
        w = canc.witness
        m, a, b = (n.parse_word(w[k]) for k in ("m", "a", "b"))
        ma, mb = n.multiply(m, a), n.multiply(m, b)
        assert a != b and ma == mb and format_word(ma) == w["product"]
        assert gamma.distance(Vertex(ma), Vertex(mb)).value == ExtNonNeg.of(0)
        assert gamma.distance(Vertex(a), Vertex(b)).value > ExtNonNeg.of(0)


THEOREM_CASES = [
    name for name in sorted(ORACLES) + ["ends_in_e<F1*Z2"]
    if _hypothesis_case(name)[0].cancellation_theorem is not None
]


def test_theorem_classes_are_the_free_and_group_fixtures():
    assert THEOREM_CASES == [
        "F1*Z2 no fast path", "S5", "Z5", "fp_r1_z2", "fp_r2_z2", "free1", "free2", "z3",
        "ends_in_e<F1*Z2",
    ]


@pytest.mark.parametrize("name", THEOREM_CASES)
def test_cancellation_theorem_agrees_with_the_far_ball_check(name):
    # What the pipeline would check if the class named no theorem.
    n, inp = _hypothesis_case(name)
    assert check_cancellative(n, "left", inp.far, inp.action.monoid.elements_up_to(inp.horizon)).holds
    iso = extract_generators(inp).hypotheses["isometric_embedding"]
    assert iso.verdict == "pass"
    assert iso.artifacts["basis"] == f"theorem: {n.cancellation_theorem}"


@pytest.mark.parametrize("name", ["absorbing table", "bicyclic", "zero"])
def test_non_cancellative_oracles_fail_the_far_ball_check(name):
    # The witness m*a = m*b is the one the depth-3 multipliers find on the
    # horizon ball: the first bad multiplier fails at once on the far ball.
    n, inp = _hypothesis_case(name)
    assert n.cancellation_theorem is None
    w = check_cancellative(n, "left", inp.horizon, inp.action.monoid.elements_up_to(min(inp.horizon, 3))).witness
    with pytest.raises(HypothesisFailed) as exc:
        extract_generators(inp)
    assert exc.value.hypothesis == "isometric_embedding"
    assert f"{w['m']} is not left-cancellable: {w['m']}·{w['a']} = {w['m']}·{w['b']} = {w['product']}" in str(exc.value)


def test_cancellation_is_checked_on_the_far_ball_without_a_theorem():
    # Z3 given as a plain table names no theorem, so every multiplier of the
    # horizon ball is checked on the far ball (5R + 1 = 6 here).
    z3 = TableMonoid(["e", "g", "g2"], [[0, 1, 2], [1, 2, 0], [2, 0, 1]], generators=["g"])
    assert z3.cancellation_theorem is None
    iso = extract_generators(make_input(z3, horizon=4)).hypotheses["isometric_embedding"]
    assert iso.verdict == "holds_at_horizon" and iso.horizon == 4
    assert iso.artifacts["basis"] == "checked: every multiplier of depth <= 4 is injective on the ball of radius 6"


def _s5_cli(tmp_path, horizon):
    """The exit code and extraction of `svarc-milnor -R 1` on S5."""
    s5 = ORACLES["S5"][0]()
    spec = tmp_path / "s5.json"
    spec.write_text(json.dumps({
        "type": "finite_group", "elements": list(s5.element_names), "table": s5.table,
        "identity": "e", "generators": list(s5.generators),
    }), encoding="utf-8")
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(["--monoid", str(spec), "--horizon", str(horizon), "svarc-milnor", "-R", "1"])
    ext = json.loads(out.getvalue())["result"]["extraction"]
    return code, {k: ext[k] for k in ("S", "r", "l", "lambda")}


def test_s5_runs_below_its_diameter_with_the_same_constants(tmp_path):
    """S5 has directed diameter 11.  Below it the idealistic sampler leaves
    pairs undecided, but the pipeline no longer asks it: the condition holds
    by definition under left translation.  So every horizon exits 0 with the
    S, r, l and lambda of the diameter."""
    code, full = _s5_cli(tmp_path, 11)
    assert code == 0
    for horizon in (4, 6, 8, 10):
        inp = make_input(ORACLES["S5"][0](), horizon=horizon)
        ide = check_idealistic(inp.action, Vertex(()), 4, inp.far)
        assert ide.verdict == "unknown" and ide.artifacts["unresolved_pairs"] > 0
        assert _s5_cli(tmp_path, horizon) == (0, full)


def test_radius_must_be_positive_and_within_horizon():
    with pytest.raises(ValueError):
        make_input(F1, radius=0)
    with pytest.raises(ValueError):
        make_input(F1, radius=9, horizon=8)


# -- submonoid theorem ------------------------------------------------------


@pytest.fixture(scope="module")
def fp_sub_report():
    return run_submonoid_theorem(FreeProductMonoid(1, cyclic_group(2)), 6)


def test_submonoid_theorem_passes(fp_sub_report):
    assert fp_sub_report.verdict == "pass"


def test_submonoid_extracted_generators(fp_sub_report):
    a = fp_sub_report.artifacts
    assert a["S"] == ["ε", "f", "gf"]
    assert a["lambda"] == ExtNonNeg.of(2)
    # ball radius 2 = 1 + max displacement of the right units
    assert a["sm_report"].ball_radius == 2
    assert a["P"] == ["ε", "g"]


def test_submonoid_mp_factorizations_recheck(fp_sub_report):
    n = FreeProductMonoid(1, cyclic_group(2))
    for target, (m, p) in fp_sub_report.artifacts["MP_factorizations"].items():
        assert n.multiply(n.parse_word(m), n.parse_word(p)) == n.parse_word(target)


# -- free product corollary -------------------------------------------------


def test_free_product_r1():
    out = run_free_product(FreeProductMonoid(1, cyclic_group(2)), 6)
    assert out.verdict == "pass"
    a = out.artifacts
    assert a["basis"] == ["f", "gf"]
    assert a["basis_size"] == 2 == a["expected_basis_size"]
    assert a["realized_lambda"] == [2, 1]
    assert a["realized_eps"] == [0, 1]
    assert a["realized_mu"] == [1, 1]


def test_free_product_basis_letters_multiply_injectively():
    n = FreeProductMonoid(1, cyclic_group(2))
    basis = [("f",), ("g", "f")]
    seen = {}
    # all products of <= 3 basis letters are distinct in F*G
    def rec(word, img, depth):
        assert img not in seen or seen[img] == word
        seen[img] = word
        if depth == 3:
            return
        for i, b in enumerate(basis):
            rec(word + (i,), n.multiply(img, b), depth + 1)

    rec((), (), 0)
    assert len(seen) == 1 + 2 + 4 + 8


def test_free_product_oracle_keeps_no_table_beyond_its_interns():
    # The pipeline's products and quotients are read off the normal forms,
    # so no table on the oracle may outgrow the ball it interned plus the
    # two |G|² group tables.
    group = cyclic_group(2)
    n = FreeProductMonoid(2, group)
    out = run_free_product(n, 5)
    assert out.verdict == "pass"
    bound = len(n._interned) + len(group.element_names) ** 2
    sizes = {k: len(v) for k, v in vars(n).items() if isinstance(v, dict)}
    assert max(sizes.values()) <= bound, (sizes, bound)
