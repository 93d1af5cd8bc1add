"""Generating-set extraction and its verifiers on the stock fixtures."""

import io
import json
import os
import sys
from contextlib import redirect_stdout
from fractions import Fraction

import pytest

from monoidgeo import (
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
    check_cancellative,
    check_isometric_embedding_action,
    extract_generators,
    format_word,
    run_free_product,
    run_pipeline,
    run_submonoid_theorem,
)
from monoidgeo import actions
from monoidgeo.cli import main
from builders import (
    ActionOracle,
    apply_translation,
    claim_loops,
    cyclic_group,
    q_translates,
    sample_points,
    sampled_idealistic,
    sampled_isometric_embedding,
    zero_monoid,
)
from test_distance_field import ORACLES

F1 = FreeMonoid(1, ["a"])


def make_input(oracle, radius=1, horizon=8):
    return SmInput(oracle, GammaOracle(oracle, horizon), Fraction(radius), horizon)


def _translation(inp):
    """The acting monoid of `inp` translating its graph on the left, as an action."""
    return ActionOracle(inp.monoid, inp.gamma, lambda u, pt: apply_translation(inp.gamma.monoid, u, pt))


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
    # translates separated from B in the ball of radius ceil(3R) - 1 = 2
    assert {format_word(m): sep for m, sep in q_translates(r)} == {"aa": ExtNonNeg.of(1)}
    assert r.to_json()["C"] == {"kind": "out_ball", "radius": [5, 1]}
    assert "radius ceil(3R) - 1 = 2 has separation >= R" in r.to_json()["Q"]["basis"]
    # The rest of the radius-5 out-ball's separated translates, which Q
    # listed before, are as far as ever and no closer than R.
    gamma, B = GammaOracle(F1, 8), r.ball
    assert [gamma.set_distance(B, B.translate(F1, ("a",) * k)).value for k in range(3, 6)] == [
        ExtNonNeg.of(2), ExtNonNeg.of(3), ExtNonNeg.of(4)
    ]


def test_f1_claims(f1_result):
    r = f1_result["report"]
    for claim in (r.claim1, r.claim2):
        assert claim.verdict == "pass" and claim.witnesses == []
        assert claim.artifacts["basis"].startswith("theorem: ")
    # The loops the claims replaced find nothing, on the horizon ball too.
    inp = make_input(F1)
    horizon_ball = {m: GammaOracle(F1, 8).set_distance(r.ball, r.ball.translate(F1, m)).value
                    for m in F1.elements_up_to(8)}
    c1, c2, steps = claim_loops(r, inp, horizon_ball)
    assert (c1, c2) == ([], []) and steps > 0


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
    prod = ()
    for u in facts["aaa"]["letters"]:
        prod = F1.multiply(prod, F1.parse_word(u))
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
    assert {format_word(m): sep for m, sep in q_translates(r)} == {"gg": ExtNonNeg.of(1)}
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


HYPOTHESIS_SPANS = ("check_isometric_embedding_action", "check_idealistic")


@pytest.mark.parametrize("argv", [["z3.json", "svarc-milnor", "-R", "1"], ["fp_r1_z2.json", "submonoid"]])
def test_pipelines_decide_their_hypotheses_in_actions(argv, monkeypatch):
    # The benchmark's actions.* spans count calls through every binding of
    # these names, as its tracer rebinds them; each pipeline makes one call.
    calls = dict.fromkeys(HYPOTHESIS_SPANS, 0)
    for name in HYPOTHESIS_SPANS:
        original = getattr(actions, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        for mod in [m for key, m in sys.modules.items() if key == "monoidgeo" or key.startswith("monoidgeo.")]:
            if vars(mod).get(name) is original:
                monkeypatch.setattr(mod, name, counted)
    fixture = os.path.join(os.path.dirname(__file__), "fixtures", argv[0])
    with redirect_stdout(io.StringIO()):
        assert main(["--monoid", fixture] + argv[1:]) == 0
    assert calls == dict.fromkeys(HYPOTHESIS_SPANS, 1)


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
        m = SubmonoidOracle(n)
        return n, SmInput(m, gamma, Fraction(2), 4)
    build, horizon, _, _ = ORACLES[name]
    oracle = build()
    return oracle, make_input(oracle, horizon=horizon)


@pytest.mark.parametrize("name", sorted(ORACLES) + ["ends_in_e<F1*Z2"])
def test_cancellation_decides_isometric_embedding_as_the_sampler_does(name):
    # The sampler's multipliers (depth <= 3) and points (B and the depth-3
    # out-ball), as the pipeline drew them before it stopped sampling.
    n, inp = _hypothesis_case(name)
    gamma, action = inp.gamma, _translation(inp)
    ms = inp.monoid.elements_up_to(min(inp.horizon, 3))
    try:
        B = gamma.strong_ball_cellset((), inp.radius, inp.far)
    except HorizonTooSmall:
        B = None  # the pipeline stops here, before any hypothesis
    canc = check_cancellative(n, "left", inp.horizon, ms)
    assert check_isometric_embedding_action(n, ms, min(inp.horizon, 3), inp.horizon, inp.horizon).passed == canc.passed
    if B is not None:
        out_ball = gamma.out_ball_cellset((), Fraction(min(inp.horizon, 3)), inp.far)
        points = list(dict.fromkeys(sample_points(B) + sample_points(out_ball)))
        if name in SAMPLER_UNDECIDED:
            with pytest.raises(HorizonTooSmall):
                sampled_isometric_embedding(action, ms, points, inp.horizon)
        else:
            iso = sampled_isometric_embedding(action, ms, points, inp.horizon)
            assert canc.passed == iso.passed
    if not canc.passed:
        [w] = canc.witnesses
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
        "F1*Z2 no fast path", "S5", "Z5", "fp_r1_z2", "fp_r2_z2", "free1", "free2", "s3", "z3",
        "ends_in_e<F1*Z2",
    ]


@pytest.mark.parametrize("name", THEOREM_CASES)
def test_cancellation_theorem_agrees_with_the_far_ball_check(name):
    # What the pipeline would check if the class named no theorem.
    n, inp = _hypothesis_case(name)
    iso = extract_generators(inp).hypotheses["isometric_embedding"]
    assert iso.verdict == "pass"
    assert iso.artifacts["basis"] == f"theorem: {n.cancellation_theorem}"
    n.cancellation_theorem = None  # the ball search, not the theorem
    canc = check_cancellative(n, "left", inp.far, inp.monoid.elements_up_to(inp.horizon))
    assert canc.verdict == "holds_at_horizon"


@pytest.mark.parametrize("name", ["absorbing table", "bicyclic", "zero"])
def test_non_cancellative_oracles_fail_the_far_ball_check(name):
    # The witness m*a = m*b is the one the depth-3 multipliers find on the
    # horizon ball: the first bad multiplier fails at once on the far ball.
    n, inp = _hypothesis_case(name)
    assert n.cancellation_theorem is None
    [w] = check_cancellative(n, "left", inp.horizon, inp.monoid.elements_up_to(min(inp.horizon, 3))).witnesses
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
        ide = sampled_idealistic(_translation(inp), Vertex(()), 4, inp.far)
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
