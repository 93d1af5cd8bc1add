"""Acceptance gate: eight end-to-end criteria, all at exact rational arithmetic.

Each test prints a single PASS/FAIL line (visible with pytest -s or in the
captured output of a failing run) and asserts the criterion.
"""

import io
import os
from contextlib import redirect_stdout
from fractions import Fraction

from monoidgeo import (
    INF,
    CellSet,
    EdgePoint,
    ExtNonNeg,
    FreeMonoid,
    FreeProductMonoid,
    GammaOracle,
    SmInput,
    Vertex,
    WordMetricSpace,
    check_axioms,
    check_cancellative,
    check_finite_geometric_type,
    check_inclusion_qi,
    check_quasi_metric,
    format_word,
    run_free_product,
    run_pipeline,
)
from monoidgeo.cli import main as cli_main
from builders import (
    bicyclic_monoid,
    cyclic_group,
    q_translates,
    sampled_isometric_embedding,
    translation_action,
    zero_monoid,
)

ZERO = ExtNonNeg.finite(0)


def fixtures():
    return [
        ("F1", FreeMonoid(1, ["a"])),
        ("F2", FreeMonoid(2, ["a", "b"])),
        ("Z/3", cyclic_group(3)),
        ("F1*Z2", FreeProductMonoid(1, cyclic_group(2))),
        ("bicyclic", bicyclic_monoid()),
    ]


def announce(criterion: str, ok: bool, detail: str = ""):
    tail = f" ({detail})" if detail else ""
    print(f"{'PASS' if ok else 'FAIL'} {criterion}{tail}")
    assert ok, f"{criterion}{tail}"


# -- criterion 1: semimetric axioms ----------------------------------------


def test_criterion_1_semimetric_axioms():
    ok = True
    detail = []
    for name, oracle in fixtures():
        gamma = GammaOracle(oracle, 8)
        vertices = oracle.elements_up_to(4)
        word_report = check_axioms(WordMetricSpace(oracle, 8), vertices)
        points = [Vertex(m) for m in vertices]
        for m in oracle.elements_up_to(3):
            for s in oracle.generators:
                points.append(EdgePoint(m, s, Fraction(1, 2)))
        gamma_report = check_axioms(gamma, points)
        bad = len(word_report.violations) + len(gamma_report.violations)
        if bad:
            ok = False
            detail.append(f"{name}: {bad} violations")
    announce("criterion 1: axioms on horizon-4 balls, word metric and Gamma", ok, "; ".join(detail))


# -- criterion 2: vertex inclusion M -> Gamma is a QI ----------------------


def test_criterion_2_inclusion_qi():
    ok = True
    detail = []
    for name, oracle in fixtures():
        report = check_inclusion_qi(GammaOracle(oracle, 8), 8)
        if report.violations:
            ok = False
            detail.append(f"{name}: {len(report.violations)} mismatches")
    announce("criterion 2: vertex distances in Gamma equal d_S on all fixtures", ok, "; ".join(detail))


# -- criterion 3: left cancellativity <=> isometric translation ------------


def _isometric_verdict(oracle, horizon):
    gamma = GammaOracle(oracle, horizon)
    action = translation_action(gamma)
    depth = 2
    ms = oracle.elements_up_to(depth)
    points = [Vertex(m) for m in oracle.elements_up_to(depth)]
    return sampled_isometric_embedding(action, ms, points, horizon)


def _parse_point(oracle, text):
    """A Cayley point from its printed form, v:<word> or e:<word>:<gen>:<num>/<den>."""
    if text.startswith("e:"):
        _, word, gen, frac = text.split(":")
        return EdgePoint(oracle.parse_word(word), gen, Fraction(frac))
    return Vertex(oracle.parse_word(text[2:]))


def test_criterion_3_cancellative_iff_isometric():
    ok = True
    detail = []
    cases = fixtures() + [("zero", zero_monoid())]
    for name, oracle in cases:
        oracle.cancellation_theorem = None  # the ball search, not the theorem
        canc = check_cancellative(oracle, "left", 6)
        iso = _isometric_verdict(oracle, 6)
        if canc.passed != iso.passed:
            ok = False
            detail.append(f"{name}: cancellative={canc.verdict} isometric={iso.verdict}")
    # zero monoid fails both, with witnesses that re-check
    z = zero_monoid()
    canc = check_cancellative(z, "left", 6)
    if canc.passed or not canc.witnesses:
        ok = False
        detail.append("zero monoid should fail left cancellativity with a witness")
    else:
        w = canc.witnesses[0]
        m, a, b = (z.parse_word(w[k]) for k in ("m", "a", "b"))
        if a == b or z.multiply(m, a) != z.multiply(m, b):
            ok = False
            detail.append("zero-monoid cancellation witness does not re-check")
    iso = _isometric_verdict(z, 6)
    if iso.passed or not iso.witnesses:
        ok = False
        detail.append("zero monoid should fail the isometric check with a witness")
    else:
        w = iso.witnesses[0]
        gamma = GammaOracle(z, 6)
        m = z.parse_word(w["m"])
        p = _parse_point(z, w["p"])
        q = _parse_point(z, w["q"])
        mp = translation_action(gamma).apply(m, p)
        mq = translation_action(gamma).apply(m, q)
        if gamma.known_distance(p, q) == gamma.known_distance(mp, mq):
            ok = False
            detail.append("zero-monoid isometry witness does not re-check")
    f2 = FreeMonoid(2, ["a", "b"])
    f2.cancellation_theorem = None
    f2_canc = check_cancellative(f2, "left", 6)
    f2_iso = _isometric_verdict(f2, 6)
    if not (f2_canc.passed and f2_iso.passed):
        ok = False
        detail.append("F2 should pass both checks")
    announce("criterion 3: left cancellativity matches isometric translation", ok, "; ".join(detail))


# -- criterion 4: generating-set extraction with verified constants --------
#
# Independent oracle for F1: Gamma_{a}(F1) is the directed ray [0, oo) with
# d(s, t) = t - s when t >= s and infinity otherwise.  Cell sets become
# closed intervals, so set distances reduce to interval arithmetic that
# never touches the BFS machinery under test.


def _ray_intervals(cs: CellSet):
    iv = []
    for v in cs.vertices:
        k = Fraction(len(v))
        iv.append((k, k))
    for seg in cs.segments:
        base = Fraction(len(seg.element))
        iv.append((base + seg.lo, base + seg.hi))
    return iv


def _ray_set_distance(A, B):
    best = None
    for alo, ahi in A:
        for blo, bhi in B:
            if bhi < alo:
                continue  # every point of the B-interval lies strictly behind A
            gap = max(blo - ahi, Fraction(0))
            if best is None or gap < best:
                best = gap
    return INF if best is None else ExtNonNeg.of(best)


def _f1_brute_force_constants(horizon=8, R=Fraction(1)):
    f1 = FreeMonoid(1, ["a"])
    gamma = GammaOracle(f1, horizon)
    B = _ray_intervals(gamma.strong_ball_cellset((), R))
    contact, separations, q = [], {}, {}
    for k in range(horizon + 1):
        m = ("a",) * k
        translate = [(lo + k, hi + k) for lo, hi in B]
        d = _ray_set_distance(B, translate)
        if d == ZERO:
            contact.append(m)
        else:
            separations[m] = d
            touches_c = any(lo <= 5 * R for lo, hi in translate)
            if touches_c and not d.is_infinite:
                q[m] = d
    min_sep = min(v for v in q.values())
    r = min(Fraction(R), min_sep.frac) / 2
    return {
        "S": contact,
        "separations": separations,
        "Q": q,
        "r": r,
        "l": r / 2,
        "lam": max(
            _ray_set_distance([(Fraction(0), Fraction(0))], [(Fraction(len(s)), Fraction(len(s)))])
            for s in contact
        ),
    }


def test_criterion_4_extraction_with_independent_oracle():
    ok = True
    detail = []
    f1 = FreeMonoid(1, ["a"])
    out = run_pipeline(SmInput(f1, GammaOracle(f1, 8), Fraction(1), 8))
    rep = out["report"]
    oracle_vals = _f1_brute_force_constants()
    if sorted(rep.generators) != sorted(oracle_vals["S"]):
        ok = False
        detail.append(f"S={rep.generators} expected {oracle_vals['S']}")
    if rep.generators != [(), ("a",)] or rep.r != Fraction(1, 2) or rep.l != Fraction(1, 4):
        ok = False
        detail.append(f"constants r={rep.r} l={rep.l}")
    if rep.lam != ExtNonNeg.finite(1) or rep.lam != oracle_vals["lam"]:
        ok = False
        detail.append(f"lambda={rep.lam}")
    # Q lists the translates of the ball of radius ceil(3R) - 1 = 2; the
    # interval oracle's entries past it are no closer than R.
    if dict(q_translates(rep)) != {m: d for m, d in oracle_vals["Q"].items() if len(m) <= 2}:
        ok = False
        detail.append("Q translates disagree with the interval oracle")
    if not all(d >= ExtNonNeg.of(1) for m, d in oracle_vals["Q"].items() if len(m) > 2):
        ok = False
        detail.append("an interval-oracle Q entry past the ball is closer than R")
    for m, sep in rep.separations.items():
        expected = ZERO if m in oracle_vals["S"] else oracle_vals["separations"].get(m)
        if expected != sep:
            ok = False
            detail.append(f"separation of {format_word(m)} disagrees")
    if not (rep.claim1.passed and rep.claim2.passed):
        ok = False
        detail.append("claims failed")
    if not (out["generation"].passed and out["qi"].passed):
        ok = False
        detail.append("generation or QI verification failed")
    for name, oracle in (("Z/3", cyclic_group(3)), ("F2", FreeMonoid(2, ["a", "b"]))):
        res = run_pipeline(SmInput(oracle, GammaOracle(oracle, 8), Fraction(1), 8))
        if not res["passed"]:
            ok = False
            detail.append(f"{name} pipeline failed")
    announce("criterion 4: extraction constants verified against interval oracle", ok, "; ".join(detail))


# -- criterion 5: free-by-free-product bases -------------------------------


def _basis_factorizations_unique(n: FreeProductMonoid, basis, max_len: int) -> bool:
    seen = {}
    sink = [True]

    def rec(word, img):
        if len(img) > max_len:
            return
        if img in seen and seen[img] != word:
            sink[0] = False
            return
        seen[img] = word
        for i, b in enumerate(basis):
            rec(word + (i,), n.multiply(img, b))

    rec((), ())
    return sink[0]


def test_criterion_5_free_product_bases():
    ok = True
    detail = []
    for rank, expected_size in ((1, 2), (2, 4)):
        out = run_free_product(FreeProductMonoid(rank, cyclic_group(2)), 6)
        a = out.artifacts
        if not out.passed:
            ok = False
            detail.append(f"rank {rank}: verdict {out.verdict}")
        if a["basis_size"] != expected_size:
            ok = False
            detail.append(f"rank {rank}: basis size {a['basis_size']} != {expected_size}")
        if Fraction(*a["realized_lambda"]) > 2 or Fraction(*a["realized_eps"]) != 0 or Fraction(*a["realized_mu"]) != 1:
            ok = False
            detail.append(f"rank {rank}: constants {a['realized_lambda']}/{a['realized_eps']}/{a['realized_mu']}")
        n = FreeProductMonoid(rank, cyclic_group(2))
        basis = [n.parse_word(b) for b in a["basis"]]
        if not _basis_factorizations_unique(n, basis, 6):
            ok = False
            detail.append(f"rank {rank}: basis factorization not unique up to length 6")
    announce("criterion 5: free-product bases of sizes 2 and 4 with lam<=2, eps=0, mu=1", ok, "; ".join(detail))


# -- criterion 6: quasi-metric verdicts ------------------------------------


def test_criterion_6_quasi_metric():
    ok = True
    detail = []
    z3 = cyclic_group(3)
    rep = check_quasi_metric(WordMetricSpace(z3, 8), z3.elements_up_to(4), Fraction(2), Fraction(0))
    if rep.violations:
        ok = False
        detail.append("Z/3 should satisfy (2, 0)")
    f1 = FreeMonoid(1, ["a"])
    space = WordMetricSpace(f1, 8)
    rep = check_quasi_metric(space, f1.elements_up_to(4), Fraction(4), Fraction(4))
    if not rep.violations:
        ok = False
        detail.append("F1 should violate (4, 4)")
    else:
        hit = [v for v in rep.violations if v.points == ("a", "ε")]
        if not hit or not hit[0].lhs.is_infinite:
            ok = False
            detail.append("missing the d(a, ε) = oo witness")
        for v in rep.violations:
            x, y = (f1.parse_word(p) for p in v.points)
            lhs = space.known_distance(x, y)
            dyx = space.known_distance(y, x)
            rhs = INF if dyx.is_infinite else dyx.scale(Fraction(4)) + ExtNonNeg.finite(4)
            if lhs != v.lhs or rhs != v.rhs or not lhs > rhs:
                ok = False
                detail.append(f"witness {v.points} does not re-validate")
    announce("criterion 6: quasi-metric passes on Z/3, fails on F1 with d(a, ε)=oo", ok, "; ".join(detail))


# -- criterion 7: finite geometric type ------------------------------------


def test_criterion_7_finite_geometric_type():
    ok = True
    detail = []
    z = zero_monoid()
    verdict = check_finite_geometric_type(z, 6, 5)
    if verdict.passed or not verdict.witnesses:
        ok = False
        detail.append("zero monoid should fail at threshold 5")
    else:
        w = verdict.witnesses[0]
        b, c = z.parse_word(w["b"]), z.parse_word(w["c"])
        sols = [z.parse_word(s) for s in w["solutions"]]
        if c != ("z",) or len(sols) < 5 or any(z.multiply(a, b) != c for a in sols):
            ok = False
            detail.append("a^k * z = z witness family does not re-check")
    for name, oracle in (("F2", FreeMonoid(2, ["a", "b"])), ("bicyclic", bicyclic_monoid())):
        verdict = check_finite_geometric_type(oracle, 6, 5)
        if not verdict.passed:
            ok = False
            detail.append(f"{name} should hold at horizon 6")
    announce("criterion 7: zero monoid fails finite geometric type; F2 and bicyclic hold", ok, "; ".join(detail))


# -- criterion 8: deterministic CLI reports --------------------------------


def _cli_capture(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = cli_main(list(argv))
    return code, buf.getvalue().encode()


def test_criterion_8_cli_reports_deterministic():
    fixtures_dir = os.path.join(os.path.dirname(__file__), "fixtures")
    paths = {
        name: os.path.join(fixtures_dir, filename)
        for name, filename in (("free1", "free1.json"), ("z3", "z3.json"), ("fp", "fp_r1_z2.json"))
    }
    runs = [
        ["--monoid", paths["free1"], "dist", "ε", "aaa"],
        ["--monoid", paths["free1"], "ball", "ε", "2", "strong"],
        ["--monoid", paths["z3"], "check", "axioms"],
        ["--monoid", paths["free1"], "check", "quasimetric", "--lambda", "4", "--mu", "4"],
        ["--monoid", paths["free1"], "svarc-milnor", "-R", "1"],
        ["--monoid", paths["fp"], "--horizon", "5", "submonoid"],
        ["--monoid", paths["fp"], "--horizon", "5", "free-product"],
    ]
    ok = True
    detail = []
    for argv in runs:
        code1, out1 = _cli_capture(argv)
        code2, out2 = _cli_capture(argv)
        if not out1 or out1 != out2 or code1 != code2:
            ok = False
            detail.append(" ".join(argv[2:]))
    announce("criterion 8: repeated CLI runs emit byte-identical reports", ok, "; ".join(detail))
