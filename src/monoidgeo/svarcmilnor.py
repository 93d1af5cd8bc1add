"""Constructive generating-set extraction with verified constants.

Given a monoid acting on its continuous Cayley graph (or a submonoid acting
on the ambient one), the pipeline computes the contact set S of a strong
ball B, the separation constants r and l, the Lipschitz constant of the
orbit map, then instance-verifies the generation bound with explicit
factorizations.  Each separation d(B, mB) is taken once, on the ball of
radius ceil(3R) - 1 whatever the horizon: d(B, mB) >= d(e, m) - 2R puts
every separation below R there, so S, Q and r are exact, and the two
covering claims follow from the choice of r.  Coboundedness is checked on
the orbit representatives: left translation does the rest.  The generation
certificates share one walk, in which a witness word extends the samples of
its prefix and each sample vertex is covered by construction.  The two
quasi-isometry inequalities are not checked pair by pair: one is a lemma,
the other is read off the generation certificates.  Everything is exact
rational arithmetic; verdicts are relative to the stated horizon.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional, Sequence

from .actions import (
    check_cobounded,
    check_idealistic,
    check_isometric_embedding_action,
    compute_contact_set,
)
from .cayley import CellSet, GammaOracle, Translates, Vertex, shortest_word, word_distance
from .errors import FactorizationFailed, HypothesisFailed
from .extnum import ZERO, ExtNonNeg, ext_max
from .monoids import (
    FreeProductMonoid,
    MonoidOracle,
    PropertyReport,
    SubmonoidOracle,
    Word,
    format_word,
)


class SmInput:
    """The acting monoid M, a submonoid of gamma's monoid N or that monoid
    itself, acting on gamma by left translation; the basepoint is the
    identity vertex.  `representatives` is a set T of units with N = M·T, {ε}
    by default.  A t ≠ ε must be a unit of a left-cancellative N (see _Walk),
    as P in the free product F*G is by the normal form theorem."""

    def __init__(
        self,
        monoid: MonoidOracle,
        gamma: GammaOracle,
        radius: Fraction,
        horizon: int,
        representatives: Optional[Sequence[Word]] = None,
    ):
        self.monoid = monoid
        self.gamma = gamma
        self.radius = Fraction(radius)
        self.horizon = horizon
        self.representatives = (monoid.identity,) if representatives is None else tuple(representatives)
        if self.radius <= 0:
            raise ValueError("ball radius must be positive")
        if self.radius > self.horizon:
            raise ValueError("require radius <= horizon")

    @property
    def far(self) -> int:
        """The horizon of B's search, the cobounded in-balls, lambda's
        distances, the witness words and, without a cancellation theorem, the
        injectivity ball (see extract_generators)."""
        return max(self.horizon, int(5 * self.radius) + 1)


class SmReport:
    def __init__(
        self,
        generators: list[Word],
        ball: CellSet,
        ball_radius: Fraction,
        r: Fraction,
        l: Fraction,
        lam: ExtNonNeg,
        separations: dict,  # d(B, mB) over the ball of radius ceil(3R) - 1, in BFS order
        claim1: PropertyReport,
        claim2: PropertyReport,
        hypotheses: dict,
    ):
        self.generators, self.ball = generators, ball
        self.ball_radius, self.r, self.l, self.lam = ball_radius, r, l, lam
        self.separations, self.claim1, self.claim2 = separations, claim1, claim2
        self.hypotheses = hypotheses

    def to_json(self) -> dict:
        C = 5 * self.ball_radius  # the radius of the reference out-ball C
        return {
            "S": [format_word(s) for s in self.generators],
            "B": self.ball.to_json(),
            "R": [self.ball_radius.numerator, self.ball_radius.denominator],
            "C": {
                "kind": "out_ball",
                "radius": [C.numerator, C.denominator],
            },
            "Q": {
                "translates": [{"m": format_word(m), "separation": sep.to_json()}
                               for m, sep in self.separations.items() if sep != ZERO],
                "basis": "theorem: d(B, mB) >= d(e, m) - 2R, so an m past the ball of radius ceil(3R) - 1"
                         f" = {math.ceil(3 * self.ball_radius) - 1} has separation >= R and cannot lower r;"
                         " each m of that ball is within 5R of e, so mB touches C",
            },
            "r": [self.r.numerator, self.r.denominator],
            "l": [self.l.numerator, self.l.denominator],
            "lambda": self.lam.to_json(),
            "claim1": self.claim1.to_json(),
            "claim2": self.claim2.to_json(),
            "hypotheses": {k: v.to_json() for k, v in self.hypotheses.items()},
        }


_CLAIM1_BASIS = ("theorem: 0 < d(B, mB) < r <= R/2 puts m within 2R + r < 3R of e, in the ball of radius"
                 " ceil(3R) - 1, so d(B, mB) is an entry of Q, and every entry of Q is at least 2r")
_CLAIM2_BASIS = ("theorem: d(mB, nB) < r makes n = m*q with d(B, qB) = d(mB, nB) and d(e, q) <= ceil(2R + r) - 1"
                 " <= ceil(3R) - 1; claim 1 makes d(B, qB) = 0, and then d(e, q) <= 2R puts q in S")


def extract_generators(inp: SmInput) -> SmReport:
    """The contact set S of the strong ball B, the constants r, l and lambda,
    the translates Q, and claims 1 and 2, after the hypothesis pre-checks.

    The acting monoid acts by left translation on Gamma, the continuous
    Cayley graph of gamma's monoid N (translates are CellSet.translate).
    Then x -> m*x is an isometric embedding of Gamma exactly when m is
    left-cancellable (see check_isometric_embedding_action).  Unless N's
    class names a cancellation theorem, each multiplier of the horizon ball
    must be injective on the far ball: a path shorter than r from B to a qB
    of claim 2 visits only vertices of depth <= ceil(2R + r) - 1 + floor(R)
    + 1 <= far.

    The idealistic condition holds by definition (see check_idealistic; M
    = ends_in_e is left unitary, see run_submonoid_theorem).  Coboundedness
    is checked exactly on the representatives T (see check_cobounded).

    Claims 1 and 2 are theorems, so no loop checks them.  Claim 1: no
    translate lies strictly between 0 and r from B.  A separation below
    r <= R/2 puts m within 2R + r < 3R of e, in the separations ball, where
    every nonzero separation is an entry of Q, at least 2r.  Claim 2:
    translates closer than r differ by a contact element.  As d(mB, nB) >=
    d(m x0, n x0) - 2R and finite word distances are integers, such an n is
    m*q with q in the ball of radius ceil(2R + r) - 1 <= ceil(3R) - 1; then
    d(B, qB) = d(mB, nB) < r by isometry, claim 1 makes it 0, and q is in S.
    """
    oracle = inp.monoid
    gamma = inp.gamma
    R = inp.radius
    horizon = inp.horizon
    far = inp.far
    e = oracle.identity
    x0 = Vertex(e)
    B = gamma.strong_ball_cellset(e, R, far)
    if not B.contains(x0):
        raise HypothesisFailed("ball", "B must contain its basepoint")
    translates = Translates(oracle, B)

    iso = check_isometric_embedding_action(gamma.monoid, oracle.elements_up_to(horizon), horizon, far, horizon)
    if not iso.passed:
        w = iso.witnesses[0]
        raise HypothesisFailed(
            "isometric_embedding",
            f"{w['m']} is not left-cancellable: {w['m']}·{w['a']} = {w['m']}·{w['b']} = {w['product']}",
        )
    hypotheses = {"isometric_embedding": iso}
    cob = check_cobounded(translates, gamma, R, inp.representatives, far)  # B's own search horizon
    cob.horizon = horizon
    T = ", ".join(map(format_word, inp.representatives))
    cob.artifacts["basis"] = f"checked: B's translates cover T = {{{T}}} and its out-edges, hence all of Γ"
    hypotheses["cobounded"] = cob
    if not cob.passed:
        raise HypothesisFailed("cobounded", f"uncovered: {cob.witnesses[:3]}")
    hypotheses["idealistic"] = check_idealistic(oracle, horizon)

    # Every m with d(B, mB) < R lies in the ball of radius ceil(3R) - 1 < 5R
    # that compute_contact_set reads, so mB touches the out-ball C at its own
    # vertex.  Q is that ball's separated translates; every other separation
    # is at least ceil(3R) - 2R >= R and cannot lower r.
    S, separations = compute_contact_set(translates, gamma, R)
    min_q = min((sep.finite_value() for sep in separations.values() if sep != ZERO), default=None)
    r = (R if min_q is None else min(R, min_q)) / 2
    l = r / 2

    lam = ext_max(gamma.distance(x0, Vertex(s), far).value for s in S)  # known: d(e, s) <= 2R < far
    if lam.is_infinite:
        raise HypothesisFailed("lambda", "basepoint displacement of a contact element is infinite")

    claim1 = PropertyReport("claim1_gap", "pass", horizon, [], artifacts={"basis": _CLAIM1_BASIS})
    claim2 = PropertyReport("claim2_quotient", "pass", horizon, [], artifacts={"basis": _CLAIM2_BASIS})

    return SmReport(
        generators=S,
        ball=B,
        ball_radius=R,
        r=r,
        l=l,
        lam=lam,
        separations=separations,
        claim1=claim1,
        claim2=claim2,
        hypotheses=hypotheses,
    )


class _Walk:
    """The geodesic-subdivision walk of one run, shared by its certificates
    by prefix extension.

    The state of a word w of length D is the walk along w up to its last
    sample, i <= k = floor(D/l): the vertex w ends at, the chain element of
    that sample (e if k = 0), the names of the steps between them, the
    running product of those steps, and the first failure.  A sample
    i <= floor((D-1)/l) snaps to a prefix of length ceil(i*l - 1/2) <= D-1,
    so w's state extends the state of w[:-1] by the samples in
    (floor((D-1)/l), k], at most ceil(1/l) of them, each on one of w's last
    two vertices.  States are keyed by the word, not by its
    vertex, so a witness word need not extend the witness of its prefix.
    The ball comes in BFS order, so only the states of the current and two
    previous word lengths are kept: in the submonoid pipeline a witness's
    prefix that ends in a group letter is not in M, and the prefix one
    letter shorter is.  A missing prefix is walked again from the longest
    one kept.

    A sample vertex v is covered by construction, by the first v·t⁻¹ in M
    over the representatives t that are vertices of B: v = (v·t⁻¹)·t.  For
    t ≠ ε, left cancellation of v·t⁻¹ lets no other vertex of B put v there,
    so a t outside B covers nothing (extraction checks that ε is in B).
    `steps` maps a pair (x, y) of consecutive chain elements to the first u
    in S with x*u = y.
    """

    def __init__(self, report: SmReport, inp: SmInput):
        self.report, self.inp, self.far = report, inp, inp.far
        self.names: dict[Word, str] = {}  # u -> format_word(u), for each u a step finds
        e = inp.monoid.identity
        # word -> (vertex, chain element, step names, product, failure); a
        # failure is (step, reason, is_cover), and a cover failure is final
        self.states: dict[Word, tuple] = {(): (e, e, [], e, None)}
        self.longest = 0  # the longest word whose state was asked for
        self.inverses = [t and inp.gamma.monoid.exact_quotient(t, e)  # t⁻¹, and ε for t = ε
                         for t in inp.representatives if report.ball.contains(Vertex(t))]
        self.steps: dict[tuple[Word, Word], Optional[Word]] = {}

    def _step(self, x: Word, y: Word) -> Optional[Word]:
        if (x, y) not in self.steps:
            multiply = self.inp.monoid.multiply
            u = self.steps[x, y] = next((u for u in self.report.generators if multiply(x, u) == y), None)
            if u is not None and u not in self.names:
                self.names[u] = format_word(u)
        return self.steps[x, y]

    def _cover(self, v: Word) -> Optional[Word]:
        """The first v·t⁻¹ in M over the t⁻¹ in `inverses`, or None."""
        oracle, multiply = self.inp.monoid, self.inp.gamma.monoid.multiply
        covers = (multiply(v, inverse) if inverse else v for inverse in self.inverses)
        return next((m for m in covers if not isinstance(oracle, SubmonoidOracle) or oracle.contains(m)), None)

    def _extend(self, state: tuple, w: Word) -> tuple:
        """The state of w from the state of w[:-1]."""
        before, last, names, product, failure = state
        ambient, D = self.inp.gamma.monoid, len(w)
        vertex = ambient.successors(before)[ambient.generators.index(w[-1])]
        if failure is not None and failure[2]:
            return vertex, last, names, product, failure
        p, q = self.report.l.numerator, self.report.l.denominator
        samples = range((D - 1) * q // p + 1, D * q // p + 1)
        if samples:
            names = list(names)  # the prefix's list stays as it is
        for i in samples:
            v = vertex if -((q - 2 * i * p) // (2 * q)) == D else before  # ceil(i*l - 1/2)
            cover = self._cover(v)
            if cover is None:
                return vertex, last, names, product, (i, "no covering translate for sample vertex", True)
            if failure is None:
                u = self._step(last, cover)
                if u is None:
                    reason = f"no contact element carries {format_word(last)} to {format_word(cover)}"
                    failure = (i - 1, reason, False)
                else:
                    names.append(self.names[u])
                    product = self.inp.monoid.multiply(product, u) if u else product  # p*ε = p on normal forms
            last = cover
        return vertex, last, names, product, failure

    def state(self, w: Word) -> tuple:
        """The state of the word w, extending the longest prefix kept."""
        states = self.states
        if len(w) > self.longest:
            self.longest = len(w)
            self.states = states = {x: s for x, s in states.items() if not x or len(x) >= len(w) - 2}
        j = len(w)
        while w[:j] not in states:
            j -= 1
        state = states[w[:j]]
        for j in range(j + 1, len(w) + 1):
            state = states[w[:j]] = self._extend(state, w[:j])
        return state

    def certificate(self, m: Word) -> tuple[Word, tuple, Word]:
        """m's witness word, its state and the last letter of m's chain,
        or FactorizationFailed at the first uncovered sample, else at the
        first step without a contact element."""
        inp = self.inp
        w = shortest_word(inp.gamma.monoid, inp.monoid.identity, m, self.far)
        state = self.state(w)
        _, last, _, _, failure = state
        if failure is None:
            u = self._step(last, m)
            if u is not None:
                return w, state, u
            k = len(w) * self.report.l.denominator // self.report.l.numerator
            failure = (k, f"no contact element carries {format_word(last)} to {format_word(m)}")
        raise FactorizationFailed(format_word(m), failure[0], failure[1])


def verify_generation_bound(report: SmReport, inp: SmInput) -> PropertyReport:
    """Every ball element factors over S within the subdivision bound k+1.

    The certificates share one _Walk, so each word of the witnesses' prefix
    tree walks only its own last samples.  The bound's D = d(e, m) is the
    length of m's witness word.
    """
    oracle = inp.monoid
    witnesses = []
    factorizations = {}
    l = report.l
    walk = _Walk(report, inp)
    for m in oracle.elements_up_to(inp.horizon):
        try:
            w, state, u = walk.certificate(m)
        except FactorizationFailed as exc:
            witnesses.append({"m": format_word(m), "step": exc.step, "reason": exc.detail})
            continue
        _, _, names, product, _ = state
        if u:
            product = oracle.multiply(product, u)
        bound = len(w) / l + 1
        name, length = format_word(m), len(names) + 1
        factorizations[name] = {
            "letters": names + [walk.names[u]],
            "length": length,
            "bound": [bound.numerator, bound.denominator],
        }
        if not (product == m and length <= bound):
            witnesses.append(
                {"m": name, "product": format_word(product), "length": length,
                 "bound": [bound.numerator, bound.denominator]}
            )
    return PropertyReport(
        "generation_bound",
        "fail" if witnesses else "pass",
        inp.horizon,
        witnesses,
        artifacts={"factorizations": factorizations},
    )


def verify_qi_bounds(report: SmReport, inp: SmInput, generation: PropertyReport) -> PropertyReport:
    """The two quasi-isometry inequalities for f(m) = m*x0.

    x0 is the identity vertex, so f(m) is the vertex m and the orbit
    distance D = d(f(m1), f(m2)) is the word distance from m1 to m2.  Both
    inequalities follow from what the run has already certified, so no pair
    is visited and no d_S is computed:

    - d(f(m1), f(m2)) <= lambda d_S(m1, m2) holds in every monoid.  Each
      step p -> p*u of an S-word from m1 to m2 is joined by a path of length
      d(e, u) <= lambda, since left translation by p maps paths to paths.
    - d_S(m1, m2) <= (1/l) d(f(m1), f(m2)) + 1 holds for every pair of the
      acting monoid at orbit distance D <= horizon, in all of it, not only
      inside the ball.  Let q be the element of a shortest word from m1 to
      m2: m1*q = m2 and d(e, q) <= D.  The generation bound certifies every
      element within the horizon, so it factors q over S in at most
      d(e, q)/l + 1 letters.  In the submonoid pipeline q lies in M because
      M is left unitary (see run_submonoid_theorem).

    So each failing generation certificate is one witness naming its q.

    Coverage within R is a lemma: the exact cobounded check puts each point x
    in some hB, so d(h, x) <= R and d(x, h) <= R, as B lies in the strong
    R-ball about e and left translation by h maps paths to paths.
    """
    l, lam = report.l, report.lam
    witnesses = [
        {"q": w["m"], "inequality": "d_S(m1,m2) <= (1/l) d(f(m1),f(m2)) + 1"}
        for w in generation.witnesses
    ]
    return PropertyReport(
        "qi_bounds",
        "fail" if witnesses else "pass",
        inp.horizon,
        witnesses,
        artifacts={
            "l": [l.numerator, l.denominator],
            "lambda": lam,
            "coverage_radius": [inp.radius.numerator, inp.radius.denominator],
        },
    )


def run_pipeline(inp: SmInput) -> dict:
    """extract + verify; returns {"report", "generation", "qi", "passed"},
    where "passed" is the verdict of both checks."""
    report = extract_generators(inp)
    generation = verify_generation_bound(report, inp)
    qi = verify_qi_bounds(report, inp, generation)
    passed = generation.passed and qi.passed  # both claims are theorems (see extract_generators)
    return {"report": report, "generation": generation, "qi": qi, "passed": passed}


# ---------------------------------------------------------------------------
# Submonoid theorem pipeline
# ---------------------------------------------------------------------------


def _displacement(gamma: GammaOracle, P: list[Word]) -> Fraction:
    """P's displacement: the largest strong distance between e and a p of P."""
    e = Vertex(gamma.monoid.identity)
    disp = ext_max(max(gamma.known_distance(e, Vertex(p)), gamma.known_distance(Vertex(p), e)) for p in P)
    return disp.finite_value()


def run_submonoid_theorem(N: FreeProductMonoid, horizon: int) -> PropertyReport:
    """The submonoid theorem for M = ends_in_e in N = F*G, with P = G.

    The normal form theorem for free products gives two of its hypotheses,
    so neither is searched for: M is left unitary, since s*t ends in t's
    last group letter, and each p of P is a unit whose inverse is the unique
    exact quotient of e by p.  It also gives MP = N: each n is its normal
    form without the last group letter, which is in M, times that letter.
    So P is the set T of orbit representatives that coboundedness is checked
    on.  The factorizations of the horizon ball are listed.
    """
    gamma = GammaOracle(N, horizon)
    P = [() if g == N.group_identity else (g,) for g in N.group.element_names]
    mp_witnesses = {}
    for n in N.elements_up_to(horizon):
        m, _ = N._split_last(n)
        mp_witnesses[format_word(n)] = (format_word(m), format_word(n[len(m):]))

    M = SubmonoidOracle(N)
    radius = 1 + _displacement(gamma, P)  # B must absorb P's displacement

    result = run_pipeline(SmInput(M, gamma, radius, horizon, P))
    report: SmReport = result["report"]
    ok = result["passed"]
    return PropertyReport(
        "submonoid_theorem",
        "pass" if ok else "fail",
        horizon,
        [] if ok else ["see sub-reports"],
        artifacts={
            "P": [format_word(p) for p in P],
            "MP_factorizations": mp_witnesses,
            "sm_report": report,
            "generation": result["generation"],
            "qi": result["qi"],
            "S": [format_word(s) for s in report.generators],
            "lambda": report.lam,
            "r": [report.r.numerator, report.r.denominator],
            "l": [report.l.numerator, report.l.denominator],
        },
    )


# ---------------------------------------------------------------------------
# Free product corollary pipeline
# ---------------------------------------------------------------------------


def run_free_product(N: FreeProductMonoid, horizon: int) -> PropertyReport:
    """F*G: the free basis {g f} of M = ends_in_e, the realized constants of
    the composite map free -> M -> N, and the submonoid pipeline.

    By the normal form theorem for free products (Lyndon & Schupp, ch. IV)
    an element of M has normal form g0 f1 g1 f2 ... g(k-1) fk, which splits
    in one way into the basis letters g(i-1) f(i).  So the basis words map
    one-to-one onto M, stay in M and keep free length, and each n of N ends
    in a group letter g0 with n*g0^-1 in M: no basis witness can occur, and
    none is searched for.

    The images concatenate without reduction, so d_N(e, .) adds over basis
    letters, and both ratios of a basis word's two lengths are at most the
    largest over its letters.  So realized_lambda is the largest of
    d_N(e, b) and 1/d_N(e, b) over the basis letters b, and realized_eps is
    0 by that definition.  By left translation and cancellation,
    d(n*g0^-1, n) = d(e, g0) and d(n, n*g0^-1) = d(e, g0^-1) = d(g0, e), so
    realized_mu is P's displacement, which run_submonoid_theorem measures.
    """
    sub = run_submonoid_theorem(N, horizon)  # first: it refuses a horizon below its ball radius
    group_names = N.group.element_names
    basis = [N.normal_form((f,) if g == N.group_identity else (g, f)) for g in group_names for f in N.free_letters]
    lengths = [word_distance(N, N.identity, b, horizon).value.finite_value() for b in basis]
    realized_lambda = max(max(d, 1 / d) for d in lengths)
    realized_mu = sub.artifacts["sm_report"].ball_radius - 1  # its R is 1 + P's displacement
    return PropertyReport(
        "free_product_corollary",
        "pass" if sub.passed else "fail",
        horizon,
        [],
        artifacts={
            "basis": [format_word(b) for b in basis],
            "basis_size": len(basis),
            "expected_basis_size": len(N.free_letters) * len(group_names),
            "realized_lambda": [realized_lambda.numerator, realized_lambda.denominator],
            "realized_eps": [0, 1],
            "realized_mu": [realized_mu.numerator, realized_mu.denominator],
            "submonoid": sub,
        },
    )
