"""Constructive generating-set extraction with verified constants.

Given a monoid acting on its continuous Cayley graph (or a submonoid acting
on the ambient one), the pipeline computes the contact set S of a strong
ball B, the separation constants r and l, the Lipschitz constant of the
orbit map, then instance-verifies the two covering claims and the generation
bound with explicit factorizations, and samples ball coverage.  Claim 2
compares B only with its right neighbours qB, q in the ball of radius
ceil(2R + r) - 1: left translation carries that comparison to every pair.
The two quasi-isometry inequalities are not checked pair by pair: one is a
lemma, the other is read off the generation certificates.  Everything is exact
rational arithmetic; verdicts are relative to the stated horizon.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator, Optional

from .actions import (
    ActionOracle,
    PropertyReport,
    apply_translation,
    check_cobounded,
    compute_contact_set,
)
from .cayley import (
    CayleyPoint,
    CellSet,
    GammaOracle,
    Translates,
    Vertex,
    gamma_set_distance,
    shortest_word,
    word_distance,
)
from .errors import FactorizationFailed, HorizonTooSmall, HypothesisFailed
from .extnum import ZERO, ExtNonNeg, ext_max
from .monoids import (
    FreeMonoid,
    FreeProductMonoid,
    SubmonoidOracle,
    Word,
    check_cancellative,
    ends_in_group_identity_submonoid,
    format_word,
)


@dataclass
class SmInput:
    action: ActionOracle  # space must be a GammaOracle; the basepoint is the identity vertex
    radius: Fraction
    horizon: int
    covering_candidates: Optional[Callable[[Word], list[Word]]] = None

    def __post_init__(self):
        self.radius = Fraction(self.radius)
        if self.radius <= 0:
            raise ValueError("ball radius must be positive")
        if self.radius > self.horizon:
            raise ValueError("require radius <= horizon")

    @property
    def far(self) -> int:
        """The horizon of extraction's distance queries, which may need to see past 5R."""
        return max(self.horizon, int(5 * self.radius) + 1)


@dataclass
class SmReport:
    generators: list[Word]
    ball: CellSet
    ball_radius: Fraction
    outer_ball_radius: Fraction  # 5R, the radius of the reference out-ball C
    q_translates: list[tuple[Word, ExtNonNeg]]
    r: Fraction
    l: Fraction
    lam: ExtNonNeg
    separations: dict
    claim1: PropertyReport
    claim2: PropertyReport
    hypotheses: dict
    contact: PropertyReport
    translates: Translates  # the run's translates mB, shared by every later check

    def to_json(self) -> dict:
        return {
            "S": [format_word(s) for s in self.generators],
            "B": self.ball.to_json(),
            "R": [self.ball_radius.numerator, self.ball_radius.denominator],
            "C": {
                "kind": "out_ball",
                "radius": [self.outer_ball_radius.numerator, self.outer_ball_radius.denominator],
            },
            "Q": [
                {"m": format_word(m), "separation": sep.to_json()}
                for m, sep in self.q_translates
            ],
            "r": [self.r.numerator, self.r.denominator],
            "l": [self.l.numerator, self.l.denominator],
            "lambda": self.lam.to_json(),
            "claim1": self.claim1.to_json(),
            "claim2": self.claim2.to_json(),
            "hypotheses": {k: v.to_json() for k, v in self.hypotheses.items()},
        }


def _gamma_of(action: ActionOracle) -> GammaOracle:
    space = action.space
    if not isinstance(space, GammaOracle):
        raise HypothesisFailed("space", "extraction requires a continuous Cayley graph space")
    return space


def _cobounded_sample(inp: SmInput, B: CellSet) -> list[CayleyPoint]:
    """The points of B and of the out-ball of radius min(h, 3), without repeats."""
    gamma = _gamma_of(inp.action)
    ambient = gamma.out_ball_cellset(gamma.monoid.identity, Fraction(min(inp.horizon, 3)), inp.far)
    return list(dict.fromkeys(B.sample_points() + ambient.sample_points()))


def _isometric_embedding(inp: SmInput) -> PropertyReport:
    """Left translation by each multiplier is an isometric embedding (see
    extract_generators): by N's cancellation theorem, else checked."""
    n = _gamma_of(inp.action).monoid
    if n.cancellation_theorem is not None:
        return PropertyReport("isometric_embedding_action", "pass", inp.horizon, [],
                              artifacts={"basis": f"theorem: {n.cancellation_theorem}"})
    w = check_cancellative(n, "left", inp.far, inp.action.monoid.elements_up_to(inp.horizon)).witness
    if w is not None:
        raise HypothesisFailed(
            "isometric_embedding",
            f"{w['m']} is not left-cancellable: {w['m']}·{w['a']} = {w['m']}·{w['b']} = {w['product']}",
        )
    basis = f"checked: every multiplier of depth <= {inp.horizon} is injective on the ball of radius {inp.far}"
    return PropertyReport("isometric_embedding_action", "holds_at_horizon", inp.horizon, [],
                          artifacts={"basis": basis})


def extract_generators(inp: SmInput) -> SmReport:
    """The contact set S of the strong ball B, the constants r, l and lambda,
    the translates Q, and claims 1 and 2, after the hypothesis pre-checks.

    The action must be left translation on Gamma, the continuous Cayley
    graph of the space's monoid N (translates are CellSet.translate).  Then
    x -> m*x is an isometric embedding of Gamma exactly when m is
    left-cancellable: paths labelled w map to paths labelled w, so
    d(mp, mq) <= d(p, q), with equality when m*x*w = m*y forces x*w = y (on
    edge points too, since translation keeps edges and offsets), while
    m*a = m*b with a != b gives d(ma, mb) = 0 < d(a, b).  Free monoids, free
    products and groups are cancellative by the theorem their class names.
    For any other N each multiplier of the horizon ball must be injective
    on the far ball: a path shorter than r from B to a qB of claim 2 visits
    only vertices of depth <= ceil(2R + r) - 1 + floor(R) + 1 <= far.

    The idealistic condition holds by definition: d(m x0, n x0) < inf iff
    n = m*t for some t in N, and in the submonoid pipeline t is in M since
    M = ends_in_e is left unitary by the normal form theorem for free
    products (see run_submonoid_theorem).  Coboundedness is sampled.

    Claim 2: translates closer than r differ by a contact element.  As
    d(mB, nB) >= d(m x0, n x0) - 2R and finite word distances are integers,
    such an n is m*q with q in the ball of radius ceil(2R + r) - 1; then
    d(mB, nB) = d(B, qB) by isometry, and n is in mS iff q is in S by
    cancellation.  So claim 2 compares B with each qB, in BFS order, and
    every witness has m = e.
    """
    action = inp.action
    oracle = action.monoid
    gamma = _gamma_of(action)
    R = inp.radius
    horizon = inp.horizon
    far = inp.far
    e = oracle.identity
    x0 = Vertex(e)
    B = gamma.strong_ball_cellset(e, R, far)
    if not B.contains(x0):
        raise HypothesisFailed("ball", "B must contain its basepoint")
    translates = Translates(oracle, B)

    hypotheses = {"isometric_embedding": _isometric_embedding(inp)}
    cob = check_cobounded(action, B, _cobounded_sample(inp, B), horizon, translates)
    cob.artifacts["basis"] = f"sampled: the points of B and of the out-ball of radius {min(horizon, 3)}"
    hypotheses["cobounded"] = cob
    if not cob.passed:
        raise HypothesisFailed("cobounded", f"uncovered: {cob.witnesses[:3]}")
    basis = "theorem: d(m x0, n x0) < inf iff n = m*t for some t in N"
    if isinstance(oracle, SubmonoidOracle):
        basis += (", and t is in M since M is left unitary (normal form theorem for"
                  " free products: s*t ends in t's last group letter)")
    hypotheses["idealistic"] = PropertyReport("idealistic", "pass", horizon, [], artifacts={"basis": basis})

    contact = compute_contact_set(action, B, horizon, translates)
    S: list[Word] = contact.artifacts["contact_elements"]
    separations: dict[Word, ExtNonNeg] = contact.artifacts["separations"]

    # Q: separated translates that still touch the out-ball C of radius 5R.
    # Every unknown bound is at least far > 5R, so d(x0, mB) is known and
    # within 5R exactly when some point of mB is.
    five_R = 5 * R
    center = CellSet([e])
    q_translates: list[tuple[Word, ExtNonNeg]] = []
    for m, sep in separations.items():
        if sep == ZERO or sep.is_infinite:
            continue
        d = gamma_set_distance(gamma.monoid, center, translates[m], far)
        if d.is_known and d.value <= five_R:
            q_translates.append((m, sep))
    min_q = min((sep.finite_value() for _, sep in q_translates), default=None)
    r = (R if min_q is None else min(R, min_q)) / 2
    l = r / 2

    lam = ext_max(gamma.known_distance(x0, Vertex(s)) for s in S)
    if lam.is_infinite:
        raise HypothesisFailed("lambda", "basepoint displacement of a contact element is infinite")

    # Claim 1: any translate closer than r is actually at distance zero.
    c1_witnesses = [
        {"h": format_word(m), "d(B,hB)": sep}
        for m, sep in separations.items()
        if not sep.is_infinite and ZERO < sep < ExtNonNeg.of(r)
    ]
    claim1 = PropertyReport(
        "claim1_gap", "fail" if c1_witnesses else "pass", horizon, c1_witnesses
    )

    # Claim 2: B against its right neighbours qB (see above).  d(B, qB) <=
    # d(e, q) < 2R + r <= 5R/2 < far, so none of them is past the horizon.
    steps = oracle.elements_up_to(math.ceil(2 * R + r) - 1)
    c2_witnesses = []
    for q in steps:
        d = gamma_set_distance(gamma.monoid, B, translates[q], far)
        if not d.is_known:
            raise HorizonTooSmall(f"d(B, {format_word(q)}B) unknown")
        if d.value < ExtNonNeg.of(r) and q not in S:
            c2_witnesses.append({"m": format_word(e), "n": format_word(q), "d(mB,nB)": d.value})
    claim2 = PropertyReport(
        "claim2_quotient", "fail" if c2_witnesses else "pass", horizon,
        c2_witnesses, artifacts={"pairs_checked": len(steps)},
    )

    return SmReport(
        generators=S,
        ball=B,
        ball_radius=R,
        outer_ball_radius=five_R,
        q_translates=q_translates,
        r=r,
        l=l,
        lam=lam,
        separations=separations,
        claim1=claim1,
        claim2=claim2,
        hypotheses=hypotheses,
        contact=contact,
        translates=translates,
    )


def _covering_elements(inp: SmInput, translates: Translates, x: CayleyPoint) -> Iterator[Word]:
    """The covering candidates of x's base vertex, in order, that lie in the
    acting monoid and whose B-translate contains x."""
    oracle = inp.action.monoid
    v = x.element
    for m in inp.covering_candidates(v) if inp.covering_candidates else [v]:
        if isinstance(oracle, SubmonoidOracle) and not oracle.contains(m):
            continue
        if translates[m].contains(x):
            yield m


def factor_over_generators(report: SmReport, inp: SmInput, m: Word, memo: dict) -> list[Word]:
    """The proof's geodesic-subdivision factorization of m over S.

    Let w be a shortest word for m, D = |w| and l = p/q.  The samples at
    times i*l, 0 < i <= k = floor(D/l), snap to the prefix of w of length
    ceil(i*l - 1/2), ties going to the earlier vertex; i <= k keeps that
    length <= D.  The chain is e, the first covering element of each
    sample, then m, and one contact element is read off each step.

    `memo` belongs to the run: it maps a vertex to its first covering
    element, and a pair (x, y) of consecutive chain elements to the first
    u in S with x*u = y (a word's letters are strings, so the two kinds of
    key never meet).
    """
    oracle = inp.action.monoid
    ambient = _gamma_of(inp.action).monoid
    w = shortest_word(ambient, oracle.identity, m, inp.far)
    p, q = report.l.numerator, report.l.denominator
    chain = [oracle.identity]
    prefix, depth = oracle.identity, 0
    for i in range(1, len(w) * q // p + 1):
        snapped = -((q - 2 * i * p) // (2 * q))  # ceil(i*l - 1/2)
        for letter in w[depth:snapped]:
            prefix = ambient.multiply(prefix, (letter,))
        depth = snapped
        if prefix not in memo:
            memo[prefix] = next(_covering_elements(inp, report.translates, Vertex(prefix)), None)
        if memo[prefix] is None:
            raise FactorizationFailed(format_word(m), i, "no covering translate for sample vertex")
        chain.append(memo[prefix])
    chain.append(m)
    letters: list[Word] = []
    for i, (x, y) in enumerate(zip(chain, chain[1:])):
        if (x, y) not in memo:
            memo[x, y] = next((u for u in report.generators if oracle.multiply(x, u) == y), None)
        if memo[x, y] is None:
            raise FactorizationFailed(
                format_word(m), i, f"no contact element carries {format_word(x)} to {format_word(y)}"
            )
        letters.append(memo[x, y])
    return letters


def verify_generation_bound(report: SmReport, inp: SmInput) -> PropertyReport:
    """Every ball element factors over S within the subdivision bound k+1."""
    action = inp.action
    oracle = action.monoid
    gamma = _gamma_of(inp.action)
    x0 = Vertex(oracle.identity)
    witnesses = []
    factorizations = {}
    l = report.l
    memo: dict = {}
    for m in oracle.elements_up_to(inp.horizon):
        try:
            letters = factor_over_generators(report, inp, m, memo)
        except FactorizationFailed as exc:
            witnesses.append({"m": format_word(m), "step": exc.step, "reason": exc.detail})
            continue
        product = oracle.identity
        for u in letters:
            product = oracle.multiply(product, u)
        D = gamma.known_distance(x0, Vertex(m)).finite_value()
        bound = D / l + 1
        ok = product == m and Fraction(len(letters)) <= bound
        factorizations[format_word(m)] = {
            "letters": [format_word(u) for u in letters],
            "length": len(letters),
            "bound": [bound.numerator, bound.denominator],
        }
        if not ok:
            witnesses.append(
                {
                    "m": format_word(m),
                    "product": format_word(product),
                    "length": len(letters),
                    "bound": [bound.numerator, bound.denominator],
                }
            )
    return PropertyReport(
        "generation_bound",
        "fail" if witnesses else "pass",
        inp.horizon,
        witnesses,
        artifacts={"factorizations": factorizations},
    )


def verify_qi_bounds(report: SmReport, inp: SmInput, generation: PropertyReport) -> PropertyReport:
    """The two quasi-isometry inequalities for f(m) = m*x0, plus coverage.

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
    """
    action = inp.action
    oracle = action.monoid
    gamma = _gamma_of(inp.action)
    far = inp.far
    l, lam = report.l, report.lam
    witnesses = [
        {"q": w["m"], "inequality": "d_S(m1,m2) <= (1/l) d(f(m1),f(m2)) + 1"}
        for w in generation.witnesses
    ]
    # Coverage: every sampled point is within R of the orbit of its covering
    # translate, in both directions.
    coverage_failures = []
    sample = gamma.out_ball_cellset(oracle.identity, Fraction(min(inp.horizon, 3)), far).sample_points()
    R = ExtNonNeg.of(inp.radius)
    for x in sample:
        if not any(
            gamma.known_distance(Vertex(h), x) <= R and gamma.known_distance(x, Vertex(h)) <= R
            for h in _covering_elements(inp, report.translates, x)
        ):
            coverage_failures.append(str(x))
    if coverage_failures:
        witnesses.append({"reason": "coverage", "points": coverage_failures})
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
    """extract + verify; returns {"report", "generation", "qi"}."""
    report = extract_generators(inp)
    generation = verify_generation_bound(report, inp)
    qi = verify_qi_bounds(report, inp, generation)
    return {"report": report, "generation": generation, "qi": qi}


# ---------------------------------------------------------------------------
# Submonoid theorem pipeline
# ---------------------------------------------------------------------------


def run_submonoid_theorem(N: FreeProductMonoid, horizon: int) -> PropertyReport:
    """The submonoid theorem for M = ends_in_e in N = F*G, with P = G.

    The normal form theorem for free products gives two of its hypotheses,
    so neither is searched for: M is left unitary, since s*t ends in t's
    last group letter, and each p of P is a unit whose inverse is the unique
    exact quotient of e by p.  MP = N is checked on the horizon ball.
    """
    gamma = GammaOracle(N, max(horizon, 8))
    spec = ends_in_group_identity_submonoid(N)
    P = [() if g == N.group_identity else (g,) for g in N.group.element_names]
    inverses = {p: N.exact_quotient(p, N.identity) for p in P}

    # Hypothesis: MP = N on the ball.
    mp_witnesses = {}
    for n in N.elements_up_to(horizon):
        # m*p = n with p*q = e forces m = n*q, so one candidate per p suffices.
        found = None
        for p in P:
            m = N.multiply(n, inverses[p])
            if spec.membership(m) and N.multiply(m, p) == n:
                found = (m, p)
                break
        if found is None:
            raise HypothesisFailed("MP=N", f"no factorization m*p = {format_word(n)}")
        mp_witnesses[format_word(n)] = (format_word(found[0]), format_word(found[1]))

    M = SubmonoidOracle(N, spec)
    action = ActionOracle(
        monoid=M,
        space=gamma,
        apply=lambda m, pt: apply_translation(N, m, pt),
    )
    # B must absorb P's displacement: radius 1 + max strong distance to P.
    disp = ext_max(
        max(gamma.known_distance(Vertex(N.identity), Vertex(p)),
            gamma.known_distance(Vertex(p), Vertex(N.identity)))
        for p in P
    )
    radius = Fraction(1) + disp.finite_value()

    def covering(v: Word) -> list[Word]:
        cands = [v]
        for p in P:
            cands.append(N.multiply(v, inverses[p]))
        return cands

    sm_inp = SmInput(
        action=action,
        radius=radius,
        horizon=horizon,
        covering_candidates=covering,
    )
    result = run_pipeline(sm_inp)
    report: SmReport = result["report"]
    ok = (
        report.claim1.passed
        and report.claim2.passed
        and result["generation"].passed
        and result["qi"].passed
    )
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
    """F*G: verify the free basis {g f_i} of M and the submonoid pipeline."""
    spec = ends_in_group_identity_submonoid(N)
    group_names = N.group.element_names

    # Candidate free basis: one element per (group element, free letter).
    basis: list[Word] = []
    for g in group_names:
        for f in N.free_letters:
            word = (f,) if g == N.group_identity else (g, f)
            basis.append(N.normal_form(word))
    k = len(basis)
    basis_names = [f"b{i+1}" for i in range(k)]
    free_model = FreeMonoid(k, alphabet=basis_names)

    def free_length(m: Word) -> int:
        return sum(x in N.free_letters for x in m)

    def embed(bword: Word) -> Word:
        out = N.identity
        for b in bword:
            out = N.multiply(out, basis[basis_names.index(b)])
        return out

    # Unique factorization: basis words of length <= horizon/2 biject onto
    # the M-elements whose canonical length fits in the horizon ball.
    depth = horizon // 2
    images = {}
    witnesses = []
    for bword in free_model.elements_up_to(depth):
        img = embed(bword)
        if img in images:
            witnesses.append(
                {"reason": "basis factorization not injective",
                 "words": [format_word(images[img]), format_word(bword)]}
            )
        images[img] = bword
        if not spec.membership(img):
            witnesses.append({"reason": "basis word leaves M", "word": format_word(bword)})
        if free_length(img) != len(bword):
            witnesses.append({"reason": "basis letters not length-preserving", "word": format_word(bword)})
    m_ball = [m for m in N.elements_up_to(horizon) if spec.membership(m)]
    for m in m_ball:
        if free_length(m) <= depth and m not in images:
            witnesses.append({"reason": "M-element misses basis factorization", "m": format_word(m)})

    # Realized quasi-isometry constants of the composite map free -> M -> N,
    # by left translation.  A pair of basis words at finite distance is
    # (b1, b1*s): a finite d_N(img1, img2) makes img2 = img1*t, t is in M as
    # M is left unitary, and unique factorization gives b2 = b1*s.  Both
    # monoids are cancellative, so that pair's distances are |s| and
    # d_N(e, embed(s)), whatever b1 is.
    realized_lambda = Fraction(1)
    realized_eps = Fraction(0)
    for img, bword in images.items():
        if bword:
            a, b = len(bword), word_distance(N, N.identity, img, horizon).value.finite_value()
            realized_lambda = max(realized_lambda, Fraction(b, a), Fraction(a, b))
    # Density of M in N: every element is within a group letter of M.
    gamma = GammaOracle(N, max(horizon, 8))
    realized_mu = Fraction(0)
    for n in N.elements_up_to(horizon):
        best = None
        for g in group_names:
            m = N.multiply(n, () if g == N.group_identity else (g,))
            if not spec.membership(m):
                continue
            fwd = gamma.known_distance(Vertex(m), Vertex(n))
            back = gamma.known_distance(Vertex(n), Vertex(m))
            cand = max(fwd, back)
            if not cand.is_infinite and (best is None or cand < best):
                best = cand
        if best is None:
            witnesses.append({"reason": "element not near M", "n": format_word(n)})
        else:
            realized_mu = max(realized_mu, best.finite_value())

    sub = run_submonoid_theorem(N, horizon)
    ok = not witnesses and sub.passed
    return PropertyReport(
        "free_product_corollary",
        "pass" if ok else "fail",
        horizon,
        witnesses,
        artifacts={
            "basis": [format_word(b) for b in basis],
            "basis_size": k,
            "expected_basis_size": len(N.free_letters) * len(group_names),
            "realized_lambda": [realized_lambda.numerator, realized_lambda.denominator],
            "realized_eps": [realized_eps.numerator, realized_eps.denominator],
            "realized_mu": [realized_mu.numerator, realized_mu.denominator],
            "submonoid": sub,
        },
    )
