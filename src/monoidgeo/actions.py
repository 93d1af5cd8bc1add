"""The properties of a monoid acting by left translation on its continuous
Cayley graph Gamma that the generating-set extraction rests on, and the
contact set it reads off the translates of its ball B.

Each property has one decision, shared by the pipelines and `check action`,
and none samples point pairs.  The action laws are the monoid's
associativity.  Left translation by m is an isometric embedding exactly when
m is left-cancellable, so that property is the monoid's left-cancellation
decision, `check_cancellative`.  The idealistic condition holds by definition.
`check_cobounded` and `compute_contact_set` take the acting monoid and its
translates of B directly."""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from .cayley import EdgePoint, GammaOracle, Translates, Vertex
from .errors import HorizonTooSmall
from .extnum import ZERO, ExtNonNeg
from .monoids import MonoidOracle, PropertyReport, Word, check_cancellative, format_word


def check_action_laws(monoid: MonoidOracle) -> PropertyReport:
    """Left translation is an action of `monoid` on its Cayley graph Gamma:
    ε*x = x, and (m*n)*x = m*(n*x) by associativity, on edge points too,
    since translation keeps edges and offsets."""
    basis = f"theorem: the {monoid.name} product is associative with identity ε, so ε*x = x and (m*n)*x = m*(n*x)"
    return PropertyReport("action_laws", "pass", 0, [], artifacts={"basis": basis})


def check_isometric_embedding_action(
    monoid: MonoidOracle, multipliers: Sequence[Word], depth: int, reach: int, horizon: int
) -> PropertyReport:
    """Left translation by each of `multipliers`, the elements of depth <=
    `depth` of an acting monoid, is an isometric embedding of Gamma, the
    Cayley graph of `monoid`: check_cancellative's left decision, by
    `monoid`'s cancellation theorem, else on the ball of radius `reach`,
    relabelled.  A fail names the first cancellation failure m*a = m*b found.

    x -> m*x is an isometric embedding of Gamma exactly when m is
    left-cancellable: paths labelled w map to paths labelled w, so
    d(mp, mq) <= d(p, q), with equality when m*x*w = m*y forces x*w = y (on
    edge points too, since translation keeps edges and offsets), while
    m*a = m*b with a != b gives d(ma, mb) = 0 < d(a, b).  Free monoids, free
    products and groups are cancellative by the theorem their class names."""
    report = check_cancellative(monoid, "left", reach, multipliers)
    if report.verdict == "holds_at_horizon":
        basis = f"checked: every multiplier of depth <= {depth} is injective on the ball of radius {reach}"
        report.artifacts["basis"] = basis
    return PropertyReport("isometric_embedding_action", report.verdict, horizon, report.witnesses, report.artifacts)


def check_cobounded(
    translates: Translates, gamma: GammaOracle, radius: Fraction, representatives: Sequence[Word], horizon: int
) -> PropertyReport:
    """Every point of Gamma lies in some translate mB of the run's
    `translates`, exactly, given N = M·T for the acting monoid M and the
    `representatives` T, and d(e, v) <= floor(`radius`) for each base v of B.

    Left translation by M carries a cover of each t in T and of the open
    interior of its out-edges (t, s) to every point.  Only an m with d(m, t)
    <= floor(R), a vertex of that in-ball about t asked at `horizon`, can
    put a base of B on t.  A witness is an uncovered t or the midpoint of
    the first gap on an edge."""
    oracle = translates.oracle
    uncovered = []
    for t in representatives:
        candidates = sorted(gamma.in_ball_cellset(t, Fraction(math.floor(radius)), horizon).vertices)
        covers = [translates[m] for m in candidates if oracle.contains(m)]
        if not any(t in mB.vertices for mB in covers):
            uncovered.append(str(Vertex(t)))
        for s in gamma.monoid.generators:
            reach = Fraction(0)  # [0, reach] of the edge (t, s) is covered
            for lo, hi in sorted(b for mB in covers for b in mB.edge_bounds((t, s))) + [(Fraction(1), 1)]:
                if lo > reach:
                    uncovered.append(str(EdgePoint(t, s, (reach + lo) / 2)))
                    break
                reach = max(reach, hi)
    return PropertyReport("cobounded", "fail" if uncovered else "pass", horizon, uncovered)


def compute_contact_set(
    translates: Translates, gamma: GammaOracle, radius: Fraction
) -> tuple[list[Word], dict[Word, ExtNonNeg]]:
    """(S, separations): the contact set S = {m : d(B, mB) = 0} of the run's
    `translates`, and d(B, mB) for every m of the ball of radius
    rho = ceil(3R) - 1, R the `radius`, both in BFS order.

    B holds e and lies in the strong R-ball about e, and left translation is
    1-Lipschitz, so d(e, m) - 2R <= d(B, mB) <= d(e, m).  The first bound puts
    S in the ball of radius floor(2R) <= rho, and every m with d(B, mB) < R
    in the rho ball, whatever the horizon (see extract_generators).  The
    second makes each separation of the rho ball known at horizon rho."""
    oracle, B = translates.oracle, translates.B
    rho = math.ceil(3 * radius) - 1
    separations = {}
    for m in oracle.elements_up_to(rho):
        d = gamma.set_distance(B, translates[m], rho)
        if not d.is_known:
            raise HorizonTooSmall(f"d(B, {format_word(m)}B) not known at horizon {rho}")
        separations[m] = d.value
    S = [m for m, d in separations.items() if d == ZERO]
    return S, separations


def check_idealistic(monoid: MonoidOracle, horizon: int) -> PropertyReport:
    """The idealistic condition for `monoid` translating Gamma on the left,
    with the identity vertex x0 as basepoint: a finite d(m x0, n x0) forces
    n into mM.  It holds by definition, as d(m x0, n x0) < inf iff n = m*t
    for some t in Gamma's monoid N.  A submonoid M that names a
    left_unitary_theorem, as M = ends_in_e of a free product does, has t in
    M by it."""
    basis = "theorem: d(m x0, n x0) < inf iff n = m*t for some t in N"
    if monoid.left_unitary_theorem is not None:
        basis += f", and t is in M since M is left unitary ({monoid.left_unitary_theorem})"
    return PropertyReport("idealistic", "pass", horizon, [], artifacts={"basis": basis})
