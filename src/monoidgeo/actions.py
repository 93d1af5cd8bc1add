"""Monoid actions on semimetric spaces, and the action properties that the
generating-set extraction rests on.

The extraction itself runs one action, left translation on the continuous
Cayley graph, so `check_cobounded` and `compute_contact_set` take the acting
monoid and its translates of B directly, and neither samples.  `ActionOracle`
and its samplers (action laws, isometric embedding, idealistic) serve `check
action` and actions other than left translation; under left translation the
idealistic condition holds by definition."""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Optional, Sequence

from .cayley import CayleyPoint, EdgePoint, GammaOracle, Translates, Vertex, word_distance
from .errors import HorizonTooSmall
from .extnum import ZERO, ExtNonNeg
from .monoids import MonoidOracle, SubmonoidOracle, Word, format_word


def apply_translation(oracle: MonoidOracle, m: Word, p: CayleyPoint) -> CayleyPoint:
    """Left translation on the Cayley graph: vertices and edge offsets carry over."""
    if isinstance(p, Vertex):
        return Vertex(oracle.multiply(m, p.element))
    return EdgePoint(oracle.multiply(m, p.element), p.gen, p.mu)


class ActionOracle:
    """A monoid acting on a semimetric space."""

    def __init__(self, monoid: MonoidOracle, space: object, apply: Callable[[Word, object], object]):
        self.monoid = monoid
        self.space = space  # duck-typed: known_distance / distance(p, q, horizon) / format_point
        self.apply = apply


def translation_action(gamma: GammaOracle) -> ActionOracle:
    oracle = gamma.monoid
    return ActionOracle(
        monoid=oracle,
        space=gamma,
        apply=lambda m, p: apply_translation(oracle, m, p),
    )


class PropertyReport:
    def __init__(self, property: str, verdict: str, horizon: int, witnesses: Optional[list] = None,
                 artifacts: Optional[dict] = None):
        self.property = property
        self.verdict = verdict  # "pass" | "fail" | "holds_at_horizon" | "unknown"
        self.horizon = horizon
        self.witnesses = [] if witnesses is None else witnesses
        self.artifacts = {} if artifacts is None else artifacts

    @property
    def passed(self) -> bool:
        return self.verdict in ("pass", "holds_at_horizon")

    def to_json(self) -> dict:
        def enc(v):
            if type(v) is str or type(v) is int:
                return v
            if hasattr(v, "to_json"):  # distances and nested reports encode themselves
                return v.to_json()
            if isinstance(v, Fraction):
                return [v.numerator, v.denominator]
            if isinstance(v, dict):
                return {k: enc(x) for k, x in v.items()}
            if type(v) is list and set(map(type, v)) == {str}:  # a factorization's letters
                return v
            if isinstance(v, (list, tuple)):
                return [enc(x) for x in v]
            return v if isinstance(v, (str, int, bool, type(None))) else str(v)

        return {
            "property": self.property,
            "verdict": self.verdict,
            "horizon": self.horizon,
            "witnesses": enc(self.witnesses),
            "artifacts": enc(self.artifacts),
        }


def check_action_laws(action: ActionOracle, ms: Sequence[Word], points: Sequence) -> PropertyReport:
    """apply(e, p) = p and apply(mn, p) = apply(m, apply(n, p)) on samples."""
    witnesses = []
    e = action.monoid.identity
    for p in points:
        if action.apply(e, p) != p:
            witnesses.append({"law": "identity", "point": str(p)})
    for m in ms:
        for n in ms:
            mn = action.monoid.multiply(m, n)
            for p in points:
                if action.apply(mn, p) != action.apply(m, action.apply(n, p)):
                    witnesses.append(
                        {"law": "compatibility", "m": format_word(m), "n": format_word(n), "point": str(p)}
                    )
    return PropertyReport("action_laws", "fail" if witnesses else "pass", 0, witnesses)


def check_isometric_embedding_action(
    action: ActionOracle, ms: Sequence[Word], points: Sequence, horizon: int
) -> PropertyReport:
    """d(mp, mq) = d(p, q) for all sampled m and point pairs."""
    witnesses = []
    space = action.space
    # d(p, q) does not depend on m; the first m asks for it in the same
    # order as for d(mp, mq), so a HorizonTooSmall surfaces as before.
    base: dict[tuple[int, int], ExtNonNeg] = {}
    for m in ms:
        for i, p in enumerate(points):
            mp = action.apply(m, p)
            for j, q in enumerate(points):
                mq = action.apply(m, q)
                d0 = base.get((i, j))
                if d0 is None:
                    d0 = base[i, j] = space.known_distance(p, q)
                d1 = space.known_distance(mp, mq)
                if d0 != d1:
                    witnesses.append(
                        {
                            "m": format_word(m),
                            "p": str(p),
                            "q": str(q),
                            "d(p,q)": d0,
                            "d(mp,mq)": d1,
                        }
                    )
    verdict = "fail" if witnesses else "holds_at_horizon"
    return PropertyReport("isometric_embedding_action", verdict, horizon, witnesses)


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
        covers = [translates[m] for m in candidates if not isinstance(oracle, SubmonoidOracle) or oracle.contains(m)]
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


def check_idealistic(action: ActionOracle, x0, depth: int, horizon: int) -> PropertyReport:
    """Finite orbit distance d(m x0, n x0) must force n into mM, for m and n
    in the depth ball: a sampler for a general action.

    n in mM is equivalent to nM ⊆ mM (right-ideal containment), which makes
    the condition a single reachability query in the monoid.  Both queries
    are asked at `horizon`; a pair that either leaves undecided is
    unresolved, and any unresolved pair makes the verdict unknown.  Under
    left translation the two queries coincide, so the pipelines do not ask.
    """
    oracle = action.monoid
    space = action.space
    witnesses = []
    unresolved = 0
    ball = oracle.elements_up_to(depth)
    for m in ball:
        mx = action.apply(m, x0)
        for n in ball:
            nx = action.apply(n, x0)
            d = space.distance(mx, nx, horizon)
            if not d.is_known:
                unresolved += 1
                continue
            if d.value.is_infinite:
                continue
            reach = word_distance(oracle, m, n, horizon)
            if reach.is_known and reach.value.is_infinite:
                witnesses.append(
                    {
                        "m": format_word(m),
                        "n": format_word(n),
                        "d(m x0, n x0)": d.value,
                        "reason": "no u with m*u = n (search space exhausted)",
                    }
                )
            elif not reach.is_known:
                unresolved += 1
    verdict = "fail" if witnesses else "unknown" if unresolved else "holds_at_horizon"
    return PropertyReport(
        "idealistic",
        verdict,
        depth,
        witnesses,
        artifacts={"unresolved_pairs": unresolved, "basepoint": str(x0)},
    )
