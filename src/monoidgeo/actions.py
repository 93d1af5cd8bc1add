"""Monoid actions on semimetric spaces and the action properties that feed
the generating-set extraction: isometric embeddings, coboundedness and
contact sets for outward properness.  The idealistic sampler serves actions
other than left translation, under which the condition holds by definition."""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional, Sequence

from .cayley import CayleyPoint, CellSet, EdgePoint, GammaOracle, Translates, Vertex, word_distance
from .errors import HorizonTooSmall
from .extnum import INF, ZERO, ExtNonNeg
from .monoids import MonoidOracle, Word, format_word


def apply_translation(oracle: MonoidOracle, m: Word, p: CayleyPoint) -> CayleyPoint:
    """Left translation on the Cayley graph: vertices and edge offsets carry over."""
    if isinstance(p, Vertex):
        return Vertex(oracle.multiply(m, p.element))
    return EdgePoint(oracle.multiply(m, p.element), p.gen, p.mu)


@dataclass
class ActionOracle:
    """A monoid acting on a semimetric space."""

    monoid: MonoidOracle
    space: object  # duck-typed: known_distance / distance(p, q, horizon) / format_point
    apply: Callable[[Word, object], object]


def translation_action(gamma: GammaOracle) -> ActionOracle:
    oracle = gamma.monoid
    return ActionOracle(
        monoid=oracle,
        space=gamma,
        apply=lambda m, p: apply_translation(oracle, m, p),
    )


@dataclass
class PropertyReport:
    property: str
    verdict: str  # "pass" | "fail" | "holds_at_horizon" | "unknown"
    horizon: int
    witnesses: list = field(default_factory=list)
    artifacts: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.verdict in ("pass", "holds_at_horizon")

    def to_json(self) -> dict:
        def enc(v):
            if hasattr(v, "to_json"):  # distances and nested reports encode themselves
                return v.to_json()
            if isinstance(v, Fraction):
                return [v.numerator, v.denominator]
            if isinstance(v, dict):
                return {k: enc(x) for k, x in v.items()}
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
    action: ActionOracle, B: CellSet, ambient_sample: Sequence[CayleyPoint], horizon: int,
    translates: Optional[Translates] = None,
) -> PropertyReport:
    """Every sampled point lies in some translate mB with |m| <= horizon.

    `translates` is a run's cache of the translates of B, shared with the
    checks that follow; a fresh one is made when none is given."""
    oracle = action.monoid
    translates = Translates(oracle, B) if translates is None else translates
    covers = [translates[m] for m in oracle.elements_up_to(horizon)]
    uncovered = []
    for x in ambient_sample:
        if not any(t.contains(x) for t in covers):
            uncovered.append(str(x))
    verdict = "fail" if uncovered else "pass"
    return PropertyReport("cobounded", verdict, horizon, uncovered)


def compute_contact_set(
    action: ActionOracle, B: CellSet, horizon: int, translates: Optional[Translates] = None
) -> PropertyReport:
    """The set {m : d(B, mB) = 0} over the horizon ball, with the least
    positive separation seen (which feeds the constant r downstream).
    `translates` is as in check_cobounded."""
    oracle = action.monoid
    gamma: GammaOracle = action.space
    translates = Translates(oracle, B) if translates is None else translates
    contact = []
    min_positive: Optional[ExtNonNeg] = None
    separations = {}
    for m in oracle.elements_up_to(horizon):
        d = gamma.set_distance(B, translates[m], horizon)
        if not d.is_known:
            raise HorizonTooSmall(f"d(B, {format_word(m)}B) not known at horizon {horizon}")
        separations[m] = d.value
        if d.value == ZERO:
            contact.append(m)
        elif not d.value.is_infinite:
            if min_positive is None or d.value < min_positive:
                min_positive = d.value
    return PropertyReport(
        "contact_set",
        "holds_at_horizon",
        horizon,
        [],
        artifacts={
            "contact_set": [format_word(m) for m in contact],
            "contact_elements": contact,
            "separations": separations,
            "min_positive_separation": min_positive if min_positive is not None else INF,
        },
    )


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
