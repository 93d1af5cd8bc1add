"""Test-side builders of small stock monoids (among them the bicyclic and
zero monoids, named after themselves), a copier of
records, the sample points of a cell set, and the translates of an
extraction's ball with the covering search that the generation walk once
made over them and the claim loops that extraction once ran on them.  Also
a general monoid action with the pair-by-pair samplers that `check action`
once ran on it, the references for the action decisions in
``monoidgeo.actions``; the ball search that `check unitary` once ran; the
sum of two horizon-aware distances; and a space whose table is one
``known_distance`` per pair."""

import math
from fractions import Fraction
from typing import Callable

from monoidgeo import (
    INF,
    ZERO,
    BicyclicMonoid,
    EdgePoint,
    ExtNonNeg,
    FiniteGroup,
    HorizonTooSmall,
    PropertyReport,
    SemimetricSpace,
    SpecValidationError,
    SubmonoidOracle,
    TruncatedDistance,
    Vertex,
    ZeroMonoid,
    format_word,
    word_distance,
)
from monoidgeo.cayley import Translates


def replaced(record, **changes):
    """A copy of a record with the given fields changed, in the manner of
    ``dataclasses.replace``: the record's class is called again on all of its
    fields, so its constructor's checks run on the copy too."""
    return type(record)(**{**vars(record), **changes})


def sample_points(cells, offsets=(Fraction(1, 2),)) -> list:
    """Honest CayleyPoints in a cell set: its vertices, then the points of
    each segment at the given relative offsets that lie inside an edge."""
    points = [Vertex(v) for v in sorted(cells.vertices)]
    for seg in cells.segments:
        for off in sorted(set(offsets)):
            mu = seg.lo + (seg.hi - seg.lo) * off
            if 0 < mu < 1 and seg.lo <= mu <= seg.hi:
                points.append(EdgePoint(seg.element, seg.gen, mu))
    return points


def translates_of(inp, report):
    """The translates mB of the report's ball B under the acting monoid,
    each built on first use."""
    return Translates(inp.monoid, report.ball)


def covering_elements(inp, translates, x):
    """The candidates v·t⁻¹ of x's base vertex v, t⁻¹ = exact_quotient(t, ε)
    for each representative t in order, in M and with mB holding x: the
    translate search that the generation walk made before it covered each
    sample vertex by construction."""
    oracle, n, v = inp.monoid, inp.gamma.monoid, x.element
    for t in inp.representatives:
        m = v if t == n.identity else n.multiply(v, n.exact_quotient(t, n.identity))
        if (not isinstance(oracle, SubmonoidOracle) or oracle.contains(m)) and translates[m].contains(x):
            yield m


def q_translates(report) -> list:
    """The report's Q: its separated translates (m, d(B, mB)), in BFS order."""
    return [(m, sep) for m, sep in report.separations.items() if sep != ZERO]


def claim_loops(report, inp, separations):
    """(claim-1 witnesses, claim-2 witnesses, steps): the loops extraction ran
    before claims 1 and 2 became theorems, at the report's r and S.

    `separations` maps elements m to d(B, mB), in BFS order.  Claim 1 names
    each m of it at a separation strictly between 0 and r.  Claim 2 compares
    B with qB for each step q of the ball of radius ceil(2R + r) - 1, reading
    d(B, qB) off `separations` or taking it, and names each q outside S
    closer than r; every witness has m = e, as left translation carries the
    comparison to every m.  `steps` is the number of q compared."""
    oracle, r = inp.monoid, ExtNonNeg.of(report.r)
    c1 = [{"h": format_word(m), "d(B,hB)": sep} for m, sep in separations.items() if ZERO < sep < r]
    translates = translates_of(inp, report)
    steps = oracle.elements_up_to(math.ceil(2 * inp.radius + report.r) - 1)
    c2 = []
    for q in steps:
        sep = separations.get(q)
        if sep is None:
            d = inp.gamma.set_distance(report.ball, translates[q], inp.far)
            if not d.is_known:
                raise HorizonTooSmall(f"d(B, {format_word(q)}B) unknown")
            sep = d.value
        if sep < r and q not in report.generators:
            c2.append({"m": format_word(oracle.identity), "n": format_word(q), "d(mB,nB)": sep})
    return c1, c2, len(steps)


def bicyclic_monoid() -> BicyclicMonoid:
    """The bicyclic monoid <p, q | pq = ε>, with its closed forms."""
    return BicyclicMonoid("p", "q", name="bicyclic")


def zero_monoid() -> ZeroMonoid:
    """<a, z | az = za = zz = z>: z is a left and right zero, with its closed forms."""
    return ZeroMonoid("a", "z", name="zero")


def cyclic_group(n: int, gen: str = "g") -> FiniteGroup:
    """Z/n with the single generator `gen`; element names e, g, g2, ..."""
    if n < 1:
        raise SpecValidationError("cyclic group order must be >= 1")
    names = ["e"] + ([gen] if n > 1 else []) + [f"{gen}{k}" for k in range(2, n)]
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    gens = [gen] if n > 1 else []
    return FiniteGroup(names, table, identity="e", generators=gens, name=f"Z{n}")


def symmetric_group_3() -> FiniteGroup:
    """S3, non-abelian: r a 3-cycle and t a transposition of {0, 1, 2}, its
    elements named by the words e, r, rr, t, tr, trr (letters applied left
    to right)."""
    r, t = (1, 2, 0), (1, 0, 2)

    def then(p, q):  # p, then q
        return tuple(q[i] for i in p)

    perms = {"e": (0, 1, 2)}
    for name in ("r", "rr", "t", "tr", "trr"):
        perms[name] = then(perms[name[:-1] or "e"], {"r": r, "t": t}[name[-1]])
    names = list(perms)
    index = {p: i for i, p in enumerate(perms.values())}
    table = [[index[then(perms[a], perms[b])] for b in names] for a in names]
    return FiniteGroup(names, table, identity="e", generators=["r", "t"], name="S3")


# -- a general action and its samplers --------------------------------------


def apply_translation(oracle, m, p):
    """Left translation on the Cayley graph: vertices and edge offsets carry over."""
    if isinstance(p, Vertex):
        return Vertex(oracle.multiply(m, p.element))
    return EdgePoint(oracle.multiply(m, p.element), p.gen, p.mu)


class ActionOracle:
    """A monoid acting on a semimetric space."""

    def __init__(self, monoid, space, apply: Callable):
        self.monoid = monoid
        self.space = space  # duck-typed: known_distance / distance(p, q, horizon)
        self.apply = apply


def translation_action(gamma) -> ActionOracle:
    """The monoid of Gamma translating Gamma on the left."""
    oracle = gamma.monoid
    return ActionOracle(oracle, gamma, lambda m, p: apply_translation(oracle, m, p))


def sampled_action_laws(action, ms, points) -> PropertyReport:
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


def sampled_isometric_embedding(action, ms, points, horizon) -> PropertyReport:
    """d(mp, mq) = d(p, q) for all sampled m and point pairs; HorizonTooSmall
    when a distance is not known at the space's horizon."""
    witnesses = []
    space = action.space
    base = {}  # d(p, q), asked once, in the order d(mp, mq) is asked
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
                    witnesses.append({"m": format_word(m), "p": str(p), "q": str(q), "d(p,q)": d0, "d(mp,mq)": d1})
    verdict = "fail" if witnesses else "holds_at_horizon"
    return PropertyReport("isometric_embedding_action", verdict, horizon, witnesses)


def sampled_idealistic(action, x0, depth, horizon) -> PropertyReport:
    """Finite orbit distance d(m x0, n x0) must force n into mM, for m and n
    in the depth ball.  n in mM is one reachability query in the monoid.
    Both queries are asked at `horizon`; a pair that either leaves
    undecided is unresolved, and any unresolved pair makes the verdict
    unknown."""
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
                witnesses.append({"m": format_word(m), "n": format_word(n), "d(m x0, n x0)": d.value,
                                  "reason": "no u with m*u = n (search space exhausted)"})
            elif not reach.is_known:
                unresolved += 1
    verdict = "fail" if witnesses else "unknown" if unresolved else "holds_at_horizon"
    return PropertyReport("idealistic", verdict, depth, witnesses,
                          artifacts={"unresolved_pairs": unresolved, "basepoint": str(x0)})


# -- the left-unitary search ---------------------------------------------------


def sampled_left_unitary(oracle, contains, horizon) -> PropertyReport:
    """Search the horizon ball for s in the submonoid where `contains` holds
    and t outside it with s*t inside: the search `check unitary` ran before
    it read M's theorem."""
    ball = oracle.elements_up_to(horizon)
    members = [m for m in ball if contains(m)]
    non_members = [m for m in ball if not contains(m)]
    if not contains(oracle.identity):
        return PropertyReport("left_unitary", "fail", horizon, [{"reason": "identity not a member"}])
    for s in members:
        for t in non_members:
            st = oracle.multiply(s, t)
            if contains(st):
                w = {"s": format_word(s), "t": format_word(t), "st": format_word(st)}
                return PropertyReport("left_unitary", "fail", horizon, [w])
    return PropertyReport("left_unitary", "holds_at_horizon", horizon)


# -- horizon-aware sums and pairwise tables ------------------------------------


def truncated_plus(a: TruncatedDistance, b) -> TruncatedDistance:
    """a + b, b a TruncatedDistance or a known value.  An exactly infinite
    summand dominates even an unknown one; otherwise the sum is known only
    when both summands are."""
    if not isinstance(b, TruncatedDistance):
        b = TruncatedDistance.known(b)
    if (a.is_known and a.value.is_infinite) or (b.is_known and b.value.is_infinite):
        return TruncatedDistance.known(INF)
    if a.is_known and b.is_known:
        return TruncatedDistance.known(a.value + b.value)
    return TruncatedDistance.unknown_above(a.value + b.value)


class PairwiseSpace(SemimetricSpace):
    """A test space whose ``distance_rows`` asks ``known_distance`` once per
    pair, in row-major order, over the lcm of the distances' denominators."""

    def distance_rows(self, sample):
        table = [[self.known_distance(p, q).frac for q in sample] for p in sample]
        scale = math.lcm(*(f.denominator for row in table for f in row if f is not None))
        return self._with_sentinel(
            [[None if f is None else f.numerator * (scale // f.denominator) for f in row] for row in table], scale
        )
