"""Test-side builders of small stock monoids (among them the bicyclic and
zero monoids, which the CLI builds from spec documents), a copier of
records, the sample points of a cell set, and the translates of an
extraction's ball with the covering search that the generation walk once
made over them and the claim loops that extraction once ran on them."""

import math
from fractions import Fraction

from monoidgeo import (
    ZERO,
    EdgePoint,
    ExtNonNeg,
    FiniteGroup,
    HorizonTooSmall,
    RewritingMonoid,
    SpecValidationError,
    SubmonoidOracle,
    Vertex,
    format_word,
)
from monoidgeo.cayley import Translates
from monoidgeo.monoids import _stock_rules


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


def bicyclic_monoid() -> RewritingMonoid:
    """The bicyclic monoid <p, q | pq = ε>, with its fast path."""
    rules = sorted(_stock_rules("bicyclic", "p", "q"))
    return RewritingMonoid(["p", "q"], rules, fast_path="bicyclic", name="bicyclic")


def zero_monoid() -> RewritingMonoid:
    """<a, z | az = za = zz = z>: z is a left and right zero, with its fast path."""
    rules = sorted(_stock_rules("zero", "a", "z"))
    return RewritingMonoid(["a", "z"], rules, fast_path="zero", name="zero")


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
