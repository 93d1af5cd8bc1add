"""Semimetric spaces and checkable coarse-geometry definitions.

Checkers take finite samples and report violations with both sides of every
inequality evaluated exactly; they never prove universal statements.  All
distances consumed here must be exactly known, otherwise HorizonTooSmall is
raised so the caller can retry with a larger horizon.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .errors import HorizonTooSmall
from .extnum import INF, ZERO, ExtNonNeg, TruncatedDistance, ext_min, nonneg_fraction
from .monoids import MonoidOracle, Word, format_word


class SemimetricSpace:
    """Oracle interface: a distance, point equality, optional enumerators."""

    name: str = "space"

    def distance(self, p, q) -> TruncatedDistance:
        raise NotImplementedError

    def known_distance(self, p, q) -> ExtNonNeg:
        d = self.distance(p, q)
        if not d.is_known:
            raise HorizonTooSmall(
                f"d({self.format_point(p)}, {self.format_point(q)}) only known to exceed {d.value}"
            )
        return d.value

    def points_equal(self, p, q) -> bool:
        return p == q

    def enumerate_out(self, p, radius: int) -> Optional[list]:
        return None

    def enumerate_in(self, p, radius: int) -> Optional[list]:
        return None

    def format_point(self, p) -> str:
        return str(p)


class WordMetricSpace(SemimetricSpace):
    """A finitely generated monoid under its directed word semimetric."""

    def __init__(self, oracle: MonoidOracle, horizon: int = 8):
        self.oracle = oracle
        self.horizon = horizon
        self.name = f"word({oracle.name})"

    def distance(self, p: Word, q: Word) -> TruncatedDistance:
        from .cayley import word_distance

        return word_distance(self.oracle, p, q, self.horizon)

    def enumerate_out(self, p: Word, radius: int) -> list[Word]:
        return self.oracle.distance_field(p).elements_up_to(radius)

    def enumerate_in(self, p: Word, radius: int) -> Optional[list[Word]]:
        candidates = self.oracle.in_ball_candidates(p, radius, self.horizon)
        if candidates is None:
            return None
        result = []
        for m in candidates:
            d = self.distance(m, p)
            if d.is_known and not d.value.is_infinite and d.value <= ExtNonNeg.of(radius):
                result.append(m)
        return result

    def format_point(self, p: Word) -> str:
        return format_word(p)


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Violation:
    points: tuple
    inequality: str
    lhs: ExtNonNeg
    rhs: ExtNonNeg

    def to_json(self) -> dict:
        return {
            "points": [str(p) for p in self.points],
            "inequality": self.inequality,
            "lhs": self.lhs.to_json(),
            "rhs": self.rhs.to_json(),
        }


@dataclass
class ViolationReport:
    check: str
    violations: list[Violation] = field(default_factory=list)

    @property
    def verdict(self) -> str:
        return "pass" if not self.violations else "fail"

    @property
    def passed(self) -> bool:
        return not self.violations

    def to_json(self) -> dict:
        return {
            "check": self.check,
            "verdict": self.verdict,
            "violations": [v.to_json() for v in self.violations],
        }


@dataclass(frozen=True)
class QiParams:
    """Quasi-isometry constants with the stated ranges enforced."""

    lam: Fraction
    eps: Fraction
    mu: Fraction

    def __post_init__(self):
        if Fraction(self.lam) < 1:
            raise ValueError("lambda must be >= 1")
        if Fraction(self.eps) <= 0:
            raise ValueError("epsilon must be > 0")
        if Fraction(self.mu) < 1:
            raise ValueError("mu must be >= 1")


@dataclass(frozen=True)
class PathWitness:
    """Times strictly increasing from 0, each paired with a point."""

    steps: tuple

    def __post_init__(self):
        times = [t for t, _ in self.steps]
        if not times or times[0] != 0:
            raise ValueError("path witness must start at time 0")
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ValueError("path witness times must be strictly increasing")


# ---------------------------------------------------------------------------
# Checkers
# ---------------------------------------------------------------------------


def _distance_table(space: SemimetricSpace, sample: Sequence) -> dict:
    table = {}
    for i, p in enumerate(sample):
        for j, q in enumerate(sample):
            table[i, j] = space.known_distance(p, q)
    return table


def check_axioms(space: SemimetricSpace, sample: Sequence) -> ViolationReport:
    """Axiom (i) on all pairs and the triangle inequality on all triples."""
    sample = list(sample)
    d = _distance_table(space, sample)
    violations = []
    n = len(sample)
    for i in range(n):
        for j in range(n):
            equal = space.points_equal(sample[i], sample[j])
            zero = d[i, j] == ZERO
            if zero != equal:
                violations.append(
                    Violation(
                        points=(space.format_point(sample[i]), space.format_point(sample[j])),
                        inequality="d(x,y) = 0 iff x = y",
                        lhs=d[i, j],
                        rhs=ZERO if equal else d[i, j],
                    )
                )
    for i in range(n):
        for j in range(n):
            dij = d[i, j]
            for k in range(n):
                if d[i, k] > dij + d[j, k]:
                    violations.append(
                        Violation(
                            points=(
                                space.format_point(sample[i]),
                                space.format_point(sample[j]),
                                space.format_point(sample[k]),
                            ),
                            inequality="d(x,z) <= d(x,y) + d(y,z)",
                            lhs=d[i, k],
                            rhs=dij + d[j, k],
                        )
                    )
    return ViolationReport("axioms", violations)


def set_distance(space: SemimetricSpace, A: Iterable, B: Iterable) -> ExtNonNeg:
    """Minimum of d over A x B; the infimum over the empty set is infinite."""
    return ext_min(space.known_distance(a, b) for a in A for b in B)


def ball(space: SemimetricSpace, center, radius: ExtNonNeg | int, kind: str, horizon: int) -> list:
    """Exactly the points of the given ball, from the space's enumerators."""
    radius = radius if isinstance(radius, ExtNonNeg) else ExtNonNeg.of(radius)
    if radius.is_infinite:
        raise ValueError("ball radius must be finite")
    depth = int(radius.finite_value())
    if depth > horizon:
        raise HorizonTooSmall(f"radius {radius} exceeds horizon {horizon}")
    if kind == "out":
        candidates = space.enumerate_out(center, depth)
        if candidates is None:
            raise HorizonTooSmall(f"{space.name} does not support out-enumeration")
        return [p for p in candidates if space.known_distance(center, p) <= radius]
    if kind == "in":
        candidates = space.enumerate_in(center, depth)
        if candidates is None:
            raise HorizonTooSmall(f"{space.name} does not support in-enumeration")
        return [p for p in candidates if space.known_distance(p, center) <= radius]
    if kind == "strong":
        outs = ball(space, center, radius, "out", horizon)
        return [p for p in outs if space.known_distance(p, center) <= radius]
    raise ValueError(f"unknown ball kind {kind!r}")


def check_qi_embedding(
    pairs: Sequence[tuple],
    domain_space: SemimetricSpace,
    codomain_space: SemimetricSpace,
    lam: Fraction,
    eps: Fraction,
) -> ViolationReport:
    """Both quasi-isometric-embedding inequalities on every ordered pair.

    The lower bound (1/λ)d(x,y) − ε <= d(f(x),f(y)) is checked in the
    rearranged form d(x,y) <= λ·d(f(x),f(y)) + λ·ε, which is equivalent and
    avoids subtraction with infinities.
    """
    lam = Fraction(lam)
    eps = Fraction(eps)
    if lam < 1 or eps < 0:
        raise ValueError("need lambda >= 1 and epsilon >= 0")
    violations = []
    for (x, fx) in pairs:
        for (y, fy) in pairs:
            dxy = domain_space.known_distance(x, y)
            dff = codomain_space.known_distance(fx, fy)
            upper = dxy.scale(lam) + ExtNonNeg.of(eps) if not dxy.is_infinite else INF
            if dff > upper:
                violations.append(
                    Violation(
                        points=(domain_space.format_point(x), domain_space.format_point(y)),
                        inequality="d(f(x),f(y)) <= lambda*d(x,y) + eps",
                        lhs=dff,
                        rhs=upper,
                    )
                )
            lower_rhs = dff.scale(lam) + ExtNonNeg.of(lam * eps) if not dff.is_infinite else INF
            if dxy > lower_rhs:
                violations.append(
                    Violation(
                        points=(domain_space.format_point(x), domain_space.format_point(y)),
                        inequality="(1/lambda)*d(x,y) - eps <= d(f(x),f(y))",
                        lhs=dxy,
                        rhs=lower_rhs,
                    )
                )
    return ViolationReport("qi_embedding", violations)


def check_quasi_dense(
    space: SemimetricSpace, subset: Sequence, ambient_sample: Sequence, mu: Fraction
) -> ViolationReport:
    """Every ambient point lies in the strong mu-ball of some subset point."""
    mu = ExtNonNeg.of(nonneg_fraction(mu))
    violations = []
    for x in ambient_sample:
        covered = any(
            space.known_distance(s, x) <= mu and space.known_distance(x, s) <= mu
            for s in subset
        )
        if not covered:
            best = ext_min(
                max(space.known_distance(s, x), space.known_distance(x, s)) for s in subset
            )
            violations.append(
                Violation(
                    points=(space.format_point(x),),
                    inequality="x lies in the strong mu-ball of some subset point",
                    lhs=best,
                    rhs=mu,
                )
            )
    return ViolationReport("quasi_dense", violations)


def check_quasi_metric(
    space: SemimetricSpace, sample: Sequence, lam: Fraction, mu: Fraction
) -> ViolationReport:
    """The quasi-metricity inequality d(x,y) <= lam*d(y,x) + mu on all ordered pairs."""
    lam = nonneg_fraction(lam)
    mu_ext = ExtNonNeg.of(nonneg_fraction(mu))
    violations = []
    for x in sample:
        for y in sample:
            dxy = space.known_distance(x, y)
            dyx = space.known_distance(y, x)
            rhs = INF if dyx.is_infinite else dyx.scale(lam) + mu_ext
            if dxy > rhs:
                violations.append(
                    Violation(
                        points=(space.format_point(x), space.format_point(y)),
                        inequality="d(x,y) <= lambda*d(y,x) + mu",
                        lhs=dxy,
                        rhs=rhs,
                    )
                )
    return ViolationReport("quasi_metric", violations)


def validate_path_witness(space: SemimetricSpace, w: PathWitness) -> ViolationReport:
    """d(p_i, p_j) <= t_j - t_i for all i < j; geodesic when last time = d(ends)."""
    violations = []
    steps = list(w.steps)
    for i in range(len(steps)):
        ti, pi = steps[i]
        for j in range(i + 1, len(steps)):
            tj, pj = steps[j]
            bound = ExtNonNeg.of(Fraction(tj) - Fraction(ti))
            dij = space.known_distance(pi, pj)
            if dij > bound:
                violations.append(
                    Violation(
                        points=(space.format_point(pi), space.format_point(pj)),
                        inequality="d(p(a), p(b)) <= b - a",
                        lhs=dij,
                        rhs=bound,
                    )
                )
    report = ViolationReport("path_witness", violations)
    return report


def is_geodesic_witness(space: SemimetricSpace, w: PathWitness) -> bool:
    if not validate_path_witness(space, w).passed:
        return False
    t0, p0 = w.steps[0]
    tn, pn = w.steps[-1]
    return space.known_distance(p0, pn) == ExtNonNeg.of(Fraction(tn))
