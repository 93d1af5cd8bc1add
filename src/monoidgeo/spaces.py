"""Semimetric spaces and sample checkers of their axioms and quasi-metricity.

Checkers take finite samples and report violations with both sides of every
inequality evaluated exactly; they never prove universal statements.  All
distances consumed here must be exactly known, otherwise HorizonTooSmall is
raised so the caller can retry with a larger horizon.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .errors import HorizonTooSmall
from .extnum import INF, ZERO, ExtNonNeg, TruncatedDistance, nonneg_fraction
from .monoids import MonoidOracle, Word, format_word


class SemimetricSpace:
    """Oracle interface: a distance and point equality."""

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

    def format_point(self, p) -> str:
        return str(p)


class WordMetricSpace(SemimetricSpace):
    """A finitely generated monoid under its directed word semimetric."""

    def __init__(self, oracle: MonoidOracle, horizon: int = 8):
        self.oracle = oracle
        self.horizon = horizon

    def distance(self, p: Word, q: Word) -> TruncatedDistance:
        from .cayley import word_distance

        return word_distance(self.oracle, p, q, self.horizon)

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


# ---------------------------------------------------------------------------
# Checkers
# ---------------------------------------------------------------------------


def _distance_table(space: SemimetricSpace, sample: Sequence) -> dict:
    table = {}
    for i, p in enumerate(sample):
        for j, q in enumerate(sample):
            table[i, j] = space.known_distance(p, q)
    return table


def _integer_rows(d: dict, n: int) -> tuple[list[list[int]], int]:
    """The table as rows of exact ints, and the int standing for infinity."""
    fracs = [v.frac for v in d.values() if v.is_finite]
    scale = math.lcm(*(f.denominator for f in fracs))
    inf = 2 * max((f.numerator * (scale // f.denominator) for f in fracs), default=0) + 1

    def scaled(v: ExtNonNeg) -> int:
        return inf if v.frac is None else v.frac.numerator * (scale // v.frac.denominator)

    return [[scaled(d[i, k]) for k in range(n)] for i in range(n)], inf


def check_axioms(space: SemimetricSpace, sample: Sequence) -> ViolationReport:
    """Axiom (i) on all pairs and the triangle inequality on all triples.

    The triangle check scales finite distances by the lcm of their denominators
    to ints D, and infinity to 2*max(D) + 1, above any sum of two finite D.  So
    with d(x,y) finite, z fails exactly when D(x,z) - D(y,z) > D(x,y).
    """
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
    rows, inf = _integer_rows(d, n)
    for i, row_x in enumerate(rows):
        for j, row_y in enumerate(rows):
            dij = row_x[j]
            # An infinite d(x,y) bounds every sum; otherwise one C-level pass
            # clears the row, and only a failing row is rescanned in z order.
            if dij == inf or max(map(operator.sub, row_x, row_y)) <= dij:
                continue
            for k in range(n):
                if row_x[k] - row_y[k] > dij:
                    violations.append(
                        Violation(
                            points=(
                                space.format_point(sample[i]),
                                space.format_point(sample[j]),
                                space.format_point(sample[k]),
                            ),
                            inequality="d(x,z) <= d(x,y) + d(y,z)",
                            lhs=d[i, k],
                            rhs=d[i, j] + d[j, k],
                        )
                    )
    return ViolationReport("axioms", violations)


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
