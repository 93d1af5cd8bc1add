"""Semimetric spaces and sample checkers of their axioms and quasi-metricity.

Checkers take finite samples and report violations with both sides of every
inequality evaluated exactly; they never prove universal statements.  All
distances consumed here must be exactly known, otherwise HorizonTooSmall is
raised so the caller can retry with a larger horizon.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from itertools import compress
from typing import Optional, Sequence

from .errors import HorizonTooSmall
from .extnum import INF, ZERO, ExtNonNeg, Frozen, TruncatedDistance, nonneg_fraction
from .monoids import MonoidOracle, Word, format_word


class SemimetricSpace:
    """Oracle interface: a distance.  Points are equal when they compare equal
    with ``==``, and must hash alike then."""

    def distance(self, p, q) -> TruncatedDistance:
        raise NotImplementedError

    def known_distance(self, p, q) -> ExtNonNeg:
        d = self.distance(p, q)
        if not d.is_known:
            raise self._unknown(p, q, d.value)
        return d.value

    def _unknown(self, p, q, bound) -> HorizonTooSmall:
        """The error for a d(p, q) only known to exceed ``bound``."""
        return HorizonTooSmall(f"d({self.format_point(p)}, {self.format_point(q)}) only known to exceed {bound}")

    def distance_rows(self, sample: Sequence) -> tuple[list[list[int]], int, int]:
        """d on the sample as exact ints: (rows, scale, inf) with
        rows[i][j] = scale * d(sample[i], sample[j]), and the int inf, above
        any sum of two finite entries, standing for infinity.

        Raises HorizonTooSmall at the first pair, in row-major order, whose
        distance is not known.
        """
        raise NotImplementedError

    @staticmethod
    def _with_sentinel(rows: list[list[Optional[int]]], scale: int) -> tuple[list[list[int]], int, int]:
        """(rows, scale, inf) with None, for infinity, replaced by 2*max + 1."""
        inf = 2 * max((v for row in rows for v in row if v is not None), default=0) + 1
        return [[inf if v is None else v for v in row] for row in rows], scale, inf

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

    def distance_rows(self, sample: Sequence[Word]) -> tuple[list[list[int]], int, int]:
        """The rows over scale 1, since word distances are whole."""
        from .cayley import word_distance

        oracle, horizon = self.oracle, self.horizon
        rows = []
        for p in sample:
            row = []
            for q in sample:
                d = word_distance(oracle, p, q, horizon)
                if not d.is_known:
                    raise self._unknown(p, q, d.value)
                v = d.value.frac
                row.append(None if v is None else v.numerator)
            rows.append(row)
        return self._with_sentinel(rows, 1)

    def format_point(self, p: Word) -> str:
        return format_word(p)


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------


class Violation(Frozen):
    __slots__ = ("points", "inequality", "lhs", "rhs")

    def __init__(self, points: tuple, inequality: str, lhs: ExtNonNeg, rhs: ExtNonNeg):
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "inequality", inequality)
        object.__setattr__(self, "lhs", lhs)
        object.__setattr__(self, "rhs", rhs)

    def to_json(self) -> dict:
        return {
            "points": [str(p) for p in self.points],
            "inequality": self.inequality,
            "lhs": self.lhs.to_json(),
            "rhs": self.rhs.to_json(),
        }


class ViolationReport:
    def __init__(self, check: str, violations: Optional[list[Violation]] = None):
        self.check = check
        self.violations = [] if violations is None else violations

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


def check_axioms(space: SemimetricSpace, sample: Sequence) -> ViolationReport:
    """Axiom (i) on all pairs and the triangle inequality on all triples.

    Both read one exact table, ``space.distance_rows``: ints D over one
    denominator, with infinity a sentinel above any sum of two finite D.  So
    with d(x,y) finite, z fails exactly when D(x,z) - D(y,z) > D(x,y).  No z
    with d(y,z) infinite fails, since the sentinel is at least D(x,z); so the
    pass runs over the finite support of each row.  ExtNonNeg values are
    built for violations only.
    """
    sample = list(sample)
    rows, scale, inf = space.distance_rows(sample)

    def ext(v: int) -> ExtNonNeg:
        return INF if v == inf else ExtNonNeg(Fraction(v, scale))

    violations = []
    n = len(sample)
    # Axiom (i): each point is numbered by its first occurrence, so a row
    # passes when its zeros are exactly where its point's number recurs.
    first: dict = {}
    ids = [first.setdefault(p, k) for k, p in enumerate(sample)]
    for p, row, c in zip(sample, rows, ids):
        same = list(map(c.__eq__, ids))
        if list(map((0).__eq__, row)) == same:
            continue
        for q, dpq, equal in zip(sample, row, same):
            if (dpq == 0) != equal:
                violations.append(
                    Violation(
                        points=(space.format_point(p), space.format_point(q)),
                        inequality="d(x,y) = 0 iff x = y",
                        lhs=ext(dpq),
                        rhs=ZERO if equal else ext(dpq),
                    )
                )
    # support[y]: the z with d(y,z) finite, and finite[y] those d(y,z).
    support = [list(compress(range(n), map(inf.__ne__, row))) for row in rows]
    finite = [list(compress(row, map(inf.__ne__, row))) for row in rows]
    for i, row_x in enumerate(rows):
        at_x = row_x.__getitem__
        for j in support[i]:
            dij = row_x[j]
            # An infinite d(x,y) bounds every sum, so y runs over x's support.
            # One C-level pass over y's support clears the pair; only a
            # failing row is rescanned in z order.
            if max(map(operator.sub, map(at_x, support[j]), finite[j]), default=0) <= dij:
                continue
            row_y = rows[j]
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
                            lhs=ext(row_x[k]),
                            rhs=ext(dij + row_y[k]),
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
