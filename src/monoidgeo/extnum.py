"""Exact arithmetic over the nonnegative rationals with infinity adjoined.

Every distance produced by this package lives in this codomain, so all
comparisons are exact and zero-tolerance.  ``TruncatedDistance`` layers
horizon semantics on top: a value can be exactly known (finite or certified
infinite) or only known to exceed a finite bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Union

from .errors import UndefinedProduct

Rational = Union[int, Fraction]


def nonneg_fraction(x: Rational | str) -> Fraction:
    f = Fraction(x)
    if f < 0:
        raise ValueError(f"expected a nonnegative rational, got {f}")
    return f


@dataclass(frozen=True)
class ExtNonNeg:
    """A value in Q>=0 with infinity adjoined.  ``None`` encodes infinity."""

    frac: Fraction | None

    def __post_init__(self):
        if self.frac is not None:
            if not isinstance(self.frac, Fraction):
                object.__setattr__(self, "frac", Fraction(self.frac))
            if self.frac < 0:
                raise ValueError(f"negative value {self.frac} not allowed")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def of(x: Rational | str) -> "ExtNonNeg":
        # __post_init__ re-validates, so skip the extra conversion pass.
        return ExtNonNeg(x if isinstance(x, Fraction) else Fraction(x))

    @staticmethod
    def finite(num: int, den: int = 1) -> "ExtNonNeg":
        return ExtNonNeg(nonneg_fraction(Fraction(num, den)))

    # -- predicates / accessors -------------------------------------------

    @property
    def is_infinite(self) -> bool:
        return self.frac is None

    @property
    def is_finite(self) -> bool:
        return self.frac is not None

    def finite_value(self) -> Fraction:
        if self.frac is None:
            raise ValueError("infinite value has no finite part")
        return self.frac

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other: "ExtNonNeg | Rational") -> "ExtNonNeg":
        other = _coerce(other)
        if self.frac is None or other.frac is None:
            return INF
        return ExtNonNeg(self.frac + other.frac)

    __radd__ = __add__

    def scale(self, c: Rational | Fraction) -> "ExtNonNeg":
        """c * self for a nonnegative rational scalar c; 0 * inf is undefined."""
        c = nonneg_fraction(c)
        if self.frac is None:
            if c == 0:
                raise UndefinedProduct("0 * infinity is undefined")
            return INF
        return ExtNonNeg(c * self.frac)

    # -- total order -------------------------------------------------------

    def compare(self, other: "ExtNonNeg | Rational") -> int:
        other = _coerce(other)
        if self.frac is None and other.frac is None:
            return 0
        if self.frac is None:
            return 1
        if other.frac is None:
            return -1
        return (self.frac > other.frac) - (self.frac < other.frac)

    def __lt__(self, other):
        return self.compare(other) < 0

    def __le__(self, other):
        return self.compare(other) <= 0

    def __gt__(self, other):
        return self.compare(other) > 0

    def __ge__(self, other):
        return self.compare(other) >= 0

    # -- serialization -----------------------------------------------------

    def to_json(self) -> dict:
        if self.frac is None:
            return {"kind": "infinite"}
        return {"kind": "exact", "num": self.frac.numerator, "den": self.frac.denominator}

    def __str__(self) -> str:
        return "inf" if self.frac is None else str(self.frac)


INF = ExtNonNeg(None)
ZERO = ExtNonNeg(Fraction(0))


def _coerce(x) -> ExtNonNeg:
    if isinstance(x, ExtNonNeg):
        return x
    return ExtNonNeg.of(x)


def ext_min(values: Iterable[ExtNonNeg]) -> ExtNonNeg:
    """Minimum, with the empty minimum being infinity (inf of the empty set)."""
    best = INF
    for v in values:
        if v < best:
            best = v
    return best


def ext_max(values: Iterable[ExtNonNeg]) -> ExtNonNeg:
    best = ZERO
    for v in values:
        if v > best:
            best = v
    return best


@dataclass(frozen=True)
class TruncatedDistance:
    """A distance answer under a computation horizon.

    ``known`` carries an exact value (finite or certified infinite);
    ``unknown_above`` asserts only that the true distance is strictly greater
    than the (finite) bound, finiteness undecided.  The two are never
    conflated: infinity is a definite value, not missing knowledge.
    """

    kind: str  # "known" | "unknown_above"
    value: ExtNonNeg

    def __post_init__(self):
        if self.kind not in ("known", "unknown_above"):
            raise ValueError(f"bad kind {self.kind!r}")
        if self.kind == "unknown_above" and self.value.is_infinite:
            raise ValueError("unknown_above bound must be finite")

    @staticmethod
    def known(v: ExtNonNeg | Rational) -> "TruncatedDistance":
        return TruncatedDistance("known", _coerce(v))

    @staticmethod
    def unknown_above(bound: ExtNonNeg | Rational) -> "TruncatedDistance":
        return TruncatedDistance("unknown_above", _coerce(bound))

    @property
    def is_known(self) -> bool:
        return self.kind == "known"

    def plus(self, other: "TruncatedDistance | ExtNonNeg | Rational") -> "TruncatedDistance":
        if not isinstance(other, TruncatedDistance):
            other = TruncatedDistance.known(_coerce(other))
        a, b = self, other
        # An exactly-infinite summand dominates even an unknown one.
        if (a.is_known and a.value.is_infinite) or (b.is_known and b.value.is_infinite):
            return TruncatedDistance.known(INF)
        if a.is_known and b.is_known:
            return TruncatedDistance.known(a.value + b.value)
        return TruncatedDistance.unknown_above(a.value + b.value)

    def to_json(self) -> dict:
        if self.kind == "known":
            return self.value.to_json()
        f = self.value.finite_value()
        return {"kind": "unknown_above", "num": f.numerator, "den": f.denominator}

    def __str__(self) -> str:
        if self.kind == "known":
            return str(self.value)
        return f">{self.value}"


def truncated_min(items: Iterable[TruncatedDistance]) -> TruncatedDistance:
    """Minimum over horizon-aware distances.

    The result is exact when some known value is <= every unknown branch's
    certified bound; otherwise only a bound survives.  Never over-claims
    exactness.
    """
    items = list(items)
    if not items:
        return TruncatedDistance.known(INF)
    known = [it.value for it in items if it.is_known]
    unknown_bounds = [it.value for it in items if not it.is_known]
    if known:
        vmin = ext_min(known)
        if all(vmin <= b for b in unknown_bounds):
            return TruncatedDistance.known(vmin)
    bound = ext_min(unknown_bounds)
    return TruncatedDistance.unknown_above(bound)
