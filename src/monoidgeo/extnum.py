"""Exact arithmetic over the nonnegative rationals with infinity adjoined.

Every distance produced by this package lives in this codomain, so all
comparisons are exact and zero-tolerance.  ``TruncatedDistance`` layers
horizon semantics on top: a value can be exactly known (finite or certified
infinite) or only known to exceed a finite bound.
"""

from __future__ import annotations

from fractions import Fraction
from operator import attrgetter
from typing import Iterable, Union

from .errors import UndefinedProduct

Rational = Union[int, Fraction]


def nonneg_fraction(x: Rational | str) -> Fraction:
    f = Fraction(x)
    if f < 0:
        raise ValueError(f"expected a nonnegative rational, got {f}")
    return f


class Frozen:
    """Base of the immutable value types, which behave as frozen dataclasses.

    A subclass names its fields in ``__slots__``, after those of the value
    type it extends, and sets each once in ``__init__`` through
    ``object.__setattr__``.  An instance equals only an instance of its own
    class with equal fields, and hashes as the tuple of its fields.
    """

    __slots__ = ()

    def __init_subclass__(cls):
        cls._names = names = tuple(name for k in reversed(cls.__mro__) for name in vars(k).get("__slots__", ()))
        get = attrgetter(*names)  # the value of one name, a tuple of more
        cls._fields = (lambda self: (get(self),)) if len(names) == 1 else (lambda self: get(self))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._fields())

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot set or delete field {name!r} of an immutable {type(self).__name__}")

    __delattr__ = __setattr__

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._names, self._fields()))
        return f"{type(self).__name__}({fields})"


class ExtNonNeg(Frozen):
    """A value in Q>=0 with infinity adjoined.  ``None`` encodes infinity."""

    __slots__ = ("frac",)

    def __init__(self, frac: Fraction | None):
        if frac is not None:
            if not isinstance(frac, Fraction):
                frac = Fraction(frac)
            if frac < 0:
                raise ValueError(f"negative value {frac} not allowed")
        object.__setattr__(self, "frac", frac)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def of(x: Rational | str) -> "ExtNonNeg":
        # __init__ re-validates, so skip the extra conversion pass.
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


class TruncatedDistance(Frozen):
    """A distance answer under a computation horizon.

    ``known`` carries an exact value (finite or certified infinite);
    ``unknown_above`` asserts only that the true distance is strictly greater
    than the (finite) bound, finiteness undecided.  The two are never
    conflated: infinity is a definite value, not missing knowledge.
    """

    __slots__ = ("kind", "value")

    def __init__(self, kind: str, value: ExtNonNeg):  # kind: "known" | "unknown_above"
        if kind not in ("known", "unknown_above"):
            raise ValueError(f"bad kind {kind!r}")
        if kind == "unknown_above" and value.is_infinite:
            raise ValueError("unknown_above bound must be finite")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "value", value)

    @staticmethod
    def known(v: ExtNonNeg | Rational) -> "TruncatedDistance":
        return TruncatedDistance("known", _coerce(v))

    @staticmethod
    def unknown_above(bound: ExtNonNeg | Rational) -> "TruncatedDistance":
        return TruncatedDistance("unknown_above", _coerce(bound))

    @property
    def is_known(self) -> bool:
        return self.kind == "known"

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
