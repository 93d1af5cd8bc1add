"""Free-product arithmetic on normal-form words against the alternating
forms it replaced.

The reference below is the former arithmetic of ``FreeProductMonoid``: an
element of F * G is parsed into its alternating form g0 x1 g1 ... xn gn,
group parts are multiplied by element name, and the form is written back
with identity parts left out.  The bodies are the old methods', with the
oracle passed as `m`, the group's name lookups as module functions and the
caches left out.  Every answer of the oracle must match it on every pair of
a ball, over a cyclic and a non-abelian group.
"""

from dataclasses import dataclass
from typing import Optional, Sequence

import pytest

from monoidgeo import (
    FreeProductMonoid,
    InvalidElement,
    InvalidLetter,
    SubmonoidOracle,
    Word,
)
from builders import cyclic_group, symmetric_group_3


def name_index(group, name: str) -> int:
    try:
        return group.element_names.index(name)
    except ValueError:
        raise InvalidElement(f"unknown element {name!r}") from None


def mult_names(group, a: str, b: str) -> str:
    return group.element_names[group.table[name_index(group, a)][name_index(group, b)]]


@dataclass(frozen=True)
class FreeProductElem:
    """Alternating form g0 x1 g1 ... xn gn of an element of F * G.

    ``group_parts`` has length n+1 (names of elements of G, identity
    allowed), ``free_parts`` has length n (free generator names).
    """

    group_parts: tuple[str, ...]
    free_parts: tuple[str, ...]

    def __post_init__(self):
        if len(self.group_parts) != len(self.free_parts) + 1:
            raise InvalidElement("alternating form must have one more group part than free parts")


def to_alternating(m: FreeProductMonoid, word: Sequence[str]) -> FreeProductElem:
    word = tuple(word)
    e = m.group_identity
    groups = [e]
    frees: list[str] = []
    for letter in word:
        if letter in m.free_letters:
            frees.append(letter)
            groups.append(e)
        elif letter in m.group.element_names:
            groups[-1] = mult_names(m.group, groups[-1], letter)
        else:
            raise InvalidLetter(f"unknown letter {letter!r}")
    return FreeProductElem(tuple(groups), tuple(frees))


def from_alternating(m: FreeProductMonoid, elem: FreeProductElem) -> Word:
    e = m.group_identity
    out: list[str] = []
    for i, x in enumerate(elem.free_parts):
        if elem.group_parts[i] != e:
            out.append(elem.group_parts[i])
        out.append(x)
    if elem.group_parts[-1] != e:
        out.append(elem.group_parts[-1])
    return tuple(out)


def normal_form(m: FreeProductMonoid, word: Sequence[str]) -> Word:
    return from_alternating(m, to_alternating(m, word))


def multiply(m: FreeProductMonoid, u: Word, v: Word) -> Word:
    a = to_alternating(m, u)
    b = to_alternating(m, v)
    join = mult_names(m.group, a.group_parts[-1], b.group_parts[0])
    groups = a.group_parts[:-1] + (join,) + b.group_parts[1:]
    frees = a.free_parts + b.free_parts
    return from_alternating(m, FreeProductElem(groups, frees))


def exact_quotient(m: FreeProductMonoid, x: Word, y: Word) -> Optional[Word]:
    """The unique w with x*w = y, or None when y is not in x*M."""
    a = to_alternating(m, x)
    b = to_alternating(m, y)
    k, n = len(a.free_parts), len(b.free_parts)
    if k > n:
        return None
    if a.free_parts != b.free_parts[:k]:
        return None
    if a.group_parts[:k] != b.group_parts[:k]:
        return None
    g = m.group
    inv_idx = g.inverse_idx[name_index(g, a.group_parts[k])]
    head = g.element_names[g.table[inv_idx][name_index(g, b.group_parts[k])]]
    groups = (head,) + b.group_parts[k + 1:]
    frees = b.free_parts[k:]
    return from_alternating(m, FreeProductElem(groups, frees))


def left_divisor_candidates(m: FreeProductMonoid, y: Word) -> list[Word]:
    b = to_alternating(m, y)
    out: list[Word] = []
    for cut in range(len(b.free_parts) + 1):
        for g in m.group.element_names:
            elem = FreeProductElem(b.group_parts[:cut] + (g,), b.free_parts[:cut])
            out.append(from_alternating(m, elem))
    return sorted(set(out))


def ends_in_group_identity(m: FreeProductMonoid, w: Word) -> bool:
    return to_alternating(m, w).group_parts[-1] == m.group_identity


# -- the oracle against the reference -----------------------------------------

ORACLES = {
    "F2*Z3": lambda: FreeProductMonoid(2, cyclic_group(3)),
    "F1*S3": lambda: FreeProductMonoid(1, symmetric_group_3()),
}


def _raw(m: FreeProductMonoid, w: Word) -> Word:
    """A word for the same element that is not a normal form: the identity
    letter first, and each group letter h written as r, r⁻¹h (which may be
    the identity letter) for a group generator r."""
    g = m.group
    r = g.generators[0]
    r_inv = g.inverse_idx[name_index(g, r)]
    out = [m.group_identity]
    for x in w:
        if x in m.free_letters:
            out.append(x)
        else:
            out += [r, g.element_names[g.table[r_inv][name_index(g, x)]]]
    return tuple(out)


@pytest.mark.parametrize("name", sorted(ORACLES))
def test_arithmetic_matches_the_alternating_forms(name):
    m = ORACLES[name]()
    ball = m.elements_up_to(4)
    member = SubmonoidOracle(m).contains
    for y in ball:
        ry = _raw(m, y)
        assert normal_form(m, ry) == m.normal_form(ry) == y, y
        assert m.left_divisor_candidates(y, 0) == left_divisor_candidates(m, y), y
        assert member(y) == ends_in_group_identity(m, y), y
        for x in ball:
            rx = _raw(m, x)
            xy = multiply(m, x, y)
            assert m.multiply(x, y) == xy, (x, y)
            assert m.multiply(rx, ry) == xy == multiply(m, rx, ry), (x, y)
            assert m.multiply(x, ry) == xy == m.multiply(rx, y), (x, y)
            assert m.normal_form(rx + ry) == xy, (x, y)
            assert m.exact_quotient(x, y) == exact_quotient(m, x, y), (x, y)
