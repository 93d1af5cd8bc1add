"""Behavioral monoid oracles and algebraic side-condition checkers.

A monoid is given behaviorally: an ordered finite generator alphabet, an
identity, multiplication and a normal form.  Elements are encoded as their
canonical normal-form word over the alphabet (a tuple of generator names),
which makes equality and hashing canonical.  Universal properties are only
ever checked on word-length balls and reported as ``holds_at_horizon``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import islice
from operator import itemgetter
from typing import Callable, Optional, Sequence

from .errors import (
    InvalidLetter,
    NonTerminating,
    SpecParseError,
    SpecValidationError,
)

Word = tuple[str, ...]

EPSILON_DISPLAY = "ε"


def format_word(word: Word) -> str:
    return EPSILON_DISPLAY if not word else "".join(word)


def _tokenize(text: str, generators: Sequence[str], error: type) -> Word:
    """`text` split greedily into generator names, longest name first."""
    letters: list[str] = []
    by_len = sorted(generators, key=len, reverse=True)
    i = 0
    while i < len(text):
        g = next((g for g in by_len if text.startswith(g, i)), None)
        if g is None:
            raise error(f"cannot tokenize {text!r} at position {i} over {tuple(generators)}")
        letters.append(g)
        i += len(g)
    return tuple(letters)


class MonoidOracle:
    """Base oracle.  Subclasses must provide ``generators`` and ``normal_form``."""

    name: str = "monoid"
    generators: tuple[str, ...] = ()
    # The theorem that makes every element left-cancellable, if the class has one.
    cancellation_theorem: Optional[str] = None

    @property
    def identity(self) -> Word:
        return ()

    def normal_form(self, word: Sequence[str]) -> Word:
        raise NotImplementedError

    def multiply(self, u: Word, v: Word) -> Word:
        return self.normal_form(tuple(u) + tuple(v))

    # -- optional structural fast paths -----------------------------------

    def exact_quotient(self, x: Word, y: Word) -> Optional[Word]:
        """The structural fast path: a shortest word w with x*w = y, or None
        when y is not in xM, read off the normal forms at any length.  x and
        y must be normal forms, as for `word_distance`.

        The base class has none and returns NotImplemented; distances and
        witnesses then come from the distance field of x.
        """
        return NotImplemented

    def left_divisor_candidates(self, y: Word, radius: int) -> Optional[list[Word]]:
        """A finite superset of {x : d(x, y) <= radius}, when enumerable."""
        return None

    def in_ball_candidates(self, y: Word, radius: int, horizon: int) -> Optional[list[Word]]:
        """A finite superset of {x : d(x, y) <= radius}: the left-divisor
        candidates, else the whole monoid when the horizon ball exhausts it,
        else None."""
        candidates = self.left_divisor_candidates(y, radius)
        if candidates is None and self.ball_exhausted(horizon):
            candidates = self.elements_up_to(horizon)
        return candidates

    # -- distance fields and ball enumeration -----------------------------

    def __init__(self):
        # One BFS field per source and an intern table shared by the fields'
        # elements.  Every interned word is a normal form: a field's source
        # is normalized before it is interned, and its other elements are
        # products.  RewritingMonoid.multiply and FreeProductMonoid.multiply
        # rely on this.
        self._fields: dict[Word, DistanceField] = {}
        self._interned: dict[Word, Word] = {}

    def distance_field(self, source: Word) -> "DistanceField":
        """The lazily grown BFS field of right multiplication from `source`."""
        field = self._fields.get(source)
        if field is None:
            source = self.normal_form(source)
            source = self._interned.setdefault(source, source)
            field = self._fields.setdefault(source, DistanceField(self, source))
        return field

    def elements_up_to(self, n: int) -> list[Word]:
        """All elements at word distance <= n from the identity, BFS order."""
        return self.distance_field(self.identity).elements_up_to(n)

    def ball_exhausted(self, n: int) -> bool:
        """True when the ball of radius n is all of M (finite, saturated)."""
        field = self.distance_field(self.identity)
        field.grow(n)
        return field.empty_level is not None and field.empty_level <= n

    # -- word parsing ------------------------------------------------------

    def parse_word(self, text: str) -> Word:
        if text in ("", EPSILON_DISPLAY) or (text == "e" and "e" not in self.generators):
            return ()
        return self.normal_form(_tokenize(text, self.generators, InvalidLetter))

    def check_letters(self, word: Sequence[str]) -> None:
        for letter in word:
            if letter not in self.generators:
                raise InvalidLetter(f"unknown generator {letter!r}")


class DistanceField:
    """Breadth-first search over right multiplication by the generators from
    one source element, grown lazily and only in whole levels.

    ``reached`` maps every element found so far to (depth, parent, letter),
    where parent*letter is the first product in BFS order that reached it;
    its insertion order is BFS order.  ``sizes[d]`` counts the elements at
    depth <= d, and ``empty_level`` is the first depth found empty, once the
    reachable set is exhausted.
    """

    def __init__(self, oracle: MonoidOracle, source: Word):
        self.oracle = oracle
        self.reached: dict[Word, tuple] = {source: (0, None, None)}
        self.frontier = [source]
        self.sizes = [1]
        self.empty_level: Optional[int] = None

    def grow(self, depth: int, target: Optional[Word] = None) -> None:
        """Add levels until level `depth` is built, `target` is reached or
        the reachable set is exhausted."""
        oracle, reached = self.oracle, self.reached
        while len(self.sizes) <= depth and self.empty_level is None and target not in reached:
            level = len(self.sizes)
            frontier = []
            for m in self.frontier:
                for s in oracle.generators:
                    p = oracle.multiply(m, (s,))
                    if p not in reached:
                        p = oracle._interned.setdefault(p, p)
                        reached[p] = (level, m, s)
                        frontier.append(p)
            if frontier:
                self.frontier = frontier
                self.sizes.append(len(reached))
            else:
                self.empty_level = level

    def depth(self, m: Word, horizon: int) -> Optional[int]:
        """d(source, m) when it is at most `horizon`, else None."""
        hit = self.reached.get(m)
        if hit is None:  # grow() would return at once for a reached m
            self.grow(horizon, m)
            hit = self.reached.get(m)
        return hit[0] if hit is not None and hit[0] <= horizon else None

    def elements_up_to(self, n: int) -> list[Word]:
        """The elements at depth <= n, BFS order."""
        self.grow(n)
        count = self.sizes[min(n, len(self.sizes) - 1)] if n >= 0 else 0
        return list(islice(self.reached, count))

    def word_to(self, m: Word) -> Word:
        """The letters of the parent chain from the source to a reached m."""
        letters = []
        _, parent, letter = self.reached[m]
        while parent is not None:
            letters.append(letter)
            _, parent, letter = self.reached[parent]
        return tuple(reversed(letters))


class FreeMonoid(MonoidOracle):
    """Free monoid on an ordered alphabet; normal form is the word itself."""

    cancellation_theorem = "free monoid: the normal form is the word, so m*a = m*b forces a = b"

    def __init__(self, rank: int, alphabet: Optional[Sequence[str]] = None):
        if rank < 0:
            raise SpecValidationError("free monoid rank must be >= 0")
        if alphabet is None:
            alphabet = [f"f{i+1}" for i in range(rank)]
        if len(alphabet) != rank or len(set(alphabet)) != rank:
            raise SpecValidationError("alphabet must list `rank` distinct letters")
        self.name = f"free{rank}"
        self.generators = tuple(alphabet)
        super().__init__()

    def normal_form(self, word: Sequence[str]) -> Word:
        self.check_letters(word)
        return tuple(word)

    def exact_quotient(self, x: Word, y: Word) -> Optional[Word]:
        if len(x) <= len(y) and y[: len(x)] == x:
            return y[len(x):]
        return None

    def left_divisor_candidates(self, y: Word, radius: int) -> list[Word]:
        return [y[:i] for i in range(len(y) + 1)]


class TableMonoid(MonoidOracle):
    """Finite monoid given by a full multiplication table on named elements.

    Canonical encodings are shortest generator words found by BFS from the
    identity; every element must be reachable from the chosen generators.
    """

    def __init__(
        self,
        elements: Sequence[str],
        table: Sequence[Sequence[int]],
        identity: str | int = 0,
        generators: Optional[Sequence[str]] = None,
        name: str = "table",
    ):
        self.name = name
        self.element_names = tuple(elements)
        n = len(self.element_names)
        if len(set(self.element_names)) != n or n == 0:
            raise SpecValidationError("element names must be distinct and nonempty")
        self.table = [tuple(row) for row in table]
        if len(self.table) != n or any(len(row) != n for row in self.table):
            raise SpecValidationError("table must be n x n")
        for row in self.table:
            for v in row:
                if not (0 <= v < n):
                    raise SpecValidationError(f"table entry {v} out of range")
        if isinstance(identity, str) and identity not in self.element_names:
            raise SpecValidationError(f"identity {identity!r} is not an element")
        self.identity_idx = elements.index(identity) if isinstance(identity, str) else identity
        e = self.identity_idx
        if not (0 <= e < n):
            raise SpecValidationError(f"identity index {e} out of range")
        for i in range(n):
            if self.table[e][i] != i or self.table[i][e] != i:
                raise SpecValidationError(f"{self.element_names[e]!r} is not a two-sided identity")
        # Row (ij)k against row i(jk) for each (i, j): all n^3 triples, with
        # k scanned only to name the first failure.  Row i(jk) is row i read
        # at the entries of row j, one itemgetter call; a one-element table
        # is associative, and its itemgetter would return a bare entry.
        reads = [itemgetter(*row) for row in self.table] if n > 1 else []
        for i, row_i in enumerate(self.table):
            for j, (row_j, read) in enumerate(zip(self.table, reads)):
                left = self.table[row_i[j]]
                if left != read(row_i):
                    k = next(k for k in range(n) if left[k] != row_i[row_j[k]])
                    raise SpecValidationError(
                        "multiplication table is not associative at "
                        f"({self.element_names[i]},{self.element_names[j]},{self.element_names[k]})"
                    )
        if generators is None:
            generators = [x for i, x in enumerate(self.element_names) if i != e]
        for g in generators:
            if g not in self.element_names:
                raise SpecValidationError(f"generator {g!r} is not an element")
        self.generators = tuple(generators)
        self._gen_idx = {g: self.element_names.index(g) for g in self.generators}
        # BFS from the identity over right multiplication assigns each
        # reachable index its canonical (shortest, alphabet-ordered) word.
        canon: dict[int, Word] = {e: ()}
        queue = deque([e])
        while queue:
            i = queue.popleft()
            for g in self.generators:
                j = self.table[i][self._gen_idx[g]]
                if j not in canon:
                    canon[j] = canon[i] + (g,)
                    queue.append(j)
        if len(canon) != n:
            missing = [x for i, x in enumerate(self.element_names) if i not in canon]
            raise SpecValidationError(f"elements not generated by {self.generators}: {missing}")
        self._canon = canon
        self._canon_index = {w: i for i, w in canon.items()}
        super().__init__()

    def index_of(self, word: Word) -> int:
        i = self.identity_idx
        for g in word:
            if g not in self._gen_idx:
                raise InvalidLetter(f"unknown generator {g!r}")
            i = self.table[i][self._gen_idx[g]]
        return i

    def normal_form(self, word: Sequence[str]) -> Word:
        return self._canon[self.index_of(tuple(word))]

    def multiply(self, u: Word, v: Word) -> Word:
        i, j = self._canon_index.get(u), self._canon_index.get(v)
        if i is None or j is None:  # not canonical words: walk the letters
            return super().multiply(u, v)
        return self._canon[self.table[i][j]]

    def left_divisor_candidates(self, y: Word, radius: int) -> list[Word]:
        return list(self._canon.values())


class FiniteGroup(TableMonoid):
    """A TableMonoid that additionally verifies the inverse law."""

    cancellation_theorem = "group: m*a = m*b gives a = b on multiplying by m's inverse (checked at load)"

    def __init__(self, elements, table, identity=0, generators=None, name="group"):
        super().__init__(elements, table, identity=identity, generators=generators, name=name)
        n = len(self.element_names)
        e = self.identity_idx
        inverse = {}
        for i in range(n):
            inv = [j for j in range(n) if self.table[i][j] == e and self.table[j][i] == e]
            if not inv:
                raise SpecValidationError(f"{self.element_names[i]!r} has no inverse; not a group")
            inverse[i] = inv[0]
        self.inverse_idx = inverse


class FreeProductMonoid(MonoidOracle):
    """Free product of a free monoid and a finite group.

    Generating set: the free letters together with the non-identity group
    elements, so that every right unit sits at distance 1 in both directions.
    By the normal form theorem for free products, the normal form
    g0 x1 g1 ... xn gn with identity g's left out is the unique reduced
    word, so the arithmetic runs on it directly: a product folds the two
    group letters where the words meet, and a quotient is a prefix test.
    """

    cancellation_theorem = "normal form theorem for free products (Lyndon & Schupp, ch. IV)"

    def __init__(self, free_rank: int, group: FiniteGroup, free_alphabet: Optional[Sequence[str]] = None):
        if free_rank < 1:
            raise SpecValidationError("free product requires free rank >= 1")
        if free_alphabet is None:
            free_alphabet = [f"f{i+1}" for i in range(free_rank)] if free_rank > 1 else ["f"]
        if len(free_alphabet) != free_rank:
            raise SpecValidationError("free alphabet must list free_rank letters")
        self.group = group
        self.free_letters = tuple(free_alphabet)
        e = group.element_names[group.identity_idx]
        self.group_identity = e
        group_gens = tuple(x for x in group.element_names if x != e)
        overlap = set(self.free_letters) & set(group.element_names)
        if overlap:
            raise SpecValidationError(f"free letters clash with group element names: {sorted(overlap)}")
        self.name = f"free{free_rank}*{group.name}"
        self.generators = self.free_letters + group_gens
        # g·h and g⁻¹·h by element name, each as a word: the identity is ().
        names, table = group.element_names, group.table
        as_word = [() if i == group.identity_idx else (x,) for i, x in enumerate(names)]
        pairs = [(i, g, j, h) for i, g in enumerate(names) for j, h in enumerate(names)]
        self._times = {(g, h): as_word[table[i][j]] for i, g, j, h in pairs}
        self._over = {(g, h): as_word[table[group.inverse_idx[i]][j]] for i, g, j, h in pairs}
        super().__init__()

    def _split_last(self, w: Word) -> tuple[Word, str]:
        """(w without its last group letter, that letter or the identity)."""
        if w and w[-1] not in self.free_letters:
            return w[:-1], w[-1]
        return w, self.group_identity

    def _split_first(self, w: Word) -> tuple[str, Word]:
        """(the first group letter of w or the identity, w without it)."""
        if w and w[0] not in self.free_letters:
            return w[0], w[1:]
        return self.group_identity, w

    def normal_form(self, word: Sequence[str]) -> Word:
        out: list[str] = []
        for letter in word:
            if letter in self.free_letters:
                out.append(letter)
                continue
            g = out.pop() if out and out[-1] not in self.free_letters else self.group_identity
            gh = self._times.get((g, letter))
            if gh is None:
                raise InvalidLetter(f"unknown letter {letter!r}")
            out += gh
        return tuple(out)

    def multiply(self, u: Word, v: Word) -> Word:
        # Interned words are normal forms; any other argument is normalized.
        if u not in self._interned:
            u = self.normal_form(u)
        if v not in self._interned:
            v = self.normal_form(v)
        head, g = self._split_last(u)
        h, tail = self._split_first(v)
        return head + self._times[g, h] + tail

    # -- distance fast path ------------------------------------------------

    def exact_quotient(self, x: Word, y: Word) -> Optional[Word]:
        """The unique w with x*w = y, or None when y is not in x*M: x without
        its last group letter g must begin y, and w is g⁻¹h followed by the
        rest of y, where h is the group letter (or identity) that comes next."""
        head, g = self._split_last(x)
        if y[: len(head)] != head:
            return None
        h, tail = self._split_first(y[len(head):])
        return self._over[g, h] + tail

    def left_divisor_candidates(self, y: Word, radius: int) -> list[Word]:
        # y cut after each free letter, then each group element (e·g is g's word).
        e = self.group_identity
        cuts = [()] + [y[: i + 1] for i, x in enumerate(y) if x in self.free_letters]
        return sorted(cut + self._times[e, g] for cut in cuts for g in self.group.element_names)


class RewritingMonoid(MonoidOracle):
    """Monoid presented by a confluent, length-nonincreasing rewriting system.

    Normal forms come from leftmost rewriting with a step cap.  Each scan
    compares only the rules that start with the letter at hand, and resumes
    where a redex can first start: `reach` letters left of the last rewrite,
    or of the end of the left factor when `multiply` is given an interned
    (hence irreducible) one.  The class accepts any rule set; a spec's
    confluence is checked at load by its critical pairs (`from_spec_dict`).
    Optional ``fast_path`` tags ("bicyclic", "zero") read exact quotients,
    infinite distances included, off the normal forms of the two stock
    infinite fixtures.
    """

    def __init__(
        self,
        generators: Sequence[str],
        rules: Sequence[tuple[Sequence[str], Sequence[str]]],
        step_cap: int = 10_000,
        fast_path: Optional[str] = None,
        name: str = "rewriting",
    ):
        self.name = name
        self.generators = tuple(generators)
        if len(set(self.generators)) != len(self.generators):
            raise SpecValidationError("generators must be distinct")
        self.rules = [(tuple(lhs), tuple(rhs)) for lhs, rhs in rules]
        for lhs, rhs in self.rules:
            if not lhs:
                raise SpecValidationError("rule left-hand side must be nonempty")
            for letter in lhs + rhs:
                if letter not in self.generators:
                    raise SpecValidationError(f"rule uses unknown generator {letter!r}")
            if len(rhs) > len(lhs):
                raise SpecValidationError(f"rule {lhs}->{rhs} is length-increasing")
            if len(rhs) == len(lhs) and rhs >= lhs:
                raise SpecValidationError(f"length-preserving rule {lhs}->{rhs} needs a decreasing tie-break")
        self._reach = max((len(lhs) for lhs, _ in self.rules), default=1) - 1
        # The rules that can start at each letter, in rule order, as lists
        # compared against slices of the word being rewritten.
        self._rules_at: dict[str, list[tuple[list[str], Word]]] = {g: [] for g in self.generators}
        for lhs, rhs in self.rules:
            self._rules_at[lhs[0]].append((list(lhs), rhs))
        self.step_cap = step_cap
        if fast_path not in (None, "bicyclic", "zero"):
            raise SpecValidationError(f"unknown fast_path {fast_path!r}")
        # A tag's closed forms hold only for the stock presentation, so the
        # rules must be exactly it, read with the generators in tag order.
        if fast_path is not None and (
            len(self.generators) != 2 or set(self.rules) != _stock_rules(fast_path, *self.generators)
        ):
            expected = {"bicyclic": "pq -> ε over (p, q)", "zero": "az -> z, za -> z, zz -> z over (a, z)"}
            raise SpecValidationError(
                f"fast_path {fast_path!r} needs exactly the rules {expected[fast_path]}"
            )
        self.fast_path = fast_path
        super().__init__()

    def normal_form(self, word: Sequence[str]) -> Word:
        self.check_letters(word)
        return self._rewrite(list(word), 0)

    def multiply(self, u: Word, v: Word) -> Word:
        # An interned u is a normal form, so a redex starting more than
        # `reach` letters before its end would lie wholly inside it.
        word = [*u, *v]
        if tuple(u) in self._interned:
            self.check_letters(v)
            return self._rewrite(word, max(0, len(u) - self._reach))
        self.check_letters(word)
        return self._rewrite(word, 0)

    def _rewrite(self, w: list[str], i: int) -> Word:
        """Leftmost rewriting of `w`, in which no redex starts before i."""
        for _ in range(self.step_cap):
            redex = self._leftmost_redex(w, i)
            if redex is None:
                return tuple(w)
            i, j, rhs = redex
            w[i:j] = rhs
            # A rewrite at i changes nothing left of i, so no redex can start
            # before i - reach: the leftmost scan resumes there.
            i = max(0, i - self._reach)
        raise NonTerminating(f"rewriting did not stabilize within {self.step_cap} steps")

    def _leftmost_redex(self, w: list[str], i: int) -> Optional[tuple[int, int, Word]]:
        """(start, end, rhs) of the leftmost redex of `w` at or after i."""
        rules_at = self._rules_at
        for i in range(i, len(w)):
            for lhs, rhs in rules_at[w[i]]:
                j = i + len(lhs)
                if w[i:j] == lhs:
                    return i, j, rhs
        return None

    # Fast paths read the normal forms structurally: bicyclic normal forms
    # are q^a p^b (with generators ordered (p, q)); zero-monoid normal forms
    # are a^k or the zero letter (generators ordered (a, z)).

    def _bicyclic_exponents(self, w: Word) -> tuple[int, int]:
        p, q = self.generators
        a = 0
        while a < len(w) and w[a] == q:
            a += 1
        return a, len(w) - a

    def exact_quotient(self, x: Word, y: Word) -> Optional[Word]:
        if self.fast_path == "bicyclic":
            p, q = self.generators
            a, b = self._bicyclic_exponents(x)
            c, d = self._bicyclic_exponents(y)
            if c < a:
                return None
            if c == a:
                return (p,) * (d - b) if d >= b else (q,) * (b - d)
            return (q,) * (b + c - a) + (p,) * d
        if self.fast_path == "zero":
            a_, z = self.generators
            if x == (z,):
                return () if y == (z,) else None
            if y == (z,):
                return (z,)
            return (a_,) * (len(y) - len(x)) if len(y) >= len(x) else None
        return NotImplemented

    def left_divisor_candidates(self, y: Word, radius: int) -> Optional[list[Word]]:
        if self.fast_path == "bicyclic":
            p, q = self.generators
            c, d = self._bicyclic_exponents(y)
            out = []
            for a in range(c + 1):
                b_max = radius if a < c else d + radius
                for b in range(b_max + 1):
                    out.append((q,) * a + (p,) * b)
            return out
        if self.fast_path == "zero":
            a_, z = self.generators
            if y == (z,):
                return None  # everything reaches z; not enumerable
            return [(a_,) * j for j in range(len(y) + 1)]
        return None


def _stock_rules(fast_path: str, x: str, y: str) -> set[tuple[Word, Word]]:
    """The stock presentation of a fast_path tag over generators (x, y):
    bicyclic xy -> ε; zero xy -> y, yx -> y, yy -> y."""
    if fast_path == "bicyclic":
        return {((x, y), ())}
    return {((x, y), (y,)), ((y, x), (y,)), ((y, y), (y,))}


def _check_confluent(m: RewritingMonoid) -> None:
    """Raise SpecValidationError naming every critical pair of the rules
    whose two one-step results have different normal forms.  The rules
    terminate, so by Newman's lemma they are confluent exactly when none has."""
    unresolved: dict[tuple, str] = {}
    for l1, r1 in m.rules:
        for l2, r2 in m.rules:
            # l2 placed at each position k of l1 where the two agree: inside
            # l1, or overhanging its end.
            for k in range(len(l1)):
                if l1[k : k + len(l2)] != l2[: len(l1) - k]:
                    continue
                w = l1 + l2[len(l1) - k :]
                a = m.normal_form(r1 + w[len(l1) :])
                b = m.normal_form(w[:k] + r2 + w[k + len(l2) :])
                if a != b:
                    text = f"{format_word(w)}: {format_word(a)} ≠ {format_word(b)}"
                    unresolved.setdefault((w, frozenset((a, b))), text)
    if unresolved:
        raise SpecValidationError(
            "rewriting rules are not confluent; critical pairs (overlap: normal forms): "
            + "; ".join(unresolved.values())
        )


def bicyclic_monoid() -> RewritingMonoid:
    rules = sorted(_stock_rules("bicyclic", "p", "q"))
    return RewritingMonoid(["p", "q"], rules, fast_path="bicyclic", name="bicyclic")


def zero_monoid() -> RewritingMonoid:
    rules = sorted(_stock_rules("zero", "a", "z"))
    return RewritingMonoid(["a", "z"], rules, fast_path="zero", name="zero")


@dataclass
class SubmonoidSpec:
    """A submonoid given by a membership predicate."""

    membership: Callable[[Word], bool]
    name: str = "submonoid"


class SubmonoidOracle(MonoidOracle):
    """A submonoid of a parent oracle, enumerated by filtering parent balls.

    Word length is measured in the parent's generators; the submonoid's own
    generating set is exactly what the extraction pipeline discovers.
    """

    def __init__(self, parent: MonoidOracle, spec: SubmonoidSpec):
        self.parent = parent
        self.spec = spec
        self.name = f"{spec.name}<{parent.name}"
        self.generators = parent.generators
        # Same generators and products as the parent, so the same distance
        # fields and interned words: share them instead of a second copy.
        self._fields, self._interned = parent._fields, parent._interned

    def normal_form(self, word: Sequence[str]) -> Word:
        return self.parent.normal_form(word)

    def multiply(self, u: Word, v: Word) -> Word:
        return self.parent.multiply(u, v)

    def exact_quotient(self, x: Word, y: Word) -> Optional[Word]:
        return self.parent.exact_quotient(x, y)

    def contains(self, m: Word) -> bool:
        return self.spec.membership(m)

    def elements_up_to(self, n: int) -> list[Word]:
        return [m for m in self.parent.elements_up_to(n) if self.contains(m)]


def ends_in_group_identity_submonoid(monoid: FreeProductMonoid) -> SubmonoidSpec:
    """Elements of F*G whose normal form ends in a free letter or is empty,
    that is, whose last group part is the identity."""

    def member(m: Word) -> bool:
        return not m or m[-1] in monoid.free_letters

    return SubmonoidSpec(member, name="ends_in_e")


# ---------------------------------------------------------------------------
# Horizon-bounded property checkers
# ---------------------------------------------------------------------------


@dataclass
class Verdict:
    status: str  # "holds_at_horizon" | "fails"
    horizon: int
    witness: Optional[dict] = None

    @property
    def holds(self) -> bool:
        return self.status == "holds_at_horizon"

    def to_json(self) -> dict:
        doc = {"status": self.status, "horizon": self.horizon}
        if self.witness is not None:
            doc["witness"] = self.witness
        return doc


def check_cancellative(
    oracle: MonoidOracle, side: str, horizon: int, multipliers: Optional[Sequence[Word]] = None
) -> Verdict:
    """Search the horizon ball for a cancellation failure on the given side:
    some m of `multipliers` (default: the ball) and a != b in the ball with
    m*a = m*b (left) or a*m = b*m (right)."""
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    ball = oracle.elements_up_to(horizon)
    for m in ball if multipliers is None else multipliers:
        seen: dict[Word, Word] = {}
        for a in ball:
            prod = oracle.multiply(m, a) if side == "left" else oracle.multiply(a, m)
            if prod in seen and seen[prod] != a:
                b = seen[prod]
                w = {
                    "m": format_word(m),
                    "a": format_word(a),
                    "b": format_word(b),
                    "product": format_word(prod),
                    "side": side,
                }
                return Verdict("fails", horizon, w)
            seen[prod] = a
    return Verdict("holds_at_horizon", horizon)


def check_finite_geometric_type(oracle: MonoidOracle, horizon: int, threshold: int) -> Verdict:
    """Count solutions a of a*b = c over the ball; fail when a count reaches threshold."""
    ball = oracle.elements_up_to(horizon)
    ball_set = set(ball)
    solutions: dict[tuple[Word, Word], list[Word]] = {}
    for a in ball:
        for b in ball:
            c = oracle.multiply(a, b)
            if c in ball_set:
                solutions.setdefault((b, c), []).append(a)
    for (b, c), sols in solutions.items():
        if len(sols) >= threshold:
            w = {
                "b": format_word(b),
                "c": format_word(c),
                "count": len(sols),
                "solutions": [format_word(a) for a in sorted(sols)],
            }
            return Verdict("fails", horizon, w)
    return Verdict("holds_at_horizon", horizon)


def check_left_unitary(oracle: MonoidOracle, sub: SubmonoidSpec, horizon: int) -> Verdict:
    """Search for s in the submonoid and t outside it with s*t inside."""
    ball = oracle.elements_up_to(horizon)
    members = [m for m in ball if sub.membership(m)]
    non_members = [m for m in ball if not sub.membership(m)]
    if not sub.membership(oracle.identity):
        return Verdict("fails", horizon, {"reason": "identity not a member"})
    for s in members:
        for t in non_members:
            st = oracle.multiply(s, t)
            if sub.membership(st):
                w = {"s": format_word(s), "t": format_word(t), "st": format_word(st)}
                return Verdict("fails", horizon, w)
    return Verdict("holds_at_horizon", horizon)


# ---------------------------------------------------------------------------
# JSON monoid spec documents
# ---------------------------------------------------------------------------


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_list(v, item=lambda x: isinstance(x, str) and x != "") -> bool:
    return isinstance(v, (list, tuple)) and all(map(item, v))


def _is_side(v) -> bool:
    return isinstance(v, str) or _is_list(v)


# Spec key -> (type test, what its value must be).  Null stands for a left-out
# key only where the key is optional and has a default.
_SPEC_TYPES = {
    "rank": (_is_int, "an integer"),
    "free_rank": (_is_int, "an integer"),
    "step_cap": (_is_int, "an integer"),
    "identity": (lambda v: isinstance(v, str) or _is_int(v), "an element name or index"),
    "elements": (_is_list, "a list of nonempty strings"),
    "alphabet": (lambda v: v is None or _is_list(v), "a list of nonempty strings"),
    "generators": (lambda v: v is None or _is_list(v), "a list of nonempty strings"),
    "table": (lambda v: _is_list(v, lambda row: _is_list(row, _is_int)), "a list of rows of integers"),
    "rules": (
        lambda v: _is_list(v, lambda r: _is_list(r, _is_side) and len(r) == 2),
        "a list of [lhs, rhs] pairs, each side a string or a list of nonempty letters",
    ),
}


def from_spec_dict(doc: dict) -> MonoidOracle:
    """Build an oracle from a monoid spec document (see README for the schema)."""
    if not isinstance(doc, dict) or "type" not in doc:
        raise SpecParseError("monoid spec must be an object with a 'type' field")
    for key, (ok, what) in _SPEC_TYPES.items():
        if key in doc and not ok(doc[key]):
            raise SpecValidationError(f"{key!r} must be {what}")
    kind = doc["type"]
    if kind == "free":
        return FreeMonoid(doc["rank"], alphabet=doc.get("alphabet"))
    if kind == "finite_group":
        return FiniteGroup(
            doc["elements"],
            doc["table"],
            identity=doc.get("identity", 0),
            generators=doc.get("generators"),
        )
    if kind == "table":
        return TableMonoid(
            doc["elements"],
            doc["table"],
            identity=doc.get("identity", 0),
            generators=doc.get("generators"),
        )
    if kind == "free_product":
        group = from_spec_dict(doc["group"])
        if not isinstance(group, FiniteGroup):
            raise SpecValidationError("free_product 'group' must be a finite_group spec")
        return FreeProductMonoid(doc["free_rank"], group, free_alphabet=doc.get("alphabet"))
    if kind == "rewriting":
        if not doc.get("confluent", False):
            raise SpecValidationError("rewriting spec must assert confluence ('confluent': true)")
        if doc["generators"] is None:
            raise SpecValidationError("'generators' must be a list of nonempty strings")
        def side(t) -> Word:  # a plain string or a list of letters
            return _tokenize(t, doc["generators"], SpecParseError) if isinstance(t, str) else tuple(t)

        rules = [(side(lhs), side(rhs)) for lhs, rhs in doc["rules"]]
        m = RewritingMonoid(
            doc["generators"],
            rules,
            fast_path=doc.get("fast_path"),
            step_cap=doc.get("step_cap", 10_000),
        )
        _check_confluent(m)
        return m
    raise SpecParseError(f"unknown monoid spec type {kind!r}")
