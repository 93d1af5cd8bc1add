"""Field-backed word distances against the pairwise BFS they replaced.

``reference_bfs`` is the per-pair search that ``word_distance`` and
``shortest_word`` used to run for every query, and ``ReferenceBall`` the
level-list enumeration behind ``elements_up_to``, ``ball_exhausted`` and
the identity field's ``depth``.  Both are kept here verbatim as the
specification of the per-source distance fields: every answer, witness
word and ball must match them, whatever order the queries come in.
"""

import itertools
import json
import os

import pytest

from monoidgeo import (
    INF,
    ZERO,
    ExtNonNeg,
    FiniteGroup,
    FreeMonoid,
    FreeProductMonoid,
    NoPath,
    RewritingMonoid,
    SubmonoidOracle,
    TableMonoid,
    TruncatedDistance,
    bicyclic_monoid,
    ends_in_group_identity_submonoid,
    from_spec_dict,
    shortest_word,
    word_distance,
    zero_monoid,
)
from builders import cyclic_group

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def reference_bfs(oracle, x, y, horizon):
    """Returns (TruncatedDistance, witness word or None)."""
    if x == y:
        return TruncatedDistance.known(ZERO), ()
    fast = oracle.exact_quotient(x, y)
    if fast is not NotImplemented:
        if fast is None:
            return TruncatedDistance.known(INF), None
        return TruncatedDistance.known(ExtNonNeg.finite(len(fast))), fast
    parents = {}
    seen = {x}
    frontier = [x]
    for depth in range(1, horizon + 1):
        next_frontier = []
        for m in frontier:
            for s in oracle.generators:
                p = oracle.multiply(m, (s,))
                if p in seen:
                    continue
                seen.add(p)
                parents[p] = (m, s)
                if p == y:
                    word = []
                    cur = p
                    while cur != x:
                        cur, letter = parents[cur]
                        word.append(letter)
                    return TruncatedDistance.known(ExtNonNeg.finite(depth)), tuple(reversed(word))
                next_frontier.append(p)
        if not next_frontier:
            # Reachable set exhausted without meeting y: certified infinite.
            return TruncatedDistance.known(INF), None
        frontier = next_frontier
    return TruncatedDistance.unknown_above(ExtNonNeg.finite(horizon)), None


class ReferenceBall:
    """The level lists grown from the identity, as oracles kept them."""

    def __init__(self, oracle):
        self.oracle = oracle
        self._levels = [[oracle.identity]]
        self._seen = {oracle.identity}
        self._exhausted = False

    def _grow_to(self, n):
        while len(self._levels) <= n and not self._exhausted:
            frontier = self._levels[-1]
            new_level = []
            for m in frontier:
                for s in self.oracle.generators:
                    p = self.oracle.multiply(m, (s,))
                    if p not in self._seen:
                        self._seen.add(p)
                        new_level.append(p)
            if new_level:
                self._levels.append(new_level)
            else:
                self._exhausted = True

    def elements_up_to(self, n):
        self._grow_to(n)
        out = []
        for level in self._levels[: n + 1]:
            out.extend(level)
        return out

    def ball_exhausted(self, n):
        self._grow_to(n)
        return self._exhausted and len(self._levels) - 1 <= n

    def depth_of(self, m, horizon):
        self._grow_to(horizon)
        for depth, level in enumerate(self._levels[: horizon + 1]):
            if m in level:
                return depth
        return None


# -- oracles ----------------------------------------------------------------


class NoFastFreeProduct(FreeProductMonoid):
    def exact_quotient(self, x, y):
        return NotImplemented


def _compose(p, q):
    """The permutation i -> q[p[i]]: apply p, then q."""
    return tuple(q[i] for i in p)


def symmetric_group_5():
    """S5 as a finite_group table generated by a 5-cycle and a transposition."""
    a, b = (1, 2, 3, 4, 0), (1, 0, 2, 3, 4)
    order = [tuple(range(5))]
    for p in order:
        for g in (a, b):
            q = _compose(p, g)
            if q not in order:
                order.append(q)
    index = {p: i for i, p in enumerate(order)}
    names = ["e", "a", "b"] + [f"p{k}" for k in range(3, len(order))]
    table = [[index[_compose(p, q)] for q in order] for p in order]
    return FiniteGroup(names, table, identity="e", generators=["a", "b"], name="S5")


def _fixture(name):
    def build():
        with open(os.path.join(FIXTURES, name), encoding="utf-8") as fh:
            return from_spec_dict(json.load(fh))

    return build


# name -> (fresh oracle, deepest horizon asked, source depth, target depth)
ORACLES = {
    **{
        name[:-5]: (_fixture(name), 4, 1, 3)
        for name in sorted(os.listdir(FIXTURES))
        if name.endswith(".json")
    },
    "S5": (symmetric_group_5, 12, 1, 11),
    "Z5": (lambda: cyclic_group(5), 6, 4, 4),
    "F1*Z2 no fast path": (lambda: NoFastFreeProduct(1, cyclic_group(2)), 5, 2, 3),
    "bicyclic no fast path": (lambda: RewritingMonoid(["p", "q"], [(("p", "q"), ())]), 6, 2, 4),
    "zero no fast path": (
        lambda: RewritingMonoid(["a", "z"], [(("a", "z"), ("z",)), (("z", "a"), ("z",)), (("z", "z"), ("z",))]),
        5, 2, 4,
    ),
    "absorbing table": (
        lambda: TableMonoid(["e", "a", "z"], [[0, 1, 2], [1, 2, 2], [2, 2, 2]], generators=["a"]),
        4, 2, 2,
    ),
}


# The answers each field-backed oracle must give over its pairs and
# horizons, so the exhausted-infinite and truncated cases are exercised.
FIELD_OUTCOMES = {
    "S5": {"known", "unknown_above"},
    "F1*Z2 no fast path": {"known", "unknown_above"},
    "bicyclic no fast path": {"known", "unknown_above"},
    "zero no fast path": {"known", "infinite", "unknown_above"},
    "absorbing table": {"known", "infinite", "unknown_above"},
}


def _outcome(d):
    if not d.is_known:
        return "unknown_above"
    return "infinite" if d.value.is_infinite else "known"


def _pairs(name):
    build, _, source_depth, target_depth = ORACLES[name]
    ball = ReferenceBall(build())
    return list(itertools.product(ball.elements_up_to(source_depth), ball.elements_up_to(target_depth)))


@pytest.mark.parametrize("descending", [True, False], ids=["deep-first", "shallow-first"])
@pytest.mark.parametrize("name", sorted(ORACLES))
def test_field_answers_match_pairwise_bfs(name, descending):
    build, horizon, _, _ = ORACLES[name]
    oracle, plain = build(), build()
    pairs = _pairs(name)
    horizons = range(horizon, -1, -1) if descending else range(horizon + 1)
    outcomes = set()
    for h in horizons:
        for x, y in pairs:
            expected, witness = reference_bfs(plain, x, y, h)
            got = word_distance(oracle, x, y, h)
            assert got == expected, (x, y, h)
            if witness is None:
                with pytest.raises(NoPath):
                    shortest_word(oracle, x, y, h)
            else:
                assert shortest_word(oracle, x, y, h) == witness, (x, y, h)
            outcomes.add(_outcome(got))
    if name in FIELD_OUTCOMES:
        assert oracle._fields.keys() - {oracle.identity}, "no field was grown"
        assert outcomes == FIELD_OUTCOMES[name]


@pytest.mark.parametrize("descending", [True, False], ids=["deep-first", "shallow-first"])
@pytest.mark.parametrize("name", sorted(ORACLES))
def test_ball_enumeration_matches_level_lists(name, descending):
    build, horizon, _, target_depth = ORACLES[name]
    oracle, plain = build(), build()
    probes = ReferenceBall(plain).elements_up_to(target_depth + 1)
    horizons = range(horizon, -1, -1) if descending else range(horizon + 1)
    for n in horizons:
        # A fresh reference per question: its answers then do not depend on
        # how far earlier questions grew it.
        assert oracle.elements_up_to(n) == ReferenceBall(plain).elements_up_to(n), n
        assert oracle.ball_exhausted(n) == ReferenceBall(plain).ball_exhausted(n), n
        expected = ReferenceBall(plain)
        for m in probes:
            assert oracle.distance_field(oracle.identity).depth(m, n) == expected.depth_of(m, n), (m, n)


def test_fields_share_interned_elements():
    # Rewriting normal forms are fresh tuples, so only interning makes the
    # overlapping balls of different sources share their elements.
    oracle = RewritingMonoid(["p", "q"], [(("p", "q"), ())])
    for x in oracle.elements_up_to(2):
        word_distance(oracle, x, ("q", "q", "q", "q"), 6)
    assert len(oracle._fields) > 2
    by_value = {}
    for field in oracle._fields.values():
        for m in field.reached:
            assert by_value.setdefault(m, m) is m


# -- structural fast paths against the fields -------------------------------


def _ends_in_e_submonoid():
    parent = FreeProductMonoid(1, cyclic_group(2))
    return SubmonoidOracle(parent, ends_in_group_identity_submonoid(parent))


FAST_PATHS = {
    "free2": lambda: FreeMonoid(2, ["a", "b"]),
    "F1*Z2": lambda: FreeProductMonoid(1, cyclic_group(2)),
    "bicyclic": bicyclic_monoid,
    "zero": zero_monoid,
    "ends_in_e<F1*Z2": _ends_in_e_submonoid,
}


@pytest.mark.parametrize("name", sorted(FAST_PATHS))
def test_fast_path_matches_field_and_witness_lengths(name):
    fast, plain = FAST_PATHS[name](), FAST_PATHS[name]()
    plain.exact_quotient = lambda x, y: NotImplemented
    ball = fast.elements_up_to(3)
    outcomes = set()
    for x in ball:
        for y in ball:
            # Horizon 0: only the fast path can know a nonzero distance.
            got = word_distance(fast, x, y, 0)
            assert got.is_known, (x, y)
            expected = word_distance(plain, x, y, 8)
            if expected.is_known:
                assert got == expected, (x, y)
            else:
                assert got.value > expected.value, (x, y)
            outcomes.add(_outcome(expected))
            if got.value.is_infinite:
                with pytest.raises(NoPath):
                    shortest_word(fast, x, y, 0)
            else:
                w = shortest_word(fast, x, y, 0)
                assert fast.multiply(x, w) == y, (x, y, w)
                assert len(w) == got.value.finite_value(), (x, y, w)
    assert "known" in outcomes
    if name == "zero":
        assert "infinite" in outcomes


def test_submonoid_shares_the_parent_fields_and_interns():
    sub = _ends_in_e_submonoid()
    parent = sub.parent
    assert sub._fields is parent._fields
    assert sub._interned is parent._interned
    sub.elements_up_to(2)
    assert parent._fields.keys() == {()}
    assert ("g", "f") in parent._interned
