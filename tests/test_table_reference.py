"""Finite tables and the in-ball against the searches they replaced.

``reference_table_error`` checks a table the former way: the n^3
associativity scan over every (i, j) row pair, and each inverse found by
searching the whole row and column.  ``TableMonoid`` now runs Light's test,
with j over the generators only, and ``FiniteGroup`` reads each inverse off
its row.  Both must accept and reject the same tables.  With the default
generators (every non-identity element) they must name the same failure;
with any other generator set, a named triple must really fail.  A table
that is both non-associative and not generated is reported as not generated
by both, since generation is checked first.

``reference_in_ball`` is the former body of ``GammaOracle.in_ball_cellset``:
one word distance from each candidate and from each of its out-neighbours
to the center.  The reverse search must give the same cell set.
"""

import itertools
import json
import os
import random
from fractions import Fraction

import pytest

from monoidgeo import (
    CellSet,
    FiniteGroup,
    GammaOracle,
    HorizonTooSmall,
    Segment,
    SpecValidationError,
    TableMonoid,
    from_spec_dict,
)
from monoidgeo import monoids
from monoidgeo.cayley import word_distance
from monoidgeo.cli import main
from builders import symmetric_group_3
from test_distance_field import symmetric_group_5

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def load(name):
    with open(os.path.join(FIXTURES, f"{name}.json"), encoding="utf-8") as fh:
        return from_spec_dict(json.load(fh))


# -- tables --------------------------------------------------------------------


def reference_table_error(names, table, e, generators, group):
    """The message a table with identity index e is rejected with, or None."""
    n = len(table)
    if generators is None:
        generators = [x for i, x in enumerate(names) if i != e]
    reached, queue = {e}, [e]
    for i in queue:
        for g in generators:
            j = table[i][names.index(g)]
            if j not in reached:
                reached.add(j)
                queue.append(j)
    if len(reached) != n:
        missing = [x for i, x in enumerate(names) if i not in reached]
        return f"elements not generated by {tuple(generators)}: {missing}"
    for i, j, k in itertools.product(range(n), repeat=3):
        if table[table[i][j]][k] != table[i][table[j][k]]:
            return f"multiplication table is not associative at ({names[i]},{names[j]},{names[k]})"
    if group:
        for i in range(n):
            if not any(table[i][j] == e and table[j][i] == e for j in range(n)):
                return f"{names[i]!r} has no inverse; not a group"
    return None


def table_error(names, table, e, generators, group):
    cls = FiniteGroup if group else TableMonoid
    try:
        m = cls(names, table, identity=e, generators=generators)
    except SpecValidationError as exc:
        return str(exc)
    if group:  # the inverse read off the row is the searched one
        for i, j in m.inverse_idx.items():
            assert table[i][j] == e and table[j][i] == e
    return None


def fails_at(names, table, message):
    """True when the triple a non-associativity message names really fails."""
    i, j, k = (names.index(x) for x in message.rsplit("(", 1)[1].rstrip(")").split(","))
    return table[table[i][j]][k] != table[i][table[j][k]]


def assert_same_verdict(names, table, e):
    """Both checks agree on every generator set, the default included."""
    subsets = [None] + [
        list(sub) for r in range(len(names) + 1) for sub in itertools.combinations(names, r)
    ]
    for generators in subsets:
        for group in (False, True):
            got = table_error(names, table, e, generators, group)
            want = reference_table_error(names, table, e, generators, group)
            if generators is None:
                assert got == want, (table, e, group)
            else:
                assert (got is None) == (want is None), (table, e, generators, group)
                if got is not None and "not associative" in got:
                    assert "not associative" in want and fails_at(names, table, got)
                elif got is not None:
                    assert got == want, (table, e, generators, group)


def magmas_with_identity(n, e):
    """Every n x n table with two-sided identity e."""
    free = [(i, j) for i in range(n) for j in range(n) if e not in (i, j)]
    for values in itertools.product(range(n), repeat=len(free)):
        table = [[j if i == e else i if j == e else None for j in range(n)] for i in range(n)]
        for (i, j), v in zip(free, values):
            table[i][j] = v
        yield table


@pytest.mark.parametrize("n", [1, 2, 3])
def test_every_small_magma_with_identity_matches_the_scan(n):
    names = ["e", "a", "b"][:n]
    seen = 0
    for e in range(n):
        for table in magmas_with_identity(n, e):
            assert_same_verdict(names, table, e)
            seen += 1
    assert seen == {1: 1, 2: 4, 3: 243}[n]


def relabelled(table, perm):
    """The table with element i renamed perm[i]."""
    out = [[None] * len(table) for _ in table]
    for i, row in enumerate(table):
        for j, v in enumerate(row):
            out[perm[i]][perm[j]] = perm[v]
    return out


def stock_tables():
    """Associative tables of order 4 to 6: groups and non-group monoids."""
    return [
        [[(i + j) % n for j in range(n)] for i in range(n)] for n in (4, 5, 6)
    ] + [
        [[i ^ j for j in range(4)] for i in range(4)],  # Z2 x Z2
        symmetric_group_3().table,
        [[max(i, j) for j in range(5)] for i in range(5)],  # a chain semilattice
        [[j if i == 0 else i if j == 0 else 1 for j in range(4)] for i in range(4)],  # null
        [[min(i + j, 5) for j in range(6)] for i in range(6)],  # truncated N
    ]


@pytest.mark.parametrize("seed", range(4))
def test_seeded_tables_of_order_4_to_6_match_the_scan(seed):
    rng = random.Random(f"table-reference-{seed}")
    for base in stock_tables():
        n = len(base)
        perm = list(range(n))
        rng.shuffle(perm)
        table = relabelled(base, perm)
        names = [f"x{i}" for i in range(n)]
        assert_same_verdict(names, table, perm[0])
        # The same identity with random entries elsewhere.
        e = perm[0]
        noise = [[j if i == e else i if j == e else rng.randrange(n) for j in range(n)] for i in range(n)]
        assert_same_verdict(names, noise, e)


@pytest.mark.parametrize(
    "name, table, pair",
    [
        ("S3", symmetric_group_3().table, (1, 3)),  # a 3-cycle and a transposition
        ("Z2xZ2", [[i ^ j for j in range(4)] for i in range(4)], (1, 2)),
    ],
)
def test_every_corruption_off_the_identity_row_and_column_is_rejected(name, table, pair):
    n = len(table)
    names = ["e"] + [f"x{i}" for i in range(1, n)]
    assert table_error(names, table, 0, [names[k] for k in pair], group=True) is None
    corrupted = 0
    for i, j in itertools.product(range(1, n), repeat=2):
        for v in range(n):
            if v == table[i][j]:
                continue
            bad = [list(row) for row in table]
            bad[i][j] = v
            for generators in (None, [names[k] for k in pair]):
                got = table_error(names, bad, 0, generators, group=True)
                want = reference_table_error(names, bad, 0, generators, group=True)
                assert got is not None and want is not None, (name, i, j, v, generators)
                if generators is None:
                    assert got == want
            corrupted += 1
    assert corrupted == (n - 1) ** 3


def test_table_entries_are_checked_by_type_then_range():
    spec = {"type": "table", "elements": ["e", "a"], "identity": "e"}
    for table in ([[0, 1], [1, True]], [[0, 1], [1, 0.0]], [[0, 1], (1, "0")]):
        with pytest.raises(SpecValidationError, match="'table' must be a list of rows of integers"):
            from_spec_dict({**spec, "table": table})
    # The first entry out of range in row order is the one named.
    with pytest.raises(SpecValidationError, match="table entry 5 out of range"):
        from_spec_dict({**spec, "table": [[0, 1], [5, -1]]})
    with pytest.raises(SpecValidationError, match="table entry -1 out of range"):
        from_spec_dict({**spec, "table": [[0, 1], [-1, 5]]})


def test_not_generated_is_reported_before_non_associativity():
    # (x·x)·x = y·x = x but x·(x·x) = x·y = y.  With no generators only e is
    # generated, and that is reported first; so is a generator name that is
    # not an element.
    table = [[0, 1, 2], [1, 2, 2], [2, 1, 2]]
    with pytest.raises(SpecValidationError, match="not associative"):
        TableMonoid(["e", "x", "y"], table)
    with pytest.raises(SpecValidationError, match=r"elements not generated by \(\): \['x', 'y'\]"):
        TableMonoid(["e", "x", "y"], table, generators=[])
    with pytest.raises(SpecValidationError, match="generator 'z' is not an element"):
        TableMonoid(["e", "x", "y"], table, generators=["x", "z"])


# -- in-balls ------------------------------------------------------------------


def reference_in_ball(gamma, center, radius, horizon):
    """The former in-ball: one word distance per candidate and out-neighbour."""
    radius = Fraction(radius)
    candidates = gamma.monoid.in_ball_candidates(center, int(radius) + 1, horizon)
    vertices = []
    segments = []
    d_to_center = lambda m: word_distance(gamma.monoid, m, center, horizon)
    for m in dict.fromkeys(candidates):
        dm = d_to_center(m)
        if dm.is_known and not dm.value.is_infinite and dm.value.finite_value() <= radius:
            vertices.append(m)
        for s in gamma.monoid.generators:
            intervals = []
            if dm.is_known and not dm.value.is_infinite:
                room = radius - dm.value.finite_value()
                if room > 0:
                    intervals.append((Fraction(0), min(Fraction(1), room)))
            ms = gamma.monoid.multiply(m, (s,))
            dms = d_to_center(ms)
            if dms.is_known and not dms.value.is_infinite:
                room = radius - dms.value.finite_value()
                lo = 1 - room
                if lo < 1:
                    intervals.append((max(Fraction(0), lo), Fraction(1)))
            for lo, hi in intervals:
                segments.append(Segment(m, s, lo, hi))
    return CellSet(vertices, segments)


RADII = [Fraction(0), Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2)]
BALL_ORACLES = ["free1", "free2", "z3", "fp_r1_z2", "fp_r2_z2", "s3", "S3 builder"]


@pytest.mark.parametrize("name", BALL_ORACLES)
def test_in_ball_matches_the_per_candidate_distances(name):
    horizon = 4
    build = symmetric_group_3 if name == "S3 builder" else lambda: load(name)
    centers = build().elements_up_to(2)
    for center in centers:
        for radius in RADII:
            # Fresh oracles, so neither side reads fields the other grew.
            got = GammaOracle(build(), horizon).in_ball_cellset(center, radius)
            want = reference_in_ball(GammaOracle(build(), horizon), center, radius, horizon)
            assert got == want, (name, center, radius)
            assert center in got.vertices


def test_in_ball_past_the_horizon_raises_and_exits_2():
    z3 = GammaOracle(load("z3"), 1)
    assert z3.in_ball_cellset((), Fraction(3, 2)).vertices == {(), ("g", "g")}
    with pytest.raises(HorizonTooSmall, match="radius 2 exceeds horizon 1"):
        z3.in_ball_cellset((), Fraction(2))
    argv = ["--monoid", os.path.join(FIXTURES, "z3.json"), "--horizon", "1", "ball", "ε", "2", "in"]
    assert main(argv) == 2


def test_s5_in_ball_grows_no_field_and_multiplies_once_per_edge(monkeypatch):
    def no_field(*args):
        raise AssertionError("in_ball_cellset built a distance field")

    monkeypatch.setattr(monoids, "DistanceField", no_field)
    s5 = symmetric_group_5()
    calls = []
    multiply = s5.multiply
    s5.multiply = lambda u, v: calls.append(1) or multiply(u, v)
    gamma = GammaOracle(s5, 12)
    candidates = s5.in_ball_candidates((), 12, 12)
    limit = len(candidates) * len(s5.generators)
    for radius in (Fraction(3, 2), Fraction(11)):
        calls.clear()
        ball = gamma.in_ball_cellset((), radius)
        assert len(calls) <= limit == 240
    assert len(ball.vertices) == 120

