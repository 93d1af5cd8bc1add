"""Seeded input generators for the benchmark workloads.

Every generator is a pure function of its seed.  The program under test
only ever sees the documents and queries built here, never the seed.
"""

from __future__ import annotations

import random
from fractions import Fraction

from reference import compose, perm_distances

# ---------------------------------------------------------------------------
# group-extraction: the symmetric group S5 as a finite_group table
# ---------------------------------------------------------------------------

# The pair (5-cycle, transposition), which generates S5 with directed
# diameter 11.  The seed conjugates it by a random permutation and shuffles
# the table, so every seed gives a different document for an isomorphic
# labelled Cayley graph: the work, and the report, stay fixed while the
# representation changes.  (Freely drawn pairs gave graphs of diameter 9 to
# 12 whose pipelines differed by up to 16% in table multiplies, which would
# be seed noise in the operation time.)
BASE_PAIR = ((1, 2, 3, 4, 0), (1, 0, 2, 3, 4))


def generating_pair(seed: int):
    """A generating pair of S5: BASE_PAIR conjugated by a seeded permutation."""
    c = tuple(random.Random(f"group-pair-{seed}").sample(range(5), 5))
    c_inv = tuple(sorted(range(5), key=lambda i: c[i]))
    return tuple(compose(compose(c_inv, p), c) for p in BASE_PAIR)


def perm_group_spec(a, b, rng):
    """(spec document, horizon) for the group generated by permutations a, b.

    Elements appear in an rng-shuffled order; the pair is named ``a`` and
    ``b``, the identity ``e`` and every other element ``p<k>``.  The horizon
    is the directed Cayley diameter from the benchmark's own BFS, so the
    pipeline's ball is the whole group.
    """
    dist = perm_distances((a, b))
    order = sorted(dist)
    rng.shuffle(order)
    e = tuple(range(len(a)))
    names = {e: "e", a: "a", b: "b"}
    k = 0
    for p in order:
        if p not in names:
            k += 1
            names[p] = f"p{k}"
    index = {p: i for i, p in enumerate(order)}
    doc = {
        "type": "finite_group",
        "elements": [names[p] for p in order],
        "table": [[index[compose(p, q)] for q in order] for p in order],
        "identity": "e",
        "generators": ["a", "b"],
    }
    return doc, max(dist.values())


def group_spec(seed: int):
    """(spec document, horizon, generators) for S5 with the seed's pair."""
    a, b = generating_pair(seed)
    doc, horizon = perm_group_spec(a, b, random.Random(f"group-order-{seed}"))
    return doc, horizon, {"a": a, "b": b}


# ---------------------------------------------------------------------------
# distance-queries: the free commutative monoid N^3 and a query stream
# ---------------------------------------------------------------------------

N3_LETTERS = ("a", "b", "c")
N3_HORIZON = 10
N3_SPEC = {
    "type": "rewriting",
    "generators": list(N3_LETTERS),
    "rules": [["ba", "ab"], ["ca", "ac"], ["cb", "bc"]],
    "confluent": True,
}
OFFSETS = (Fraction(1, 4), Fraction(1, 3), Fraction(1, 2), Fraction(2, 3), Fraction(3, 4))


# |x| of every query's start element, so a query's cost follows from its
# class and distance rather than from the seed.
START_LENGTH = 4

# Queries of each class per 100: the outermost `word_distance`,
# `gamma_distance` and ball cell-set calls that the three CLI pipelines
# make, by outcome and by the kinds of the two points (v vertex, e edge
# point), averaged over the pipelines with equal weight.  bench/query_mix.py
# measures them and checks this table.  The pipelines make a handful of ball
# calls among some 10^5 queries; one ball query is kept so that kind is asked
# and checked.
MIX = {
    ("ball",): 1,
    ("dist", "known"): 39,
    ("dist", "unreachable"): 15,
    ("gamma", "ee", "known"): 2,
    ("gamma", "ee", "unreachable"): 7,
    ("gamma", "ev", "known"): 3,
    ("gamma", "ev", "unreachable"): 7,
    ("gamma", "ve", "known"): 2,
    ("gamma", "ve", "unreachable"): 8,
    ("gamma", "vv", "known"): 7,
    ("gamma", "vv", "unreachable"): 9,
}
BALL_RADII = (Fraction(3, 2), Fraction(2), Fraction(3))


def _start(rng):
    """A random element of N^3 with exactly START_LENGTH letters."""
    return _plus_length(rng, (0, 0, 0), START_LENGTH)


def _plus_length(rng, x, length):
    """x plus a random vector of total length `length`."""
    cuts = sorted(rng.randint(0, length) for _ in range(2))
    parts = (cuts[0], cuts[1] - cuts[0], length - cuts[1])
    return tuple(xi + d for xi, d in zip(x, parts))


def _target(rng, x, d):
    """x plus a vector of length d, or, for d None, an element not above x
    (lower in some coordinate), which no word reaches."""
    if d is not None:
        return _plus_length(rng, x, d)
    y = [rng.randint(0, 4) for _ in x]
    i = rng.choice([i for i, xi in enumerate(x) if xi > 0])
    y[i] = rng.randint(0, x[i] - 1)
    return tuple(y)


def _point(rng, x, kind):
    if kind == "v":
        return ("v", x)
    return ("e", x, rng.choice(N3_LETTERS), rng.choice(OFFSETS))


def _distance(outcome, i, known_max):
    """The i-th target distance of a class: known ones spread evenly over
    0..known_max; unreachable ones alternate between past the horizon (12,
    13 or 14, so past it from the far end of an edge-point start too) and
    not above the start (None).  Either costs a search of the whole horizon
    ball, from each end of an edge-point start."""
    if outcome == "known":
        return i % (known_max + 1)
    return None if i % 2 else N3_HORIZON + 2 + (i // 2) % 3


def query_stream(seed: int, count: int) -> list:
    """`count` distinct queries over N^3 in the proportions of MIX, as
    JSON-ready lists.

      ["dist", x, y]            word distance plus a shortest-word witness
      ["gamma", p, q]           five-case distance between Cayley points
      ["ball", x, [num, den]]   out-ball cell set of the given radius
    Elements are exponent vectors; points are ["v", x] or
    ["e", x, letter, [num, den]].  Each class's distances are fixed by
    _distance; the seed picks elements, edge letters, offsets and order.
    """
    rng = random.Random(f"queries-{seed}")
    per_class = -(-count // 100)
    slots = [(cls, i) for cls, n in MIX.items() for i in range(n * per_class)]
    rng.shuffle(slots)
    seen = set()
    out = []
    for cls, i in slots[:count]:
        while True:
            x = _start(rng)
            if cls[0] == "dist":
                q = ("dist", x, _target(rng, x, _distance(cls[1], i, N3_HORIZON)))
            elif cls[0] == "gamma":
                _, kinds, outcome = cls
                # One below the horizon: an edge point's offset keeps the value known.
                y = _target(rng, x, _distance(outcome, i, N3_HORIZON - 1))
                q = ("gamma", _point(rng, x, kinds[0]), _point(rng, y, kinds[1]))
            else:
                q = ("ball", x, BALL_RADII[i % len(BALL_RADII)])
            if q not in seen:
                break
        seen.add(q)
        out.append(_jsonable(q))
    return out


def _jsonable(v):
    if isinstance(v, Fraction):
        return [v.numerator, v.denominator]
    if isinstance(v, (tuple, list)):
        return [_jsonable(x) for x in v]
    return v
