"""The shared out-edge table against one multiply per edge per field.

``ReferenceField`` is the former ``DistanceField.grow``: every field asked
``multiply`` for each of its edges, so fields that overlap computed their
shared products again.  Fields now read ``MonoidOracle.successors``, one
table per oracle (shared by a submonoid with its parent).  Every field must
still find the same elements, in the same BFS order, with the same depth,
parent and letter, level sizes and exhaustion level.

``reference_in_ball`` is the former body of ``GammaOracle.in_ball_cellset``:
the same reverse search, over out-edges computed by one multiply per
candidate edge.  The table-backed in-ball must give the same cell set.
"""

import json
import os
from fractions import Fraction
from typing import Optional

import pytest

from monoidgeo import (
    CellSet,
    GammaOracle,
    Segment,
    SubmonoidOracle,
    from_spec_dict,
)
from builders import symmetric_group_3

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")
FIXTURE_NAMES = sorted(f[:-5] for f in os.listdir(FIXTURES) if f.endswith(".json"))


def load(name):
    with open(os.path.join(FIXTURES, f"{name}.json"), encoding="utf-8") as fh:
        return from_spec_dict(json.load(fh))


def build(name):
    """A fresh oracle: a fixture, or the ends_in_e submonoid of one."""
    if name.startswith("ends_in_e<"):
        parent = load(name[len("ends_in_e<"):-1])
        return SubmonoidOracle(parent)
    return load(name)


ORACLES = FIXTURE_NAMES + ["ends_in_e<fp_r1_z2>", "ends_in_e<fp_r2_z2>"]


class ReferenceField:
    """The former field: one multiply per edge, nothing shared between fields."""

    def __init__(self, oracle, source):
        self.oracle = oracle
        self.reached = {source: (0, None, None)}
        self.frontier = [source]
        self.sizes = [1]
        self.empty_level: Optional[int] = None

    def grow(self, depth, target=None):
        oracle, reached = self.oracle, self.reached
        while len(self.sizes) <= depth and self.empty_level is None and target not in reached:
            level = len(self.sizes)
            frontier = []
            for m in self.frontier:
                for s in oracle.generators:
                    p = oracle.multiply(m, (s,))
                    if p not in reached:
                        reached[p] = (level, m, s)
                        frontier.append(p)
            if frontier:
                self.frontier = frontier
                self.sizes.append(len(reached))
            else:
                self.empty_level = level


def assert_same_field(got, want, where):
    assert list(got.reached.items()) == list(want.reached.items()), where
    assert got.sizes == want.sizes, where
    assert got.empty_level == want.empty_level, where


@pytest.mark.parametrize("name", ORACLES)
def test_fields_match_one_multiply_per_edge(name):
    # Sources from a third oracle, so neither side starts with a grown field.
    sources = build(name).elements_up_to(2)
    oracle, reference = build(name), build(name)
    # Grow every field a level at a time, in turn, so each reads products
    # that the other fields put in the table first.
    fields = {m: oracle.distance_field(m) for m in sources}
    wants = {m: ReferenceField(reference, m) for m in sources}
    for depth in range(5):
        for m in sources:
            fields[m].grow(depth)
            wants[m].grow(depth)
            assert_same_field(fields[m], wants[m], (name, m, depth))
    # A targeted grow stops at the target's level on both sides.
    far = oracle.elements_up_to(6)[-1]
    for m in sources:
        fields[m].grow(7, far)
        wants[m].grow(7, far)
        assert_same_field(fields[m], wants[m], (name, m, "target"))


@pytest.mark.parametrize("name", ["fp_r1_z2", "fp_r2_z2"])
def test_submonoid_fields_match_from_a_warm_parent_table(name):
    # The parent fills the shared table first; the submonoid's fields must
    # not see a difference.
    sub = build(f"ends_in_e<{name}>")
    sub.parent.elements_up_to(4)
    for m in sub.elements_up_to(2):
        field = sub.distance_field(m)
        field.grow(4)
        want = ReferenceField(load(name), m)
        want.grow(4)
        assert_same_field(field, want, (name, m))


def reference_in_ball(gamma, center, radius, horizon):
    """The former in-ball: the reverse search over per-candidate multiplies."""
    radius = Fraction(radius)
    depth = int(radius)
    monoid = gamma.monoid
    candidates = monoid.in_ball_candidates(center, depth + 1, horizon)
    edges = {m: [monoid.multiply(m, (s,)) for s in monoid.generators] for m in candidates}
    into = {}
    for m, products in edges.items():
        for p in products:
            into.setdefault(p, []).append(m)
    dist = {center: 0}
    queue = [center]
    for p in queue:
        if dist[p] < depth:
            for m in into.get(p, ()):
                if m not in dist:
                    dist[m] = dist[p] + 1
                    queue.append(m)
    room = [radius - d for d in range(depth + 1)]
    segments = []
    for m, products in edges.items():
        dm = dist.get(m)
        for s, ms in zip(monoid.generators, products):
            if dm is not None and room[dm] > 0:
                segments.append(Segment(m, s, Fraction(0), min(Fraction(1), room[dm])))
            dms = dist.get(ms)
            if dms is not None and room[dms] > 0:
                segments.append(Segment(m, s, max(Fraction(0), 1 - room[dms]), Fraction(1)))
    return CellSet(dist, segments)


RADII = [Fraction(0), Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2), Fraction(5, 2)]


@pytest.mark.parametrize("name", ["s3", "z3", "free2", "fp_r1_z2", "S3 builder"])
def test_in_ball_matches_per_candidate_multiplies(name):
    horizon = 4
    fresh = symmetric_group_3 if name == "S3 builder" else lambda: load(name)
    # One oracle for every call, so later balls read a table earlier balls
    # and the centers' fields filled.
    gamma = GammaOracle(fresh(), horizon)
    for center in gamma.monoid.elements_up_to(2):
        for radius in RADII:
            want = reference_in_ball(GammaOracle(fresh(), horizon), center, radius, horizon)
            assert gamma.in_ball_cellset(center, radius) == want, (name, center, radius)


# -- work guard ----------------------------------------------------------------


def test_overlapping_fields_multiply_once_per_product():
    sources = [m for m in load("n3").elements_up_to(4) if len(m) == 4]
    n3 = load("n3")
    calls = []
    multiply = n3.multiply
    n3.multiply = lambda u, v: calls.append((u, v)) or multiply(u, v)
    assert len(sources) == 15
    for m in sources:
        n3.distance_field(m).grow(10)
    assert len(calls) == len(set(calls))
    assert all(len(v) == 1 for _, v in calls)
    # Every monomial of degree 4 to 13 is expanded once: C(16, 3) - C(6, 3)
    # elements, where one multiply per edge per field made 15 * C(12, 3) * 3.
    assert len(calls) == (560 - 20) * 3 == 1620


def test_submonoid_and_parent_hold_one_table():
    sub = build("ends_in_e<fp_r1_z2>")
    parent = sub.parent
    assert sub._successors is parent._successors
    sub.distance_field(sub.identity).grow(4)
    calls = []
    multiply = parent.multiply
    parent.multiply = lambda u, v: calls.append((u, v)) or multiply(u, v)
    parent.distance_field(parent.identity).grow(4)
    for m in parent.elements_up_to(3):
        assert parent.successors(m) is sub.successors(m)
    assert calls == []
