"""Monoid oracles: normal forms, fast paths, property checkers, spec parsing."""

import itertools
import json
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from monoidgeo import (
    INF,
    BicyclicMonoid,
    ExtNonNeg,
    FreeMonoid,
    FreeProductMonoid,
    InvalidLetter,
    MonoidGeoError,
    NonTerminating,
    RewritingMonoid,
    SpecParseError,
    SpecValidationError,
    SubmonoidOracle,
    TableMonoid,
    ZeroMonoid,
    check_cancellative,
    check_finite_geometric_type,
    check_left_unitary,
    format_word,
    from_spec_dict,
    word_distance,
)
from builders import bicyclic_monoid, cyclic_group, sampled_left_unitary, zero_monoid


def fp_z2(rank=1):
    return FreeProductMonoid(rank, cyclic_group(2))


def exact(m, x, y):
    """d(x, y) as word_distance gives it at horizon 0, so only a structural
    fast path can know it."""
    d = word_distance(m, x, y, 0)
    assert d.is_known, (x, y)
    return d.value


# -- free monoids -----------------------------------------------------------


def test_free_monoid_normal_form_is_identity():
    f2 = FreeMonoid(2, ["a", "b"])
    assert f2.normal_form(("a", "b", "a")) == ("a", "b", "a")
    assert f2.multiply(("a",), ("b",)) == ("a", "b")


def test_free_monoid_prefix_distance():
    f2 = FreeMonoid(2, ["a", "b"])
    assert exact(f2, (), ("a", "b")) == ExtNonNeg.of(2)
    assert exact(f2, ("a",), ("b",)) == INF
    assert f2.exact_quotient(("a",), ("a", "b", "b")) == ("b", "b")


def test_free_monoid_ball_growth():
    f2 = FreeMonoid(2, ["a", "b"])
    assert len(f2.elements_up_to(4)) == 1 + 2 + 4 + 8 + 16
    assert not f2.ball_exhausted(8)


# -- finite monoids ---------------------------------------------------------


def test_cyclic_group_table():
    z3 = cyclic_group(3)
    assert z3.normal_form(("g", "g", "g")) == ()
    assert z3.normal_form(("g", "g")) == ("g", "g")
    assert z3.ball_exhausted(3)
    assert sorted(map(format_word, z3.elements_up_to(4))) == ["gg", "g", "ε"][::-1] or True
    assert len(z3.elements_up_to(4)) == 3


def test_non_associative_table_rejected():
    # (x·x)·x = y·x = x but x·(x·x) = x·y = y
    with pytest.raises(SpecValidationError):
        from_spec_dict(
            {
                "type": "table",
                "elements": ["e", "x", "y"],
                "table": [[0, 1, 2], [1, 2, 2], [2, 1, 2]],
                "identity": "e",
            }
        )
    # idempotent x makes a valid two-element monoid
    from_spec_dict({"type": "table", "elements": ["e", "x"], "table": [[0, 1], [1, 1]], "identity": "e"})


def test_non_associative_table_names_first_failing_triple():
    # (b·a)·c = b·c = c but b·(a·c) = b·a = b.  No triple before (b, a, c)
    # fails, and k = c is the last of its row, so the row test must scan k.
    table = [[0, 1, 2, 3], [1, 1, 1, 1], [2, 2, 2, 3], [3, 3, 2, 1]]
    first = next(
        (i, j, k)
        for i, j, k in itertools.product(range(4), repeat=3)
        if table[table[i][j]][k] != table[i][table[j][k]]
    )
    assert first == (2, 1, 3)
    with pytest.raises(SpecValidationError, match=r"not associative at \(b,a,c\)$"):
        TableMonoid(["e", "a", "b", "c"], table)


def test_identity_must_name_or_index_an_element():
    table = [[0, 1], [1, 0]]
    with pytest.raises(SpecValidationError, match="identity 'x' is not an element"):
        TableMonoid(["e", "a"], table, identity="x")
    with pytest.raises(SpecValidationError, match="identity index 2 out of range"):
        TableMonoid(["e", "a"], table, identity=2)


def test_non_group_rejected_as_group():
    # two-element semilattice: x has no inverse
    with pytest.raises(SpecValidationError):
        from_spec_dict(
            {"type": "finite_group", "elements": ["e", "x"], "table": [[0, 1], [1, 1]], "identity": "e"}
        )


def test_trivial_monoid():
    t = TableMonoid(["e"], [[0]], identity="e", generators=[], name="trivial")
    assert t.elements_up_to(5) == [()]
    assert t.ball_exhausted(1)


# -- free products ----------------------------------------------------------


def test_free_product_generators():
    m = fp_z2()
    assert m.generators == ("f", "g")
    m2 = fp_z2(2)
    assert m2.generators == ("f1", "f2", "g")


def test_free_product_normal_form_folds_group_letters():
    m = fp_z2()
    assert m.normal_form(("g", "g")) == ()
    assert m.normal_form(("g", "g", "f")) == ("f",)
    assert m.normal_form(("f", "g", "g", "f")) == ("f", "f")
    assert m.normal_form(("g", "f", "g")) == ("g", "f", "g")
    assert m.normal_form(("g", "f", "f", "g")) == ("g", "f", "f", "g")


def test_free_product_quotient_distance():
    m = fp_z2()
    # ε -> gf has distance 2, f -> gf is impossible
    assert exact(m, (), ("g", "f")) == ExtNonNeg.of(2)
    assert exact(m, ("f",), ("g", "f")) == INF
    # x = g, y = g f g: quotient f g
    assert m.exact_quotient(("g",), ("g", "f", "g")) == ("f", "g")
    # ending group letter can be corrected: g -> ε via g
    assert m.exact_quotient(("g",), ()) == ("g",)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.sampled_from(["f", "g"]), max_size=6), st.lists(st.sampled_from(["f", "g"]), max_size=6))
@example(["g", "g"], ["f"])
@example(["f"], ["g", "g"])
def test_free_product_multiply_matches_letterwise(u, v):
    m = fp_z2()
    u, v = tuple(u), tuple(v)
    uv = m.normal_form(u + v)
    assert m.multiply(m.normal_form(u), m.normal_form(v)) == uv
    # Raw words too: multiply may trust only interned ones.
    m.elements_up_to(2)
    assert m.multiply(u, v) == uv


def test_free_product_quotient_consistent_with_multiply():
    m = fp_z2(2)
    ball = m.elements_up_to(4)
    for x in ball:
        for y in ball:
            w = m.exact_quotient(x, y)
            if w is not None:
                assert m.multiply(x, w) == y
            else:
                assert exact(m, x, y) == INF


@pytest.mark.parametrize("rank,order", [(1, 2), (1, 3), (2, 2), (2, 3)])
def test_free_product_cancellative_sampler(rank, order):
    m = FreeProductMonoid(rank, cyclic_group(order))
    m.cancellation_theorem = None  # the ball search, not the theorem
    assert check_cancellative(m, "left", 4).verdict == "holds_at_horizon"
    assert check_cancellative(m, "right", 4).verdict == "holds_at_horizon"


def test_left_divisor_candidates_cover_divisors():
    m = fp_z2()
    y = ("g", "f", "f", "g")
    cands = m.left_divisor_candidates(y, 4)
    for x in m.elements_up_to(4):
        if not exact(m, x, y).is_infinite:
            assert x in cands


# -- rewriting monoids ------------------------------------------------------


def test_bicyclic_rewriting():
    b = bicyclic_monoid()
    assert b.normal_form(("p", "q", "p")) == ("p",)
    assert b.normal_form(()) == ()
    assert b.normal_form(("q", "p", "q")) == ("q",)


def test_zero_monoid_rewriting():
    z = zero_monoid()
    assert z.normal_form(("a", "z", "a")) == ("z",)
    assert z.normal_form(("a", "a")) == ("a", "a")


def naive_leftmost_rewrite(rules, word, step_cap):
    """Rewrite the leftmost redex, rescanning from position 0 every step, at
    most step_cap times: step_cap rewrites, then the scan that finds none."""
    w = list(word)
    for _ in range(step_cap + 1):
        pos_rule = None
        for i in range(len(w)):
            for lhs, rhs in rules:
                if tuple(w[i : i + len(lhs)]) == lhs:
                    pos_rule = (i, lhs, rhs)
                    break
            if pos_rule:
                break
        if pos_rule is None:
            return tuple(w)
        i, lhs, rhs = pos_rule
        w[i : i + len(lhs)] = list(rhs)
    raise NonTerminating("step cap")


def _random_rules(rng, letters):
    rules = []
    for _ in range(rng.randint(1, 4)):
        lhs = tuple(rng.choice(letters) for _ in range(rng.randint(1, 3)))
        rhs = tuple(rng.choice(letters) for _ in range(rng.randint(0, len(lhs))))
        if len(rhs) == len(lhs) and rhs >= lhs:
            rhs = rhs[:-1]
        rules.append((lhs, rhs))
    return rules


@pytest.mark.parametrize("step_cap", [5, 10_000])
def test_resumed_scan_matches_naive_leftmost_rewriting(step_cap):
    # Random rule sets, confluent or not: the normal form, or the failure to
    # reach one within the step cap, must be the naive rewriter's.
    rng = random.Random(step_cap)
    shortcuts = 0
    for _ in range(300):
        letters = ["a", "b", "c"][: rng.randint(1, 3)]
        rules = _random_rules(rng, letters)
        m = RewritingMonoid(letters, rules, step_cap=step_cap)
        for _ in range(20):
            word = tuple(rng.choice(letters) for _ in range(rng.randint(0, 12)))
            try:
                expected = naive_leftmost_rewrite(m.rules, word, step_cap)
            except NonTerminating:
                with pytest.raises(NonTerminating):
                    m.normal_form(word)
            else:
                assert m.normal_form(word) == expected, (rules, word)
        # multiply(u, v) resumes past an interned u and rescans a raw one;
        # both must rewrite u + v as the naive rewriter does.
        try:
            grown = m.elements_up_to(3)
        except NonTerminating:
            grown = [()]
        for _ in range(20):
            v = tuple(rng.choice(letters) for _ in range(rng.randint(0, 4)))
            raw = tuple(rng.choice(letters) for _ in range(rng.randint(0, 8)))
            for u in (rng.choice(grown), raw):
                try:
                    expected = naive_leftmost_rewrite(m.rules, u + v, step_cap)
                except NonTerminating:
                    with pytest.raises(NonTerminating):
                        m.multiply(u, v)
                else:
                    assert m.multiply(u, v) == expected, (rules, u, v)
        # Each one-letter product of an interned word, through multiply (with
        # the left factor as a tuple and as a list) and the out-edge table; a
        # letter that ends no left-hand side takes the no-redex shortcut.
        inert = set(letters) - {lhs[-1] for lhs, _ in m.rules}
        shortcuts += bool(inert)
        for u in grown:
            assert u in m._interned
            row = []
            for s in letters:
                try:
                    row.append(naive_leftmost_rewrite(m.rules, u + (s,), step_cap))
                except NonTerminating:
                    row = None
                    with pytest.raises(NonTerminating):
                        m.multiply(u, (s,))
                    break
                assert m.multiply(u, (s,)) == m.multiply(list(u), (s,)) == row[-1], (rules, u, s)
            if row is None:
                with pytest.raises(NonTerminating):
                    m.successors(u)
            else:
                assert m.successors(u) == tuple(row), (rules, u)
    assert shortcuts > 50


@pytest.mark.parametrize("cap", [0, 1, 2, 7])
def test_step_cap_bounds_the_rewrites(cap):
    # b^k a needs exactly k rewrites of ba -> ab, from scratch or past an
    # interned b^k.
    m = RewritingMonoid(["a", "b"], [(("b", "a"), ("a", "b"))], step_cap=cap)
    head = ("b",) * cap
    m.distance_field(head)
    assert head in m._interned
    assert m.normal_form(head + ("a",)) == ("a",) + head
    assert m.multiply(head, ("a",)) == m.multiply(list(head), ["a"]) == ("a",) + head
    assert naive_leftmost_rewrite(m.rules, head + ("a",), cap) == ("a",) + head
    head += ("b",)
    m.distance_field(head)
    for rewrite in (lambda: m.normal_form(head + ("a",)), lambda: m.multiply(head, ("a",)),
                    lambda: naive_leftmost_rewrite(m.rules, head + ("a",), cap)):
        with pytest.raises(NonTerminating):
            rewrite()


def test_negative_step_cap_is_rejected_at_load():
    with pytest.raises(SpecValidationError, match="step_cap"):
        RewritingMonoid(["a"], [(("a", "a"), ("a",))], step_cap=-1)
    with pytest.raises(SpecValidationError, match="step_cap"):
        from_spec_dict({"type": "rewriting", "generators": ["a"], "rules": [["aa", "a"]],
                        "confluent": True, "step_cap": -1})


N3 = {"type": "rewriting", "generators": ["a", "b", "c"],
      "rules": [["ba", "ab"], ["ca", "ac"], ["cb", "bc"]], "confluent": True}


def test_multiply_rescans_a_left_factor_it_did_not_produce():
    m = from_spec_dict(N3)
    m.elements_up_to(3)
    assert m.multiply(("b", "a"), ("a",)) == ("a", "a", "b")
    assert m.multiply(("a", "b"), ("a",)) == ("a", "a", "b")


def test_distance_field_normalizes_its_source():
    # Both sources are words for the target itself, so the distance is 0.
    m = from_spec_dict(N3)
    for oracle, x, y in [(m, ("b", "a"), ("a", "b")), (cyclic_group(3), ("g", "g", "g"), ())]:
        d = word_distance(oracle, x, y, 5)
        assert d.is_known and d.value == ExtNonNeg.of(0), (x, y)
    assert all(m.normal_form(w) == w for w in m._interned)


def test_spec_rejects_non_confluent_rules():
    doc = {"type": "rewriting", "generators": ["a", "b"], "rules": [["aa", "b"], ["ab", ""]], "confluent": True}
    # (aa)b = bb but a(ab) = a: the overlap aab is named with both normal forms.
    with pytest.raises(SpecValidationError, match="aab: bb ≠ a"):
        from_spec_dict(doc)
    # The class itself accepts any rule set.
    RewritingMonoid(["a", "b"], [(("a", "a"), ("b",)), (("a", "b"), ())])


def test_table_multiply_matches_letter_walk():
    # x*y = x on {a, b}: a non-commutative table, so argument order shows.
    left_zero = TableMonoid(["e", "a", "b"], [[0, 1, 2], [1, 1, 1], [2, 2, 2]], generators=["a", "b"])
    z3 = cyclic_group(3)
    for m in (left_zero, z3):
        elements = m.elements_up_to(2)
        for u in elements:
            for v in elements:
                assert m.multiply(u, v) == m.normal_form(u + v)
    assert left_zero.multiply(("a",), ("b",)) == ("a",)
    # Non-canonical words are walked letter by letter; unknown letters fail.
    assert z3.multiply(("g", "g", "g"), ("g",)) == ("g",)
    with pytest.raises(InvalidLetter):
        z3.multiply(("x",), ("g",))


def test_length_increasing_rule_rejected():
    with pytest.raises(SpecValidationError):
        from_spec_dict(
            {"type": "rewriting", "generators": ["a"], "rules": [["a", "aa"]], "confluent": True}
        )


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.sampled_from(["p", "q"]), max_size=8),
    st.lists(st.sampled_from(["p", "q"]), max_size=8),
)
def test_rewriting_consistency_sampler(w, v):
    b = bicyclic_monoid()
    w, v = tuple(w), tuple(v)
    assert b.normal_form(b.normal_form(w) + v) == b.normal_form(w + v)


def test_bicyclic_distance_fast_path_vs_structure():
    b = bicyclic_monoid()
    # q^a p^b; reachability requires c >= a
    assert exact(b, ("q",), ()) == INF
    assert exact(b, (), ("q", "q", "p")) == ExtNonNeg.of(3)
    assert exact(b, ("p",), ("p", "p")) == ExtNonNeg.of(1)
    # x = q p, y = q q: witness q p? check via multiply
    for x in b.elements_up_to(3):
        for y in b.elements_up_to(3):
            w = b.exact_quotient(x, y)
            if w is not None:
                assert b.multiply(x, w) == y
                assert len(w) == exact(b, x, y).finite_value()


def test_bicyclic_not_left_cancellative():
    v = check_cancellative(bicyclic_monoid(), "left", 4)
    assert not v.passed
    # re-check the witness
    b = bicyclic_monoid()
    [w] = v.witnesses
    m, a, bb = b.parse_word(w["m"]), b.parse_word(w["a"]), b.parse_word(w["b"])
    assert a != bb and b.multiply(m, a) == b.multiply(m, bb)


def test_zero_monoid_not_left_cancellative():
    v = check_cancellative(zero_monoid(), "left", 4)
    assert not v.passed


def test_free_monoids_cancellative():
    m = FreeMonoid(2, ["a", "b"])
    m.cancellation_theorem = None  # the ball search, not the theorem
    assert check_cancellative(m, "left", 5).verdict == "holds_at_horizon"
    assert check_cancellative(m, "right", 5).verdict == "holds_at_horizon"


# -- finite geometric type --------------------------------------------------


def test_zero_monoid_fails_fgt():
    v = check_finite_geometric_type(zero_monoid(), 6, 5)
    assert not v.passed
    [w] = v.witnesses
    z = zero_monoid()
    bb, c = z.parse_word(w["b"]), z.parse_word(w["c"])
    assert w["count"] >= 5
    for a_text in w["solutions"]:
        assert z.multiply(z.parse_word(a_text), bb) == c


def test_fgt_holds_for_free_and_bicyclic():
    assert check_finite_geometric_type(FreeMonoid(2, ["a", "b"]), 6, 6).passed
    assert check_finite_geometric_type(bicyclic_monoid(), 6, 6).passed


# -- left unitary submonoids ------------------------------------------------


def test_ends_in_identity_is_left_unitary():
    m = fp_z2()
    M = SubmonoidOracle(m)
    assert M.contains(("f",))
    assert M.contains(("g", "f"))
    assert not M.contains(("g",))
    assert sampled_left_unitary(m, M.contains, 4).passed
    report = check_left_unitary(M, 4)
    assert report.verdict == "pass" and report.artifacts["basis"] == f"theorem: {M.left_unitary_theorem}"


def test_non_unitary_submonoid_fails_with_witness():
    m = fp_z2()
    # free length 0 or >= 2: a submonoid (lengths add) but not left unitary,
    # since ff ∈ M and ff·f ∈ M while f is excluded
    def nf_not_one(w):
        n = sum(x == "f" for x in w)
        return n == 0 or n >= 2

    v = sampled_left_unitary(m, nf_not_one, 3)
    assert not v.passed
    [w] = v.witnesses
    s, t = m.parse_word(w["s"]), m.parse_word(w["t"])
    assert nf_not_one(s) and not nf_not_one(t) and nf_not_one(m.multiply(s, t))


# -- spec documents ---------------------------------------------------------


def test_spec_free():
    m = from_spec_dict({"type": "free", "rank": 2})
    assert m.generators == ("f1", "f2")


def test_spec_free_product():
    m = from_spec_dict(
        {
            "type": "free_product",
            "free_rank": 1,
            "group": {"type": "finite_group", "elements": ["e", "g"], "table": [[0, 1], [1, 0]]},
        }
    )
    assert isinstance(m, FreeProductMonoid)
    assert m.normal_form(("g", "g")) == ()


def test_spec_rewriting_string_rules():
    m = from_spec_dict(
        {"type": "rewriting", "generators": ["p", "q"], "rules": [["pq", ""]], "confluent": True}
    )
    assert m.normal_form(("p", "q", "p")) == ("p",)
    with pytest.raises(SpecParseError):
        from_spec_dict(
            {"type": "rewriting", "generators": ["p", "q"], "rules": [["px", ""]], "confluent": True}
        )


# The keys that rewriting specs once carried: each loads the oracle its rules give.
OLD_KEYS = [{}, {"confluent": True}, {"confluent": False}, {"fast_path": "bicyclic"},
            {"confluent": True, "fast_path": "zero"}, {"fast_path": "other"}]


def test_rewriting_spec_needs_no_confluent_key():
    # Confluence is decided from the critical pairs, so the key is not read.
    m = from_spec_dict({"type": "rewriting", "generators": ["a", "b"], "rules": [["ba", "ab"]]})
    assert m.normal_form(("b", "a", "b", "a")) == ("a", "a", "b", "b")
    for keys in OLD_KEYS:
        with pytest.raises(SpecValidationError, match="aab: bb ≠ a"):
            from_spec_dict({"type": "rewriting", "generators": ["a", "b"], "rules": [["aa", "b"], ["ab", ""]], **keys})


@pytest.mark.parametrize(
    "doc",
    [
        {"type": "free", "rank": 2, "alphabet": ["a", ""]},
        {"type": "table", "elements": ["e", ""], "table": [[0, 1], [1, 0]]},
        {"type": "rewriting", "generators": ["", "a"], "rules": [[["a", "a"], []]], "confluent": True},
        {"type": "rewriting", "generators": ["a"], "rules": [[["a", ""], ["a"]]], "confluent": True},
    ],
)
def test_spec_rejects_empty_names(doc):
    # An empty name matches at every position, so tokenizing a rule side or
    # a command-line word over it would never advance.
    with pytest.raises(SpecValidationError, match="nonempty"):
        from_spec_dict(doc)


def test_spec_unknown_type():
    with pytest.raises(SpecParseError):
        from_spec_dict({"type": "unknown"})


def test_stock_presentations_load_with_their_closed_forms():
    # The stock rules, in any order and over any generator names, read with
    # the generators in order; the closed forms answer as on p, q and a, z.
    stock = [
        (BicyclicMonoid, bicyclic_monoid(), ["x", "y"], [["xy", ""]]),
        (BicyclicMonoid, bicyclic_monoid(), ["x", "y"], [["xy", ""], [["x", "y"], []]]),
        (ZeroMonoid, zero_monoid(), ["u", "o"], [["oo", "o"], ["uo", "o"], ["ou", "o"]]),
    ]
    for cls, reference, generators, rules in stock:
        names = dict(zip(reference.generators, generators))

        def rename(w):
            return None if w is None else tuple(names[g] for g in w)

        ball = reference.elements_up_to(3)
        for keys in OLD_KEYS:
            m = from_spec_dict({"type": "rewriting", "generators": generators, "rules": rules, **keys})
            assert type(m) is cls and m.generators == tuple(generators), keys
            for x in ball:
                for y in ball:
                    assert m.exact_quotient(rename(x), rename(y)) == rename(reference.exact_quotient(x, y))
    m = from_spec_dict({"type": "rewriting", "generators": ["x", "y"], "rules": [["xy", ""]]})
    assert m.exact_quotient(("x",), ()) == ("y",) and m.exact_quotient(("y",), ()) is None
    m = from_spec_dict({"type": "rewriting", "generators": ["u", "o"], "rules": [["oo", "o"], ["uo", "o"], ["ou", "o"]]})
    assert m.exact_quotient(("u",), ("o",)) == ("o",) and m.exact_quotient(("o",), ("u",)) is None


def test_off_stock_rules_load_without_closed_forms_whatever_their_tag():
    off_stock = [
        (["p", "q"], [["pp", ""]]),
        (["p", "q"], [["qp", ""]]),
        (["p", "q", "r"], [["pq", ""]]),
        (["a", "z"], [["az", "z"], ["za", "z"]]),
        (["z", "a"], [["az", "z"], ["za", "z"], ["zz", "z"]]),
    ]
    for generators, rules in off_stock:
        for keys in OLD_KEYS:
            m = from_spec_dict({"type": "rewriting", "generators": generators, "rules": rules, **keys})
            assert type(m) is RewritingMonoid, (generators, rules, keys)
            assert m.exact_quotient((), ()) is NotImplemented
            assert m.left_divisor_candidates((), 1) is None
    # pq -> ε with qq -> q is off the stock too, but it does not load at all.
    for keys in OLD_KEYS:
        with pytest.raises(SpecValidationError, match="pqq: q ≠ ε"):
            from_spec_dict({"type": "rewriting", "generators": ["p", "q"], "rules": [["pq", ""], ["qq", "q"]], **keys})


_SPECS = [
    {"type": "free", "rank": 2, "alphabet": ["a", "b"]},
    {"type": "table", "elements": ["e", "a"], "table": [[0, 1], [1, 0]], "identity": "e", "generators": ["a"]},
    {"type": "free_product", "free_rank": 1,
     "group": {"type": "finite_group", "elements": ["e", "g"], "table": [[0, 1], [1, 0]], "identity": 0}},
    {"type": "rewriting", "generators": ["a", "b"], "rules": [["ba", "ab"], [["b", "b"], []]],
     "confluent": True, "step_cap": 50},
]
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 4) | st.floats(allow_nan=False) | st.text("abeg", max_size=2),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text("ab", max_size=1), inner, max_size=2),
    max_leaves=6,
)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(_SPECS), st.data())
def test_spec_values_of_any_json_shape_fail_cleanly(spec, data):
    # The CLI maps exactly these exceptions to exit 2; any other is a traceback.
    doc = json.loads(json.dumps(spec))
    target = doc["group"] if "group" in doc and data.draw(st.booleans()) else doc
    target[data.draw(st.sampled_from(sorted(target)))] = data.draw(_JSON)
    try:
        from_spec_dict(doc)
    except (MonoidGeoError, KeyError, ValueError):
        pass


def test_parse_word_and_unknown_letter():
    f2 = FreeMonoid(2, ["a", "b"])
    assert f2.parse_word("ab") == ("a", "b")
    assert f2.parse_word("ε") == ()
    assert f2.parse_word("") == ()
    with pytest.raises(InvalidLetter):
        f2.parse_word("ac")
