"""The CLI's one-pass report encoder against the stdlib call it replaced.

``monoidgeo.cli._encode`` is the one place that turns reports into text:
report objects hand it their fields as they are, with distances, Fractions
and nested reports among them.  ``_encode(doc)`` must return exactly the
text of ``json.dumps(plain(doc), sort_keys=True, ensure_ascii=False,
indent=2)``, where ``plain`` writes a Fraction as ``[numerator,
denominator]`` and an object with ``to_json`` as what that method returns.
It must do so on every committed golden report, on generated trees
(escape-heavy and non-ASCII strings, empty and nested containers, bools
beside ints, negative ints and floats, non-string keys, lists of strings
such as a factorization's letters, with str subclasses and ints mixed in,
Fractions, and objects with ``to_json``, some returning another such object)
and on a ``--timing`` report, whose duration is the one float a report
carries.  Where the stdlib raises on the plain tree, it raises too: a report
carrying an object that neither encodes is a TypeError, not text.
"""

import io
import json
import os
from contextlib import redirect_stdout
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from monoidgeo import PropertyReport
from monoidgeo.cli import _encode, main

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(HERE, "golden")


def stdlib(doc) -> str:
    return json.dumps(doc, sort_keys=True, ensure_ascii=False, indent=2)


def plain(v):
    """The tree the stdlib encodes in place of v: an object with ``to_json``
    is what that method returns, a Fraction is ``[numerator, denominator]``,
    and containers are walked."""
    if hasattr(v, "to_json"):
        return plain(v.to_json())
    if isinstance(v, Fraction):
        return [v.numerator, v.denominator]
    if isinstance(v, dict):
        return {k: plain(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [plain(x) for x in v]
    return v


class Encodes:
    """A small report: an object whose ``to_json`` returns the tree it holds,
    which may be another such object."""

    def __init__(self, tree):
        self.tree = tree

    def to_json(self):
        return self.tree


@pytest.mark.parametrize("name", sorted(os.listdir(GOLDEN)))
def test_encoder_matches_stdlib_on_golden_report(name):
    with open(os.path.join(GOLDEN, name), encoding="utf-8") as fh:
        text = fh.read()
    doc = json.loads(text)
    assert _encode(doc) == stdlib(doc) == text[:-1]


# Characters the encoder must escape, and some it must pass through as they are.
ESCAPES = '"\\/\n\r\t\b\f\x00\x01\x1f\x7f\x80  '
UNICODE = "aε·→é€𝔽😀 "
strings = st.text(st.sampled_from(ESCAPES + UNICODE)) | st.text()
scalars = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**80), max_value=2**80)
    | st.floats()
    | strings
)


class Letter(str):
    """A str subclass, which the one-join path for lists of plain strings
    must leave to the general path."""


# Factorization letters: lists whose items are all strings, ε and the empty
# word among them, with str subclasses and ints mixed in.
letter_names = st.sampled_from(["ε", "", "a", "f1", "gf2", "é€", "😀", '"', "\\", "\n", "\x00"]) | strings
letter_lists = (
    st.lists(letter_names, max_size=8)
    | st.lists(letter_names.map(Letter), min_size=1, max_size=4)
    | st.lists(letter_names | letter_names.map(Letter), max_size=6)
    | st.lists(letter_names | st.integers(min_value=-(2**40), max_value=2**40), max_size=6)
)
trees = st.recursive(
    scalars | letter_lists | st.fractions(),
    lambda children: st.lists(children, max_size=6)
    | st.lists(children, max_size=4).map(tuple)
    | st.dictionaries(strings, children, max_size=6)
    | children.map(Encodes)
    | children.map(Encodes).map(Encodes),
    max_leaves=40,
)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(trees)
@example([])
@example({})
@example([[], {}, [[]], {"": {}}])
@example([1, True, 0, False, -3])
@example([True, False])
@example([-1, -(2**70), 0])
@example({"b": [1, 2], "a": [1.5, -0.0, 1e300]})
@example({"x": float("nan"), "y": [float("inf"), float("-inf")]})
@example(ESCAPES + UNICODE)
@example(["ε", "", "é€😀", ESCAPES])
@example({"letters": ["ε", "ab"], "length": 2, "bound": [5, 1]})
@example([Letter("a"), "b", Letter("")])
@example(["a", 1, "b", True, None])
@example([Fraction(-3, 4), Fraction(5), Fraction(0), 1])
@example({"bound": Fraction(13), "lambda": Encodes({"kind": "exact", "num": 1, "den": 1})})
@example(Encodes(Encodes([])))
@example(PropertyReport("p", "pass", 2, [Fraction(1, 2)], artifacts={"sub": PropertyReport("q", "fail", 1)}))
def test_encoder_matches_stdlib_on_generated_trees(doc):
    assert _encode(doc) == stdlib(plain(doc))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(
    st.dictionaries(st.integers(min_value=-(2**40), max_value=2**40), trees, max_size=5)
    | st.dictionaries(st.floats(allow_nan=False), scalars, max_size=5)
    | st.dictionaries(st.booleans(), scalars)
    | st.dictionaries(st.none(), scalars)
)
def test_encoder_matches_stdlib_on_non_string_keys(doc):
    assert _encode(doc) == stdlib(plain(doc))


@pytest.mark.parametrize(
    "doc",
    [{1: 0, "a": 1}, {(1, 2): 0}, [object()], {"a": {1, 2}}, PropertyReport("p", "pass", 1, artifacts={"x": object()})],
)
def test_encoder_raises_type_error_where_the_stdlib_does(doc):
    with pytest.raises(TypeError):
        stdlib(plain(doc))
    with pytest.raises(TypeError):
        _encode(doc)


def test_timing_report_and_json_file_match_stdout(tmp_path):
    out = tmp_path / "report.json"
    buf = io.StringIO()
    spec = os.path.join(HERE, "fixtures", "free2.json")
    with redirect_stdout(buf):
        code = main(["--monoid", spec, "--timing", "--json", str(out), "--horizon", "4", "svarc-milnor", "-R", "1"])
    assert code == 0
    text = buf.getvalue()
    doc = json.loads(text)
    assert isinstance(doc["duration_seconds"], float)
    assert text == stdlib(doc) + "\n"
    assert out.read_text(encoding="utf-8") == text

