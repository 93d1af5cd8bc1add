"""The free-product pipelines against the searches the normal form theorem
replaced.

`run_submonoid_theorem` and `run_free_product` take M = ends_in_e to be left
unitary and each group letter's inverse to be its exact quotient, by the
normal form theorem for free products, and read the realized lambda off one
pass over basis words by left translation.  This file keeps what they did
before as references: the left-unitary search, the ball search for right
inverses, the search over P for MP = N, and the loop over all pairs of basis
images.  On F1*Z2, F2*Z2, F1*S3 and F2*Z3 at horizons 3 to 6 the references
agree with the pipelines.
"""

import os
from fractions import Fraction

import pytest

from monoidgeo import (
    FreeMonoid,
    FreeProductMonoid,
    check_left_unitary,
    ends_in_group_identity_submonoid,
    format_word,
    monoids,
    run_free_product,
    run_submonoid_theorem,
    svarcmilnor,
    word_distance,
)
from monoidgeo.cli import parse_monoid_spec
from builders import cyclic_group, symmetric_group_3

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")

PRODUCTS = {
    "F1*Z2": lambda: FreeProductMonoid(1, cyclic_group(2)),
    "F2*Z2": lambda: FreeProductMonoid(2, cyclic_group(2)),
    "F1*S3": lambda: FreeProductMonoid(1, symmetric_group_3()),
    "F2*Z3": lambda: FreeProductMonoid(2, cyclic_group(3)),
}
CASES = [(name, h) for name in PRODUCTS for h in (3, 4, 5, 6)]


def _basis_images(N: FreeProductMonoid, horizon: int) -> tuple[FreeMonoid, dict]:
    """The free model on the basis {g f} and {image in N: basis word} for the
    basis words of length <= horizon/2, as run_free_product builds them."""
    basis = [N.normal_form((f,) if g == N.group_identity else (g, f))
             for g in N.group.element_names for f in N.free_letters]
    names = [f"b{i+1}" for i in range(len(basis))]
    free_model = FreeMonoid(len(basis), alphabet=names)
    images = {}
    for bword in free_model.elements_up_to(horizon // 2):
        img = N.identity
        for b in bword:
            img = N.multiply(img, basis[names.index(b)])
        images[img] = bword
    return free_model, images


def reference_realized_lambda(N: FreeProductMonoid, horizon: int) -> tuple[Fraction, list]:
    """The realized lambda of free -> M -> N and the mismatch witnesses, by
    comparing the two word distances of every pair of basis images."""
    free_model, images = _basis_images(N, horizon)
    realized_lambda = Fraction(1)
    witnesses = []
    pairs = list(images.items())
    for img1, b1 in pairs:
        for img2, b2 in pairs:
            d_free = word_distance(free_model, b1, b2, horizon).value
            d_N = word_distance(N, img1, img2, horizon).value
            if d_free.is_infinite != d_N.is_infinite:
                witnesses.append({"reason": "finiteness mismatch", "pair": [format_word(b1), format_word(b2)]})
                continue
            if d_free.is_infinite:
                continue
            a = d_free.finite_value()
            b = d_N.finite_value()
            if a == 0 and b == 0:
                continue
            if a == 0 or b == 0:
                witnesses.append({"reason": "zero distance mismatch", "pair": [format_word(b1), format_word(b2)]})
                continue
            realized_lambda = max(realized_lambda, Fraction(b, a), Fraction(a, b))
    return realized_lambda, witnesses


def reference_mp_factorizations(N: FreeProductMonoid, horizon: int) -> dict:
    """{n: (m, p)} with m in M, p in P and m*p = n for every n of the
    horizon ball, by the search over P that the pipeline made."""
    member = ends_in_group_identity_submonoid(N)
    P = [() if g == N.group_identity else (g,) for g in N.group.element_names]
    inverses = {p: N.exact_quotient(p, N.identity) for p in P}
    factorizations = {}
    for n in N.elements_up_to(horizon):
        # m*p = n with p*q = e forces m = n*q, so one candidate per p suffices.
        found = None
        for p in P:
            m = N.multiply(n, inverses[p])
            if member(m) and N.multiply(m, p) == n:
                found = (m, p)
                break
        assert found is not None, f"no factorization m*p = {format_word(n)}"
        factorizations[format_word(n)] = (format_word(found[0]), format_word(found[1]))
    return factorizations


MP_PRODUCTS = {
    "fp_r1_z2": lambda: parse_monoid_spec(os.path.join(FIXTURES, "fp_r1_z2.json"))[0],
    "fp_r2_z2": lambda: parse_monoid_spec(os.path.join(FIXTURES, "fp_r2_z2.json"))[0],
    "F1*S3": PRODUCTS["F1*S3"],
}


# At horizon 1 the pipeline stops before it reports: its ball radius is 2.
@pytest.mark.parametrize("name,h", [(name, h) for name in MP_PRODUCTS for h in range(2, 7)])
def test_mp_factorizations_match_the_search_over_p(name, h):
    N = MP_PRODUCTS[name]()
    read_off = run_submonoid_theorem(N, h).artifacts["MP_factorizations"]
    searched = reference_mp_factorizations(N, h)
    assert list(read_off.items()) == list(searched.items())
    assert len(searched) == len(N.elements_up_to(h))


_runs: dict = {}


def _run(name: str, h: int):
    if (name, h) not in _runs:
        _runs[name, h] = run_free_product(PRODUCTS[name](), h)
    return _runs[name, h]


@pytest.mark.parametrize("name,h", CASES)
def test_ends_in_e_is_left_unitary(name, h):
    N = PRODUCTS[name]()
    assert check_left_unitary(N, ends_in_group_identity_submonoid(N), h).holds


@pytest.mark.parametrize("name,h", CASES)
def test_ball_searched_inverses_are_the_exact_quotients(name, h):
    N = PRODUCTS[name]()
    P = _run(name, h).artifacts["submonoid"].artifacts["P"]
    assert len(P) == len(N.group.element_names)
    for p in map(N.parse_word, P):
        searched = [q for q in N.elements_up_to(h) if N.multiply(p, q) == N.identity]
        assert searched == [N.exact_quotient(p, N.identity)], (name, p)


@pytest.mark.parametrize("name,h", CASES)
def test_realized_lambda_matches_the_pair_loop(name, h):
    out = _run(name, h)
    assert out.verdict == "pass"
    lam, witnesses = reference_realized_lambda(PRODUCTS[name](), h)
    assert witnesses == []
    assert out.artifacts["realized_lambda"] == [lam.numerator, lam.denominator]


def test_neither_pipeline_searches_for_left_unitarity(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("check_left_unitary called")

    monkeypatch.setattr(monoids, "check_left_unitary", refuse)
    monkeypatch.setattr(svarcmilnor, "check_left_unitary", refuse, raising=False)
    N = PRODUCTS["F2*Z2"]()
    assert run_submonoid_theorem(N, 4).verdict == "pass"
    assert run_free_product(N, 4).verdict == "pass"


@pytest.mark.parametrize("name", sorted(PRODUCTS))
def test_lambda_takes_at_most_two_word_distances_per_image(monkeypatch, name):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return word_distance(*args, **kwargs)

    monkeypatch.setattr(svarcmilnor, "word_distance", counted)
    N = PRODUCTS[name]()
    out = run_free_product(N, 6)
    assert out.verdict == "pass"
    _, images = _basis_images(N, 6)
    assert 0 < len(calls) <= 2 * len(images)
