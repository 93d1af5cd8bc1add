"""The free-product pipelines against the searches the normal form theorem
replaced.

`run_submonoid_theorem` and `run_free_product` take M = ends_in_e to be left
unitary and each group letter's inverse to be its exact quotient, by the
normal form theorem for free products, and `run_free_product` reads its
realized constants off the basis letters and P's displacement.  This file
keeps what they did before as references: the left-unitary search (in
``builders``, as ``check unitary`` ran it), the ball search for right
inverses, the search over P for MP = N, the loop over all pairs of basis
images, and the corollary's three loops (the basis-word loop, the M-ball
factorization scan and the density loop).  On F1*Z2, F2*Z2, F1*S3
and F2*Z3 the references agree with the pipelines, and planted inputs show
that each corollary loop finds what it looks for.
"""

import os
from fractions import Fraction

import pytest

from monoidgeo import (
    FreeMonoid,
    FreeProductMonoid,
    GammaOracle,
    SubmonoidOracle,
    Vertex,
    cayley,
    check_left_unitary,
    format_word,
    monoids,
    run_free_product,
    run_submonoid_theorem,
    svarcmilnor,
    word_distance,
)
from monoidgeo.cli import parse_monoid_spec
from builders import cyclic_group, sampled_left_unitary, symmetric_group_3

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")

PRODUCTS = {
    "F1*Z2": lambda: FreeProductMonoid(1, cyclic_group(2)),
    "F2*Z2": lambda: FreeProductMonoid(2, cyclic_group(2)),
    "F1*S3": lambda: FreeProductMonoid(1, symmetric_group_3()),
    "F2*Z3": lambda: FreeProductMonoid(2, cyclic_group(3)),
}
CASES = [(name, h) for name in PRODUCTS for h in (3, 4, 5, 6)]


def free_basis(N: FreeProductMonoid) -> list:
    """The candidate free basis {g f} of M, one element per group element and
    free letter, as run_free_product lists it."""
    return [N.normal_form((f,) if g == N.group_identity else (g, f))
            for g in N.group.element_names for f in N.free_letters]


def _basis_images(N: FreeProductMonoid, horizon: int) -> tuple[FreeMonoid, dict]:
    """The free model on the basis {g f} and {image in N: basis word} for the
    basis words of length <= horizon/2."""
    basis = free_basis(N)
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
    member = SubmonoidOracle(N).contains
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
    M = SubmonoidOracle(N)
    assert sampled_left_unitary(N, M.contains, h).verdict == "holds_at_horizon"
    assert check_left_unitary(M, h).verdict == "pass"


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


# -- the corollary's former loops ---------------------------------------------


def _free_length(N: FreeProductMonoid, m) -> int:
    return sum(x in N.free_letters for x in m)


def reference_basis_loop(N: FreeProductMonoid, basis: list, horizon: int, in_m) -> tuple[dict, Fraction, list]:
    """{image in N: basis word} over the basis words of length <= horizon/2,
    the realized lambda of free -> M -> N over them, and the witnesses of a
    repeated image, an image outside M and an image whose free length is not
    its word's length, by the loop run_free_product made."""
    names = [f"b{i+1}" for i in range(len(basis))]
    images = {}
    witnesses = []
    for bword in FreeMonoid(len(basis), alphabet=names).elements_up_to(horizon // 2):
        img = N.identity
        for b in bword:
            img = N.multiply(img, basis[names.index(b)])
        if img in images:
            witnesses.append(
                {"reason": "basis factorization not injective",
                 "words": [format_word(images[img]), format_word(bword)]}
            )
        images[img] = bword
        if not in_m(img):
            witnesses.append({"reason": "basis word leaves M", "word": format_word(bword)})
        if _free_length(N, img) != len(bword):
            witnesses.append({"reason": "basis letters not length-preserving", "word": format_word(bword)})
    realized_lambda = Fraction(1)
    for img, bword in images.items():
        if bword:
            a, b = len(bword), word_distance(N, N.identity, img, horizon).value.finite_value()
            realized_lambda = max(realized_lambda, Fraction(b, a), Fraction(a, b))
    return images, realized_lambda, witnesses


def reference_m_ball_scan(N: FreeProductMonoid, images: dict, horizon: int, in_m) -> list:
    """The elements of M in the horizon ball, of free length <= horizon/2,
    that no basis word of the basis loop reaches."""
    return [{"reason": "M-element misses basis factorization", "m": format_word(m)}
            for m in N.elements_up_to(horizon)
            if in_m(m) and _free_length(N, m) <= horizon // 2 and m not in images]


def reference_density(N: FreeProductMonoid, horizon: int, in_m) -> tuple[Fraction, list]:
    """The realized mu of M in N over the horizon ball, the largest over n of
    the least strong distance from n to an n*g in M, g a group letter or the
    identity, and the elements with no such n*g, by the loop run_free_product
    made."""
    gamma = GammaOracle(N, max(horizon, 8))
    realized_mu = Fraction(0)
    witnesses = []
    for n in N.elements_up_to(horizon):
        best = None
        for g in N.group.element_names:
            m = n if g == N.group_identity else N.successors(n)[N.generators.index(g)]
            if not in_m(m):
                continue
            cand = max(gamma.known_distance(Vertex(m), Vertex(n)), gamma.known_distance(Vertex(n), Vertex(m)))
            if not cand.is_infinite and (best is None or cand < best):
                best = cand
        if best is None:
            witnesses.append({"reason": "element not near M", "n": format_word(n)})
        else:
            realized_mu = max(realized_mu, best.finite_value())
    return realized_mu, witnesses


COROLLARY_PRODUCTS = dict(MP_PRODUCTS, **{"F2*Z3": PRODUCTS["F2*Z3"]})
COROLLARY_CASES = [(name, h) for name in MP_PRODUCTS for h in range(2, 9)] + [("F2*Z3", h) for h in range(3, 7)]


@pytest.mark.parametrize("name,h", COROLLARY_CASES)
def test_read_off_matches_the_former_loops(name, h):
    N = COROLLARY_PRODUCTS[name]()
    out = run_free_product(N, h)
    assert out.verdict == "pass" and out.witnesses == []
    in_m = SubmonoidOracle(N).contains
    basis = free_basis(N)
    assert out.artifacts["basis"] == [format_word(b) for b in basis]
    images, lam, witnesses = reference_basis_loop(N, basis, h, in_m)
    witnesses += reference_m_ball_scan(N, images, h, in_m)
    mu, density_witnesses = reference_density(N, h, in_m)
    assert witnesses + density_witnesses == []
    assert out.artifacts["realized_lambda"] == [lam.numerator, lam.denominator]
    assert out.artifacts["realized_eps"] == [0, 1]
    assert out.artifacts["realized_mu"] == [mu.numerator, mu.denominator]


def _reasons(witnesses: list) -> set:
    return {w["reason"] for w in witnesses}


def test_basis_loop_finds_a_repeated_basis_element():
    N = PRODUCTS["F2*Z2"]()
    basis = free_basis(N)
    _, _, witnesses = reference_basis_loop(N, basis + basis[:1], 4, SubmonoidOracle(N).contains)
    assert _reasons(witnesses) == {"basis factorization not injective"}


def test_basis_loop_finds_a_basis_word_outside_m():
    N = PRODUCTS["F1*Z2"]()
    # f·g ends in a group letter, so it leaves M; it still has free length 1.
    _, _, witnesses = reference_basis_loop(N, [("f",), ("f", "g")], 4, SubmonoidOracle(N).contains)
    assert _reasons(witnesses) == {"basis word leaves M"}


def test_basis_loop_finds_a_letter_that_changes_free_length():
    N = PRODUCTS["F1*Z2"]()
    # g alone has free length 0, and it leaves M.
    _, _, witnesses = reference_basis_loop(N, [("f",), ("g",)], 2, SubmonoidOracle(N).contains)
    assert _reasons(witnesses) == {"basis word leaves M", "basis letters not length-preserving"}


def test_m_ball_scan_finds_an_element_no_basis_word_reaches():
    N = PRODUCTS["F1*Z2"]()
    in_m = SubmonoidOracle(N).contains
    images, _, witnesses = reference_basis_loop(N, [("f",)], 4, in_m)  # g·f is missing
    assert witnesses == []
    missed = reference_m_ball_scan(N, images, 4, in_m)
    assert {"reason": "M-element misses basis factorization", "m": "gf"} in missed


def test_density_loop_finds_an_element_far_from_m():
    N = PRODUCTS["F1*Z2"]()
    # With M the words free of group letters, g·f reaches M by no group letter.
    mu, witnesses = reference_density(N, 3, lambda w: not set(w) & set(N.group.element_names))
    assert {"reason": "element not near M", "n": "gf"} in witnesses
    assert mu == 1


@pytest.mark.parametrize("name", sorted(PRODUCTS))
def test_lambda_takes_at_most_two_word_distances_per_image(monkeypatch, name):
    """The corollary's own part takes one word distance per basis letter and
    no five-case distance, and builds no GammaOracle: everything else it
    reports comes from run_submonoid_theorem."""
    inside = []
    own = {"word_distance": 0, "gamma_distance": 0, "GammaOracle": 0}
    in_sub = dict(own)

    def counted(key, fn):
        def call(*args, **kwargs):
            (in_sub if inside else own)[key] += 1
            return fn(*args, **kwargs)
        return call

    def sub(*args, **kwargs):
        inside.append(True)
        try:
            return run_submonoid_theorem(*args, **kwargs)
        finally:
            inside.pop()

    monkeypatch.setattr(svarcmilnor, "run_submonoid_theorem", sub)
    monkeypatch.setattr(svarcmilnor, "word_distance", counted("word_distance", word_distance))
    monkeypatch.setattr(svarcmilnor, "GammaOracle", counted("GammaOracle", GammaOracle))
    monkeypatch.setattr(cayley, "gamma_distance", counted("gamma_distance", cayley.gamma_distance))
    N = PRODUCTS[name]()
    out = run_free_product(N, 6)
    assert out.verdict == "pass"
    assert 0 < own["word_distance"] <= len(free_basis(N))
    assert own["gamma_distance"] == own["GammaOracle"] == 0
    assert in_sub["gamma_distance"] > 0 and in_sub["GammaOracle"] == 1
