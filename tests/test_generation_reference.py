"""The generation certificates against the Fraction chain walk they replaced.

``factor_over_generators`` and ``_covering_translate`` below are the former
walk of ``monoidgeo.svarcmilnor``, and ``reference_generation`` the former
body of ``verify_generation_bound`` that called it, kept here verbatim as
the specification.  The walk samples the geodesic at the times i*l as
Fractions, snaps each sample to the nearer vertex, and searches S for every
step of the chain.  The integer walk must give the same report: the same
factorizations and the same failure witnesses, step and reason included.

The work guard counts what the run-owned memo saves: one search of S per
distinct pair of consecutive chain elements, and one cover search per
distinct sample vertex.
"""

import dataclasses
import io
import os
from collections import Counter
from contextlib import redirect_stdout
from fractions import Fraction

import pytest

from monoidgeo import (
    FactorizationFailed,
    GammaOracle,
    PropertyReport,
    SmInput,
    Vertex,
    extract_generators,
    format_word,
    shortest_word,
    translation_action,
)
from monoidgeo import svarcmilnor
from monoidgeo.cli import main, parse_monoid_spec
from monoidgeo.svarcmilnor import _covering_elements, _gamma_of

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


# ---------------------------------------------------------------------------
# The reference: the Fraction chain walk, as it was
# ---------------------------------------------------------------------------


def _covering_translate(inp, translates, v, cache=None):
    """A monoid element whose B-translate covers the vertex v."""
    if cache is not None and v in cache:
        return cache[v]
    found = next(_covering_elements(inp, translates, Vertex(v)), None)
    if cache is not None:
        cache[v] = found
    return found


def factor_over_generators(report, inp, m, cover_cache=None):
    """The proof's geodesic-subdivision factorization of m over S.

    Samples the geodesic from the identity to m at time steps l, snaps
    edge-interior samples to the covering translate of the nearer vertex,
    and reads off one contact element per step.
    """
    action = inp.action
    oracle = action.monoid
    gamma = _gamma_of(inp.action)
    e = oracle.identity
    far = inp.far
    dist = gamma.known_distance(Vertex(e), Vertex(m))
    if dist.is_infinite:
        raise FactorizationFailed(format_word(m), 0, "basepoint orbit distance is infinite")
    D = dist.finite_value()
    w = shortest_word(gamma.monoid, e, m, far)
    prefixes = [e]
    for letter in w:
        prefixes.append(gamma.monoid.multiply(prefixes[-1], (letter,)))
    l = report.l
    k = int(D / l)
    chain = []
    for i in range(k + 2):
        if i == 0:
            chain.append(oracle.identity)
            continue
        if i == k + 1:
            chain.append(m)
            continue
        t = i * l
        idx = int(t)
        offset = t - idx
        snapped = idx if offset <= Fraction(1, 2) else idx + 1
        snapped = min(snapped, len(prefixes) - 1)
        cover = _covering_translate(inp, report.translates, prefixes[snapped], cover_cache)
        if cover is None:
            raise FactorizationFailed(format_word(m), i, "no covering translate for sample vertex")
        chain.append(cover)
    letters = []
    for i in range(len(chain) - 1):
        step = next(
            (u for u in report.generators if oracle.multiply(chain[i], u) == chain[i + 1]),
            None,
        )
        if step is None:
            raise FactorizationFailed(
                format_word(m), i, f"no contact element carries {format_word(chain[i])} to {format_word(chain[i+1])}"
            )
        letters.append(step)
    return letters


def reference_generation(report, inp):
    """Every ball element factors over S within the subdivision bound k+1."""
    action = inp.action
    oracle = action.monoid
    gamma = _gamma_of(inp.action)
    x0 = Vertex(oracle.identity)
    witnesses = []
    factorizations = {}
    l = report.l
    cover_cache = {}
    for m in oracle.elements_up_to(inp.horizon):
        try:
            letters = factor_over_generators(report, inp, m, cover_cache)
        except FactorizationFailed as exc:
            witnesses.append({"m": format_word(m), "step": exc.step, "reason": exc.detail})
            continue
        product = oracle.identity
        for u in letters:
            product = oracle.multiply(product, u)
        D = gamma.known_distance(x0, Vertex(m)).finite_value()
        bound = D / l + 1
        ok = product == m and Fraction(len(letters)) <= bound
        factorizations[format_word(m)] = {
            "letters": [format_word(u) for u in letters],
            "length": len(letters),
            "bound": [bound.numerator, bound.denominator],
        }
        if not ok:
            witnesses.append(
                {
                    "m": format_word(m),
                    "product": format_word(product),
                    "length": len(letters),
                    "bound": [bound.numerator, bound.denominator],
                }
            )
    return PropertyReport(
        "generation_bound",
        "fail" if witnesses else "pass",
        inp.horizon,
        witnesses,
        artifacts={"factorizations": factorizations},
    )


# ---------------------------------------------------------------------------
# The integer walk gives the reference's report
# ---------------------------------------------------------------------------


@pytest.fixture
def recorded(monkeypatch):
    """Every verify_generation_bound call the pipelines make, with the
    reference's report on the same extraction report."""
    calls = []
    real = svarcmilnor.verify_generation_bound

    def record(report, inp):
        generation = real(report, inp)
        calls.append((generation, reference_generation(report, inp)))
        return generation

    monkeypatch.setattr(svarcmilnor, "verify_generation_bound", record)
    return calls


def _run_cli(fixture, *args):
    with redirect_stdout(io.StringIO()):
        return main(["--monoid", os.path.join(FIXTURES, fixture), *args])


def _agree(generation, reference):
    assert generation.to_json() == reference.to_json()


SVARC_MILNOR_CASES = [
    (f"{name}.json", horizon, radius)
    for name in ("free1", "free2", "z3", "fp_r1_z2", "fp_r2_z2")
    for horizon in (3, 4, 5, 6)
    for radius in ("1/2", "1", "3/2", "2")
]


@pytest.mark.parametrize(
    "fixture,horizon,radius", SVARC_MILNOR_CASES,
    ids=[f"{f} h{h} R{r}" for f, h, r in SVARC_MILNOR_CASES],
)
def test_svarc_milnor_matches_the_fraction_walk(recorded, fixture, horizon, radius):
    code = _run_cli(fixture, "--horizon", str(horizon), "svarc-milnor", "-R", radius)
    ((generation, reference),) = recorded
    _agree(generation, reference)
    assert code == (0 if generation.passed else 1)


@pytest.mark.parametrize("fixture", ["fp_r1_z2.json", "fp_r2_z2.json"])
@pytest.mark.parametrize("horizon", [3, 4, 5])
def test_submonoid_pipeline_matches_the_fraction_walk(recorded, fixture, horizon):
    assert _run_cli(fixture, "--horizon", str(horizon), "submonoid") == 0
    ((generation, reference),) = recorded
    _agree(generation, reference)


def test_free2_below_half_radius_fails_on_generation_witnesses(recorded):
    # R = 1/2 leaves S = {ε}: the step from ε to a letter finds no contact
    # element, so the run exits 1 on witnesses, the same as the reference's.
    assert _run_cli("free2.json", "--horizon", "5", "svarc-milnor", "-R", "1/2") == 1
    ((generation, reference),) = recorded
    _agree(generation, reference)
    assert generation.verdict == "fail"
    by_m = {w["m"]: w for w in generation.witnesses}
    assert by_m["a"] == {"m": "a", "step": 4, "reason": "no contact element carries ε to a"}


def _free2_input(horizon=4, **changes):
    oracle, _ = parse_monoid_spec(os.path.join(FIXTURES, "free2.json"))
    inp = SmInput(action=translation_action(GammaOracle(oracle, horizon)), radius=Fraction(1), horizon=horizon)
    return dataclasses.replace(inp, **changes)


def test_planted_missing_letter_gives_the_same_witnesses():
    inp = _free2_input()
    report = extract_generators(inp)
    planted = dataclasses.replace(report, generators=[s for s in report.generators if s != ("b",)])
    generation = svarcmilnor.verify_generation_bound(planted, inp)
    _agree(generation, reference_generation(planted, inp))
    by_m = {w["m"]: w for w in generation.witnesses}
    assert by_m["b"]["reason"] == "no contact element carries ε to b"
    assert "a" not in by_m


def test_planted_uncovered_vertex_gives_the_same_witnesses():
    # No candidate covers any sample: every element but ε fails at sample 1.
    inp = _free2_input(covering_candidates=lambda v: [])
    report = extract_generators(inp)
    generation = svarcmilnor.verify_generation_bound(report, inp)
    _agree(generation, reference_generation(report, inp))
    assert generation.witnesses[0] == {"m": "a", "step": 1, "reason": "no covering translate for sample vertex"}
    assert list(generation.artifacts["factorizations"]) == ["ε"]


# ---------------------------------------------------------------------------
# Work guard: one S search per pair, one cover search per vertex
# ---------------------------------------------------------------------------


class _SearchedS(list):
    """S, recording each search over it: the multiplies x*u it probes, one
    per yielded u, read by the multiply wrapper below."""

    def __init__(self, S, searches):
        super().__init__(S)
        self.searches = searches
        self.pending = None

    def __iter__(self):
        probes = []
        self.searches.append(probes)
        for u in super().__iter__():
            self.pending = probes
            yield u
        self.pending = None


@pytest.mark.parametrize("args", [["free-product"], ["svarc-milnor", "-R", "1"]])
def test_generation_searches_once_per_pair_and_vertex(monkeypatch, args):
    real = svarcmilnor.verify_generation_bound
    seen = {}

    def guarded(report, inp):
        oracle = inp.action.monoid
        searches, covered = [], Counter()
        S = _SearchedS(report.generators, searches)
        multiply, covering = oracle.multiply, svarcmilnor._covering_elements

        def counted_multiply(x, u):
            probes, S.pending = S.pending, None  # set: the probe of the u just yielded
            y = multiply(x, u)
            if probes is not None:
                probes.append((x, y))
            return y

        def counted_covering(inp, translates, x):
            covered[x.element] += 1
            return covering(inp, translates, x)

        with monkeypatch.context() as m:
            m.setattr(oracle, "multiply", counted_multiply)
            m.setattr(svarcmilnor, "_covering_elements", counted_covering)
            generation = real(dataclasses.replace(report, generators=S), inp)
        seen.update(generation=generation, searches=searches, covered=covered, oracle=oracle)
        return generation

    monkeypatch.setattr(svarcmilnor, "verify_generation_bound", guarded)
    assert _run_cli("fp_r2_z2.json", "--horizon", "5", *args) == 0

    generation, oracle = seen["generation"], seen["oracle"]
    assert generation.passed
    # Each search probes one x and stops at its y; no pair is searched twice.
    pairs = []
    for probes in seen["searches"]:
        assert len({x for x, _ in probes}) == 1
        pairs.append((probes[0][0], probes[-1][1]))
    assert len(pairs) == len(set(pairs))
    # The searched pairs are exactly the distinct steps of the certificates.
    steps, n_steps = set(), 0
    for facts in generation.artifacts["factorizations"].values():
        x = oracle.identity
        for u in facts["letters"]:
            y = oracle.multiply(x, oracle.parse_word(u))
            steps.add((x, y))
            x = y
        n_steps += len(facts["letters"])
    assert set(pairs) == steps
    assert len(steps) < n_steps
    # One cover search per distinct sample vertex.
    assert seen["covered"] and max(seen["covered"].values()) == 1
