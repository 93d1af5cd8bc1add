"""The generation certificates against the two walks they replaced.

``factor_over_generators`` and ``_covering_translate`` below are the first
walk of ``monoidgeo.svarcmilnor``, and ``reference_generation`` the body of
``verify_generation_bound`` that called it, kept here verbatim as the
specification.  The walk samples the geodesic at the times i*l as
Fractions, snaps each sample to the nearer vertex, and searches S for every
step of the chain.  ``integer_factor`` and ``integer_generation`` are the
second: the same walk in integer sample times with one run-owned memo of
covers and steps, still walking each element's whole geodesic.  The walk by
prefix extension must give the same report as both: the same
factorizations and the same failure witnesses, step and reason included.

The walk covers each sample vertex v by construction, with the first
v·t⁻¹ in M over the representatives t that are vertices of B.  The
references still search the translates for a cover, with
``builders.covering_elements``, and the two covers are compared on every
vertex of the horizon ball.

The work guards count what the run's walk saves: one search of S per
distinct pair of consecutive chain elements, no translate at all, and for
each distinct prefix of a witness word one extension, which walks at most
ceil(1/l) new samples.  Witness words that are not prefix-closed must give
the same report too.
"""

import io
import os
import random
from contextlib import redirect_stdout
from fractions import Fraction

import pytest

from monoidgeo import (
    CellSet,
    FactorizationFailed,
    GammaOracle,
    PropertyReport,
    SmInput,
    Vertex,
    extract_generators,
    format_word,
    shortest_word,
)
from monoidgeo import svarcmilnor
from monoidgeo.cli import main, parse_monoid_spec
from builders import covering_elements, replaced, translates_of
from test_distance_field import symmetric_group_5

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


# ---------------------------------------------------------------------------
# The reference: the Fraction chain walk, as it was
# ---------------------------------------------------------------------------


def _covering_translate(inp, translates, v, cache=None):
    """A monoid element whose B-translate covers the vertex v."""
    if cache is not None and v in cache:
        return cache[v]
    found = next(covering_elements(inp, translates, Vertex(v)), None)
    if cache is not None:
        cache[v] = found
    return found


def factor_over_generators(report, inp, m, cover_cache=None):
    """The proof's geodesic-subdivision factorization of m over S.

    Samples the geodesic from the identity to m at time steps l, snaps
    edge-interior samples to the covering translate of the nearer vertex,
    and reads off one contact element per step.
    """
    oracle = inp.monoid
    gamma = inp.gamma
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
        cover = _covering_translate(inp, translates_of(inp, report), prefixes[snapped], cover_cache)
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
    oracle = inp.monoid
    gamma = inp.gamma
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


def integer_factor(report, inp, m, memo):
    """The geodesic-subdivision factorization of m over S, in integer sample
    times: sample i snaps to the prefix of length ceil(i*l - 1/2) of m's
    witness word.  `memo` maps a vertex to its first covering element and a
    pair of consecutive chain elements to the first step between them."""
    oracle = inp.monoid
    ambient = inp.gamma.monoid
    w = shortest_word(ambient, oracle.identity, m, inp.far)
    p, q = report.l.numerator, report.l.denominator
    chain = [oracle.identity]
    prefix, depth = oracle.identity, 0
    for i in range(1, len(w) * q // p + 1):
        snapped = -((q - 2 * i * p) // (2 * q))  # ceil(i*l - 1/2)
        for letter in w[depth:snapped]:
            prefix = ambient.successors(prefix)[ambient.generators.index(letter)]
        depth = snapped
        if prefix not in memo:
            memo[prefix] = next(covering_elements(inp, translates_of(inp, report), Vertex(prefix)), None)
        if memo[prefix] is None:
            raise FactorizationFailed(format_word(m), i, "no covering translate for sample vertex")
        chain.append(memo[prefix])
    chain.append(m)
    letters = []
    for i, (x, y) in enumerate(zip(chain, chain[1:])):
        if (x, y) not in memo:
            memo[x, y] = next((u for u in report.generators if oracle.multiply(x, u) == y), None)
        if memo[x, y] is None:
            raise FactorizationFailed(
                format_word(m), i, f"no contact element carries {format_word(x)} to {format_word(y)}"
            )
        letters.append(memo[x, y])
    return letters


def integer_generation(report, inp):
    """verify_generation_bound over integer_factor, one memo per run."""
    oracle = inp.monoid
    x0 = Vertex(oracle.identity)
    witnesses = []
    factorizations = {}
    l = report.l
    memo = {}
    for m in oracle.elements_up_to(inp.horizon):
        try:
            letters = integer_factor(report, inp, m, memo)
        except FactorizationFailed as exc:
            witnesses.append({"m": format_word(m), "step": exc.step, "reason": exc.detail})
            continue
        product = oracle.identity
        for u in letters:
            if u:
                product = oracle.multiply(product, u)
        D = inp.gamma.known_distance(x0, Vertex(m)).finite_value()
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
# The walk by prefix extension gives both references' report
# ---------------------------------------------------------------------------


@pytest.fixture
def recorded(monkeypatch):
    """Every verify_generation_bound call the pipelines make, with both
    references' reports on the same extraction report."""
    calls = []
    real = svarcmilnor.verify_generation_bound

    def record(report, inp):
        generation = real(report, inp)
        calls.append((generation, _references(report, inp)))
        return generation

    monkeypatch.setattr(svarcmilnor, "verify_generation_bound", record)
    return calls


def _run_cli(fixture, *args):
    with redirect_stdout(io.StringIO()):
        return main(["--monoid", os.path.join(FIXTURES, fixture), *args])


def _references(report, inp):
    return reference_generation(report, inp), integer_generation(report, inp)


def _agree(generation, references):
    for reference in references:
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
    if radius == "1/2":
        # B holds [0, 1/2] of each edge out of ε and no translate holds the
        # rest: the run stops at the cobounded hypothesis, before the walk.
        assert code == 2 and recorded == []
        return
    ((generation, references),) = recorded
    _agree(generation, references)
    assert code == (0 if generation.passed else 1)


@pytest.mark.parametrize("fixture", ["fp_r1_z2.json", "fp_r2_z2.json"])
@pytest.mark.parametrize("horizon", [3, 4, 5])
def test_submonoid_pipeline_matches_the_fraction_walk(recorded, fixture, horizon):
    assert _run_cli(fixture, "--horizon", str(horizon), "submonoid") == 0
    ((generation, references),) = recorded
    _agree(generation, references)


def test_free2_below_half_radius_fails_on_generation_witnesses(recorded, monkeypatch):
    # R = 1/2 leaves S = {ε}: the step from ε to a letter finds no contact
    # element, so the run exits 1 on witnesses, the same as the reference's.
    # Such a B covers no edge out of ε beyond 1/2, so the cobounded
    # hypothesis is passed over here to reach the walk.
    monkeypatch.setattr(svarcmilnor, "check_cobounded", lambda *args: PropertyReport("cobounded", "pass", 5))
    assert _run_cli("free2.json", "--horizon", "5", "svarc-milnor", "-R", "1/2") == 1
    ((generation, references),) = recorded
    _agree(generation, references)
    assert generation.verdict == "fail"
    by_m = {w["m"]: w for w in generation.witnesses}
    assert by_m["a"] == {"m": "a", "step": 4, "reason": "no contact element carries ε to a"}


def _free2_input(horizon=4, **changes):
    oracle, _ = parse_monoid_spec(os.path.join(FIXTURES, "free2.json"))
    inp = SmInput(oracle, GammaOracle(oracle, horizon), Fraction(1), horizon)
    return replaced(inp, **changes)


def test_planted_missing_letter_gives_the_same_witnesses():
    inp = _free2_input()
    report = extract_generators(inp)
    planted = replaced(report, generators=[s for s in report.generators if s != ("b",)])
    generation = svarcmilnor.verify_generation_bound(planted, inp)
    _agree(generation, _references(planted, inp))
    by_m = {w["m"]: w for w in generation.witnesses}
    assert by_m["b"]["reason"] == "no contact element carries ε to b"
    assert "a" not in by_m


def test_planted_uncovered_vertex_gives_the_same_witnesses():
    # With no representative there is no candidate, so none covers any
    # sample: every element but ε fails at sample 1.
    inp = _free2_input(representatives=())
    report = extract_generators(inp)
    generation = svarcmilnor.verify_generation_bound(report, inp)
    _agree(generation, _references(report, inp))
    assert generation.witnesses[0] == {"m": "a", "step": 1, "reason": "no covering translate for sample vertex"}
    assert list(generation.artifacts["factorizations"]) == ["ε"]


def test_an_uncovered_sample_outranks_an_earlier_missing_step(monkeypatch):
    # Without b in S the step from ε to b fails on every word through b, at
    # step 2; a later sample on the uncovered vertex ba still names ba's
    # witness, since the covers are searched before the steps.  The walk by
    # prefix extension must keep looking for covers past a failed step.
    uncovered, search, cover = ("b", "a"), covering_elements, svarcmilnor._Walk._cover

    def covering(inp, translates, x):
        return iter(()) if x.element == uncovered else search(inp, translates, x)

    monkeypatch.setattr(svarcmilnor._Walk, "_cover", lambda self, v: None if v == uncovered else cover(self, v))
    monkeypatch.setitem(globals(), "covering_elements", covering)
    inp = _free2_input()
    report = extract_generators(inp)
    planted = replaced(report, generators=[s for s in report.generators if s != ("b",)])
    generation = svarcmilnor.verify_generation_bound(planted, inp)
    _agree(generation, _references(planted, inp))
    by_m = {w["m"]: w for w in generation.witnesses}
    assert by_m["b"] == {"m": "b", "step": 2, "reason": "no contact element carries ε to b"}
    assert by_m["ba"] == {"m": "ba", "step": 7, "reason": "no covering translate for sample vertex"}
    assert by_m["bab"]["step"] == 7 and by_m["bb"]["step"] == 2


# ---------------------------------------------------------------------------
# The cover by construction is the translate search's first cover
# ---------------------------------------------------------------------------


@pytest.fixture
def extractions(monkeypatch):
    """(report, input) of every verify_generation_bound call the pipelines make."""
    calls = []
    real = svarcmilnor.verify_generation_bound

    def record(report, inp):
        calls.append((report, inp))
        return real(report, inp)

    monkeypatch.setattr(svarcmilnor, "verify_generation_bound", record)
    return calls


def _agreeing_covers(report, inp):
    """The walk's cover of each vertex of N's horizon ball, checked against
    the first covering element of the translate search."""
    walk, translates = svarcmilnor._Walk(report, inp), translates_of(inp, report)
    covers = {}
    for v in inp.gamma.monoid.elements_up_to(inp.horizon):
        covers[v] = walk._cover(v)
        assert covers[v] == next(covering_elements(inp, translates, Vertex(v)), None), v
    return covers


COVER_CASES = [
    (f"{name}.json", horizon, radius)
    for name in ("free1", "free2", "z3", "s3", "fp_r1_z2", "fp_r2_z2")
    for horizon in range(2, 9)
    for radius in ("1/2", "1", "3/2", "2")
]


@pytest.mark.parametrize(
    "fixture,horizon,radius", COVER_CASES, ids=[f"{f} h{h} R{r}" for f, h, r in COVER_CASES],
)
def test_svarc_milnor_cover_is_the_first_covering_translate(extractions, monkeypatch, fixture, horizon, radius):
    if radius == "1/2":
        # B holds [0, 1/2] of each edge out of ε and no translate holds the
        # rest: the cobounded hypothesis is passed over to reach the walk.
        monkeypatch.setattr(svarcmilnor, "check_cobounded", lambda *args: PropertyReport("cobounded", "pass", horizon))
    _run_cli(fixture, "--horizon", str(horizon), "svarc-milnor", "-R", radius)
    ((report, inp),) = extractions
    # T = {ε}: each vertex covers itself.
    assert all(cover == v for v, cover in _agreeing_covers(report, inp).items())


@pytest.mark.parametrize("command", ["submonoid", "free-product"])
@pytest.mark.parametrize("fixture", ["fp_r1_z2.json", "fp_r2_z2.json"])
@pytest.mark.parametrize("horizon", [2, 3, 4, 5, 6])
def test_submonoid_cover_is_the_first_covering_translate(extractions, command, fixture, horizon):
    assert _run_cli(fixture, "--horizon", str(horizon), command) == 0
    ((report, inp),) = extractions
    covers = _agreeing_covers(report, inp)
    # T = P: a vertex that ends in a group letter g is not in M, and v·g⁻¹ is.
    assert None not in covers.values()
    assert any(cover != v for v, cover in covers.items())


def test_no_representative_gives_no_cover():
    inp = _free2_input(representatives=())
    assert set(_agreeing_covers(extract_generators(inp), inp).values()) == {None}


def test_a_representative_outside_the_ball_is_skipped():
    # In fp_r1_z2, g = g⁻¹ is in B at R = 1, so with T = (g, ε) each v is
    # covered by v·g.  Planted out of B, g covers nothing and ε covers v.
    oracle, _ = parse_monoid_spec(os.path.join(FIXTURES, "fp_r1_z2.json"))
    inp = SmInput(oracle, GammaOracle(oracle, 4), Fraction(1), 4)
    report = extract_generators(inp)
    planted = replaced(inp, representatives=(("g",), ()))
    assert report.ball.contains(Vertex(("g",)))
    covers = _agreeing_covers(report, planted)
    assert all(cover == oracle.multiply(v, ("g",)) for v, cover in covers.items())
    without_g = replaced(report, ball=CellSet([()]))
    assert all(cover == v for v, cover in _agreeing_covers(without_g, planted).items())


# ---------------------------------------------------------------------------
# Work guards: one S search per pair, no translate, one extension per prefix
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


@pytest.fixture
def translated(monkeypatch):
    """The elements m of every translate mB built from here on, in order."""
    built, translate = [], CellSet.translate

    def counted(self, oracle, m):
        built.append(m)
        return translate(self, oracle, m)

    monkeypatch.setattr(CellSet, "translate", counted)
    return built


# At h = 7 > ceil(3R) - 1 the walk samples vertices past the separations ball.
@pytest.mark.parametrize(
    "args", [["--horizon", "5", "free-product"], ["--horizon", "7", "svarc-milnor", "-R", "1"]],
    ids=["free-product h5", "svarc-milnor h7 R1"],
)
def test_generation_searches_once_per_pair_and_builds_no_translate(monkeypatch, translated, args):
    real = svarcmilnor.verify_generation_bound
    seen = {}

    def guarded(report, inp):
        oracle = inp.monoid
        searches = []
        S = _SearchedS(report.generators, searches)
        multiply, before = oracle.multiply, len(translated)

        def counted_multiply(x, u):
            probes, S.pending = S.pending, None  # set: the probe of the u just yielded
            y = multiply(x, u)
            if probes is not None:
                probes.append((x, y))
            return y

        with monkeypatch.context() as m:
            m.setattr(oracle, "multiply", counted_multiply)
            generation = real(replaced(report, generators=S), inp)
        seen.update(generation=generation, searches=searches, built=translated[before:], oracle=oracle)
        return generation

    monkeypatch.setattr(svarcmilnor, "verify_generation_bound", guarded)
    assert _run_cli("fp_r2_z2.json", *args) == 0

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
    # The samples are covered by construction: the walk builds no translate.
    assert translated and seen["built"] == []


@pytest.mark.parametrize("fixture,built", [("fp_r2_z2.json", 12), ("fp_r1_z2.json", 6)])
def test_a_run_translates_only_by_the_separations_and_cobounded_balls(translated, fixture, built):
    # At R = 1 the translates are those of the separations ball, of radius
    # ceil(3R) - 1 = 2 whatever the horizon, and of the cobounded check's
    # in-ball candidates about ε; the generation walk, which samples the
    # whole horizon ball, adds none.
    assert _run_cli(fixture, "--horizon", "7", "svarc-milnor", "-R", "1") == 0
    oracle, _ = parse_monoid_spec(os.path.join(FIXTURES, fixture))
    candidates = GammaOracle(oracle, 7).in_ball_cellset(oracle.identity, Fraction(1), 7).vertices
    assert len(translated) == len(set(translated)) == built
    assert set(translated) == set(oracle.elements_up_to(2)) | candidates
    assert len(oracle.elements_up_to(7)) > built


@pytest.mark.parametrize(
    "fixture,args",
    [("fp_r2_z2.json", ["free-product"]), ("fp_r2_z2.json", ["svarc-milnor", "-R", "1"]),
     ("fp_r1_z2.json", ["svarc-milnor", "-R", "3/2"]), ("s3.json", ["svarc-milnor", "-R", "1"])],
)
def test_each_witness_prefix_is_extended_once_by_at_most_ceil_inverse_l_samples(monkeypatch, fixture, args):
    walks, extensions, covered = [], [], []
    init, extend, cover = svarcmilnor._Walk.__init__, svarcmilnor._Walk._extend, svarcmilnor._Walk._cover

    def counted_init(self, report, inp):
        init(self, report, inp)
        walks.append(self)

    def counted_cover(self, v):  # one call per sample a walk visits
        covered.append(v)
        return cover(self, v)

    def counted_extend(self, state, w):
        before = len(covered)
        out = extend(self, state, w)
        extensions.append((w, len(covered) - before))
        return out

    monkeypatch.setattr(svarcmilnor._Walk, "__init__", counted_init)
    monkeypatch.setattr(svarcmilnor._Walk, "_cover", counted_cover)
    monkeypatch.setattr(svarcmilnor._Walk, "_extend", counted_extend)
    assert _run_cli(fixture, "--horizon", "5", *args) == 0

    (walk,) = walks
    inp, l = walk.inp, walk.report.l
    witnesses = [shortest_word(inp.gamma.monoid, inp.monoid.identity, m, inp.far)
                 for m in inp.monoid.elements_up_to(inp.horizon)]
    prefixes = {w[:j] for w in witnesses for j in range(1, len(w) + 1)}
    words = [w for w, _ in extensions]
    assert len(words) == len(set(words)) and set(words) == prefixes
    assert max(n for _, n in extensions) <= -(-l.denominator // l.numerator)  # ceil(1/l)
    # The per-element walks visited every sample of every witness.
    assert sum(n for _, n in extensions) < sum(len(w) * l.denominator // l.numerator for w in witnesses)


def _geodesics(oracle, horizon):
    """Every shortest word of each element within `horizon`, in BFS order."""
    depth = {oracle.identity: 0}
    words = {oracle.identity: [()]}
    level = [oracle.identity]
    for d in range(1, horizon + 1):
        nxt = []
        for x in level:
            for s, y in zip(oracle.generators, oracle.successors(x)):
                if y not in depth:
                    depth[y] = d
                    words[y] = []
                    nxt.append(y)
                if depth[y] == d:
                    words[y].extend(w + (s,) for w in words[x])
        level = nxt
    return words


def _element(oracle, w):
    x = oracle.identity
    for s in w:
        x = oracle.successors(x)[oracle.generators.index(s)]
    return x


@pytest.mark.parametrize("pick", ["random", "against the prefix"])
def test_witnesses_that_are_not_prefix_closed_give_the_same_report(monkeypatch, pick):
    # S5 at its diameter 11 has many shortest words per element (the fixtures'
    # other monoids have one, or S3's, whose ball is all of it at depth 2).
    # Each element gets one at random, or, in BFS order, one whose prefix is
    # not the witness of its own element wherever there is such a word.
    oracle, horizon = symmetric_group_5(), 11
    rng = random.Random(5)
    chosen = {}
    for m, ws in _geodesics(oracle, horizon).items():
        ws = sorted(ws)
        off = [w for w in ws if w and chosen[_element(oracle, w[:-1])] != w[:-1]]
        chosen[m] = rng.choice(ws) if pick == "random" else (off or ws)[0]
    broken = sum(1 for w in chosen.values() if w and chosen[_element(oracle, w[:-1])] != w[:-1])
    assert broken >= (5 if pick == "random" else 15)

    def shuffled_witness(monoid, x, y, far):
        assert monoid is oracle and x == oracle.identity
        return chosen[y]

    monkeypatch.setattr(svarcmilnor, "shortest_word", shuffled_witness)
    monkeypatch.setitem(globals(), "shortest_word", shuffled_witness)
    inp = SmInput(oracle, GammaOracle(oracle, horizon), Fraction(1), horizon)
    report = extract_generators(inp)
    generation = svarcmilnor.verify_generation_bound(report, inp)
    assert generation.passed
    _agree(generation, _references(report, inp))
