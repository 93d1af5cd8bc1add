"""Reference checks computed apart from the program.

Nothing here imports monoidgeo.  Each check takes a report (or a query
answer) as the program printed it, recomputes what it must say with the
benchmark's own arithmetic, and returns a list of problems; an empty list
means the output is correct.
"""

from __future__ import annotations

from fractions import Fraction

# ---------------------------------------------------------------------------
# Permutations (group-extraction)
# ---------------------------------------------------------------------------


def compose(p, q):
    """The product p*q: apply p, then q."""
    return tuple(q[i] for i in p)


def perm_distances(gens) -> dict:
    """Directed Cayley distances d(e, g) over right multiplication by gens."""
    e = tuple(range(len(gens[0])))
    dist = {e: 0}
    frontier = [e]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = compose(x, g)
                if y not in dist:
                    dist[y] = dist[x] + 1
                    nxt.append(y)
        frontier = nxt
    return dist


def tokenize(text: str, letters) -> list:
    """Longest-match split of a printed word; the empty word prints as ε."""
    if text == "ε":
        return []
    by_len = sorted(letters, key=len, reverse=True)
    out, i = [], 0
    while i < len(text):
        for g in by_len:
            if text.startswith(g, i):
                out.append(g)
                i += len(g)
                break
        else:
            raise ValueError(f"cannot split {text!r} at {i}")
    return out


def _frac(pair) -> Fraction:
    return Fraction(pair[0], pair[1])


def _exact(doc) -> Fraction | None:
    if doc.get("kind") != "exact":
        return None
    return Fraction(doc["num"], doc["den"])


def check_group_extraction(report: dict, gens: dict) -> list:
    """The svarc-milnor report on a finite group given by permutations.

    `gens` maps generator names to permutations.  Checks that every
    reported factorization uses only letters of the reported contact set S
    and multiplies back to its element, every length is at most D/l + 1
    with D from our own BFS, lambda = max over S of d(e, s), l = r/2, and
    every group element is factored.
    """
    problems = []
    names = list(gens)
    e = tuple(range(len(next(iter(gens.values())))))
    dist = perm_distances([gens[g] for g in names])

    def perm(word: str):
        p = e
        for g in tokenize(word, names):
            p = compose(p, gens[g])
        return p

    if report.get("exit_code") != 0:
        problems.append(f"exit_code {report.get('exit_code')}")
    res = report["result"]
    ext = res["extraction"]
    r, l = _frac(ext["r"]), _frac(ext["l"])
    if l != r / 2:
        problems.append(f"l = {l} but r/2 = {r / 2}")
    lam = _exact(ext["lambda"])
    want_lam = max(dist[perm(s)] for s in ext["S"])
    if lam != want_lam:
        problems.append(f"lambda = {lam} but max_s d(e, s) = {want_lam}")
    for claim in ("claim1", "claim2"):
        if ext[claim]["verdict"] != "pass":
            problems.append(f"{claim} verdict {ext[claim]['verdict']}")
    for part in ("generation", "qi"):
        if res[part]["verdict"] != "pass":
            problems.append(f"{part} verdict {res[part]['verdict']}")
    facts = res["generation"]["artifacts"]["factorizations"]
    contact = set(ext["S"])
    factored = set()
    for m_text, f in facts.items():
        m = perm(m_text)
        factored.add(m)
        if not contact.issuperset(f["letters"]):
            problems.append(f"factorization of {m_text} uses letters outside S")
        product = e
        for u in f["letters"]:
            product = compose(product, perm(u))
        if product != m:
            problems.append(f"factorization of {m_text} multiplies to another element")
        if len(f["letters"]) != f["length"]:
            problems.append(f"factorization of {m_text}: length field {f['length']}")
        if f["length"] > Fraction(dist[m]) / l + 1:
            problems.append(f"factorization of {m_text}: length {f['length']} > D/l + 1")
    if factored != set(dist):
        problems.append(f"{len(factored)} of {len(dist)} elements factored")
    return problems


# ---------------------------------------------------------------------------
# Free product F_r * Z2 (fp-corollary)
# ---------------------------------------------------------------------------


def fp_product(words, free_letters, group_letter):
    """Alternating form g0 x1 g1 ... xn gn of a product, Z2 parts as 0/1."""
    groups, frees = [0], []
    for w in words:
        for letter in w:
            if letter == group_letter:
                groups[-1] ^= 1
            elif letter in free_letters:
                frees.append(letter)
                groups.append(0)
            else:
                raise ValueError(f"unknown letter {letter!r}")
    return tuple(groups), tuple(frees)


def check_free_product(report: dict, free_letters, group_letter: str) -> list:
    """The free-product corollary report for F_r * Z2.

    Checks the basis size r*|G|, the realized constants lambda <= 2,
    eps = 0 and mu = 1, that the generation certificate uses only the
    submonoid's reported generators, and that every nested factorization
    (the generation certificate and the MP factorizations) multiplies back
    under our own alternating-form product.
    """
    problems = []
    letters = list(free_letters) + [group_letter]

    def alt(*texts):
        return fp_product([tokenize(t, letters) for t in texts], free_letters, group_letter)

    if report.get("exit_code") != 0:
        problems.append(f"exit_code {report.get('exit_code')}")
    res = report["result"]
    if res["verdict"] != "pass":
        problems.append(f"verdict {res['verdict']}")
    art = res["artifacts"]
    want = len(free_letters) * 2
    basis = {alt(b) for b in art["basis"]}
    if art["basis_size"] != want or len(art["basis"]) != want or len(basis) != want:
        problems.append(f"basis size {art['basis_size']} / {len(basis)} distinct, want {want}")
    if _frac(art["realized_lambda"]) > 2:
        problems.append(f"realized lambda {_frac(art['realized_lambda'])} > 2")
    if _frac(art["realized_eps"]) != 0:
        problems.append(f"realized eps {_frac(art['realized_eps'])} != 0")
    if _frac(art["realized_mu"]) != 1:
        problems.append(f"realized mu {_frac(art['realized_mu'])} != 1")
    sub = art["submonoid"]["artifacts"]
    facts = sub["generation"]["artifacts"]["factorizations"]
    if not facts:
        problems.append("no generation factorizations")
    generators = set(sub["S"])
    for m_text, f in facts.items():
        if not generators.issuperset(f["letters"]):
            problems.append(f"factorization of {m_text} uses letters outside S")
        if len(f["letters"]) != f["length"]:
            problems.append(f"factorization of {m_text}: length field {f['length']}")
        if alt(*f["letters"]) != alt(m_text):
            problems.append(f"factorization of {m_text} multiplies to another element")
    for n_text, (m_text, p_text) in sub["MP_factorizations"].items():
        if alt(m_text, p_text) != alt(n_text):
            problems.append(f"MP factorization {m_text}*{p_text} != {n_text}")
    return problems


# ---------------------------------------------------------------------------
# Word axioms (axioms-check)
# ---------------------------------------------------------------------------


def free_sample_sizes(rank: int, depth: int) -> tuple:
    """(word sample, Cayley sample) sizes `check axioms` uses on a free monoid:
    the ball of radius depth, and that ball plus one edge midpoint per
    generator on every element of the ball of radius depth - 1."""
    ball = sum(rank**k for k in range(depth + 1))
    inner = sum(rank**k for k in range(depth))
    return ball, ball + rank * inner


def check_axioms_sample(sizes: list, rank: int, depth: int) -> list:
    """`check axioms` must have checked the word sample and then the Cayley
    sample at their full sizes; `sizes` holds the size of each
    ``check_axioms`` call's sample, in order."""
    want = list(free_sample_sizes(rank, depth))
    return [] if sizes == want else [f"check_axioms samples of sizes {sizes}, want {want}"]


def check_axioms_report(report: dict) -> list:
    problems = []
    if report.get("exit_code") != 0:
        problems.append(f"exit_code {report.get('exit_code')}")
    for part in ("word_metric", "gamma"):
        sub = report["result"][part]
        if sub["verdict"] != "pass" or sub["violations"]:
            problems.append(f"{part}: {len(sub['violations'])} violations")
    return problems


# ---------------------------------------------------------------------------
# N^3 closed forms (distance-queries)
# ---------------------------------------------------------------------------

# A truncated distance: ("known", Fraction) or ("above", Fraction).


def n3_distance(x, y, horizon: int):
    """d(x, y) in N^3: |y| - |x| when x <= y componentwise and within the
    horizon; otherwise only known to exceed the horizon (N^3 is infinite,
    so a search never certifies unreachability)."""
    if all(a <= b for a, b in zip(x, y)) and sum(y) - sum(x) <= horizon:
        return ("known", Fraction(sum(y) - sum(x)))
    return ("above", Fraction(horizon))


def _plus(d, c):
    return (d[0], d[1] + c)


def _tmin(items):
    known = [v for k, v in items if k == "known"]
    bounds = [v for k, v in items if k == "above"]
    if known and all(min(known) <= b for b in bounds):
        return ("known", min(known))
    return ("above", min(bounds))


def _step(x, letter):
    i = "abc".index(letter)
    return tuple(v + (j == i) for j, v in enumerate(x))


def n3_gamma(p, q, horizon: int):
    """The five-case distance on Γ(N^3) from reference vertex distances."""
    d = lambda a, b: n3_distance(a, b, horizon)
    if p[0] == "v" and q[0] == "v":
        return d(p[1], q[1])
    if p[0] == "v":
        return _plus(d(p[1], q[1]), q[3])
    _, m, x, mu = p
    if q[0] == "v":
        return _tmin([_plus(d(m, q[1]), mu), _plus(d(_step(m, x), q[1]), 1 - mu)])
    _, n, y, nu = q
    if m == n and x == y:
        return ("known", abs(mu - nu))
    return _plus(n3_gamma(p, ("v", n), horizon), nu)


def n3_out_ball(x, radius: Fraction):
    """Vertices {y : x <= y, |y| - |x| <= radius} and, for each vertex at
    level k < radius, the segment [0, min(1, radius - k)] on every edge."""
    depth = int(radius)
    vertices, segments = set(), set()
    for da in range(depth + 1):
        for db in range(depth + 1 - da):
            for dc in range(depth + 1 - da - db):
                y = (x[0] + da, x[1] + db, x[2] + dc)
                vertices.add(y)
                room = radius - (da + db + dc)
                if room > 0:
                    for s in "abc":
                        segments.add((y, s, Fraction(0), min(Fraction(1), room)))
    return vertices, segments


def _td(doc):
    kind = "known" if doc[0] == "known" else "above"
    if doc[1] is None:  # infinite, which N^3 never certifies
        return (kind, None)
    return (kind, Fraction(doc[1], doc[2]))


def _pt(doc):
    if doc[0] == "v":
        return ("v", tuple(doc[1]))
    return ("e", tuple(doc[1]), doc[2], Fraction(*doc[3]))


def check_query(query: list, answer: list, horizon: int) -> list:
    """One distance-queries answer, as the query child prints it.

    dist:  [kind, num, den, witness letters or None]
    gamma: [kind, num, den]
    ball:  [vertex vectors, [vector, letter, [lo], [hi]] segments]
    """
    kind = query[0]
    if kind == "dist":
        x, y = tuple(query[1]), tuple(query[2])
        want = n3_distance(x, y, horizon)
        got = _td(answer)
        problems = [] if got == want else [f"d({x}, {y}) = {got}, want {want}"]
        witness = answer[3]
        if want[0] == "known":
            if witness is None:
                problems.append(f"d({x}, {y}): no witness")
            else:
                end = x
                for letter in witness:
                    end = _step(end, letter)
                if end != y or len(witness) != want[1]:
                    problems.append(f"d({x}, {y}): witness {''.join(witness)} is not a shortest path")
        elif witness is not None:
            problems.append(f"d({x}, {y}): witness beyond the horizon")
        return problems
    if kind == "gamma":
        p, q = _pt(query[1]), _pt(query[2])
        want = n3_gamma(p, q, horizon)
        got = _td(answer)
        return [] if got == want else [f"gamma({query[1]}, {query[2]}) = {got}, want {want}"]
    if kind == "ball":
        x, radius = tuple(query[1]), Fraction(*query[2])
        want_v, want_s = n3_out_ball(x, radius)
        got_v = {tuple(v) for v in answer[0]}
        got_s = {(tuple(m), s, Fraction(*lo), Fraction(*hi)) for m, s, lo, hi in answer[1]}
        problems = []
        if got_v != want_v:
            problems.append(f"out-ball({x}, {radius}): vertices differ")
        if got_s != want_s:
            problems.append(f"out-ball({x}, {radius}): segments differ")
        return problems
    return [f"unknown query kind {kind!r}"]
