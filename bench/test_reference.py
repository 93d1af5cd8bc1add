"""Self-tests of the benchmark: each reference check passes the program's
real output and fails on a planted wrong answer; the tracer leaves no
unwrapped binding and notices one; differing outputs within a run are
caught.

Run from the repository root:  python3 -m pytest -q bench/test_reference.py
"""

from __future__ import annotations

import copy
import json
import os
import random
import subprocess
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import inputs  # noqa: E402
import reference  # noqa: E402

ENV = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
FIXTURES = os.path.join(ROOT, "tests", "fixtures")


def cli(*args) -> dict:
    out = subprocess.run(
        [sys.executable, "-m", "monoidgeo.cli", *args], env=ENV, capture_output=True, check=True
    )
    return json.loads(out.stdout)


def _spec_file(tmp_path, doc):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(doc))
    return str(path)


# S3 with a 3-cycle and a transposition: the group-extraction check on a
# group small enough to run in a test.
S3 = {"a": (1, 2, 0), "b": (1, 0, 2)}


def _s3_report(tmp_path):
    doc, horizon = inputs.perm_group_spec(S3["a"], S3["b"], random.Random(0))
    return cli("--monoid", _spec_file(tmp_path, doc), "--horizon", str(horizon), "svarc-milnor", "-R", "1")


def test_group_extraction_check(tmp_path):
    report = _s3_report(tmp_path)
    assert reference.check_group_extraction(report, S3) == []

    def planted(edit):
        bad = copy.deepcopy(report)
        edit(bad["result"])
        return reference.check_group_extraction(bad, S3)

    facts = report["result"]["generation"]["artifacts"]["factorizations"]
    m = next(k for k, f in facts.items() if any(u != "ε" for u in f["letters"]))

    def wrong_letter(res):
        f = res["generation"]["artifacts"]["factorizations"][m]
        f["letters"] = ["a" if u != "a" else "b" for u in f["letters"]]

    def too_long(res):
        f = res["generation"]["artifacts"]["factorizations"][m]
        f["letters"] += ["ε"] * 100
        f["length"] += 100

    def wrong_lambda(res):
        res["extraction"]["lambda"]["num"] += 1

    def wrong_l(res):
        res["extraction"]["l"] = res["extraction"]["r"]

    def missing(res):
        del res["generation"]["artifacts"]["factorizations"][m]

    outside = next(k for k in facts if k not in report["result"]["extraction"]["S"])

    def trivial(res):
        # [n] multiplies back to n and is short, but n is no letter of S.
        f = res["generation"]["artifacts"]["factorizations"][outside]
        f["letters"], f["length"] = [outside], 1

    for edit in (wrong_letter, too_long, wrong_lambda, wrong_l, missing, trivial):
        assert planted(edit), edit.__name__


def test_group_input_is_a_table_of_a5_with_its_diameter():
    doc, horizon, gens = inputs.group_spec(7)
    assert len(doc["elements"]) == 120 and horizon == max(reference.perm_distances(list(gens.values())).values())
    assert inputs.group_spec(7) == (doc, horizon, gens) and inputs.group_spec(8)[0] != doc


def test_free_product_check():
    report = cli("--monoid", os.path.join(FIXTURES, "fp_r1_z2.json"), "--horizon", "4", "free-product")
    assert reference.check_free_product(report, ["f"], "g") == []

    def planted(edit):
        bad = copy.deepcopy(report)
        edit(bad["result"]["artifacts"])
        return reference.check_free_product(bad, ["f"], "g")

    sub = report["result"]["artifacts"]["submonoid"]["artifacts"]
    m = next(k for k, f in sub["generation"]["artifacts"]["factorizations"].items() if "f" in k)
    n = next(k for k, (_, p) in sub["MP_factorizations"].items() if p == "g")

    def basis(art):
        art["basis"] = art["basis"][:1]

    def lam(art):
        art["realized_lambda"] = [3, 1]

    def eps(art):
        art["realized_eps"] = [1, 2]

    def mu(art):
        art["realized_mu"] = [2, 1]

    def factorization(art):
        f = art["submonoid"]["artifacts"]["generation"]["artifacts"]["factorizations"][m]
        f["letters"] = f["letters"] + ["g"]

    def mp(art):
        art["submonoid"]["artifacts"]["MP_factorizations"][n][1] = "ε"

    outside = next(k for k in sub["generation"]["artifacts"]["factorizations"] if k not in sub["S"])

    def trivial(art):
        # [n] multiplies back to n, but n is no generator of the submonoid.
        f = art["submonoid"]["artifacts"]["generation"]["artifacts"]["factorizations"][outside]
        f["letters"], f["length"] = [outside], 1

    for edit in (basis, lam, eps, mu, factorization, mp, trivial):
        assert planted(edit), edit.__name__


def test_axioms_check():
    report = cli("--monoid", os.path.join(FIXTURES, "free2.json"), "--horizon", "4", "check", "axioms", "--depth", "2")
    assert reference.check_axioms_report(report) == []
    bad = copy.deepcopy(report)
    bad["result"]["gamma"]["violations"].append({"points": ["v:a", "v:b", "v:ab"]})
    assert reference.check_axioms_report(bad)
    assert reference.free_sample_sizes(2, 5) == (63, 125)
    assert reference.check_axioms_sample([63, 125], 2, 5) == []
    assert reference.check_axioms_sample([62, 125], 2, 5)
    assert reference.check_axioms_sample([63], 2, 5)


def test_cli_child_records_axioms_samples(tmp_path):
    side = tmp_path / "side.json"
    args = ["--monoid", os.path.join(FIXTURES, "free2.json"), "--horizon", "4", "check", "axioms", "--depth", "2"]
    out = subprocess.run([sys.executable, os.path.join(HERE, "cli_child.py"), str(side), "--", *args],
                         capture_output=True, check=True)
    assert json.loads(out.stdout) == cli(*args)
    doc = json.loads(side.read_text())
    sizes = doc["samples"]
    assert sizes == list(reference.free_sample_sizes(2, 2))
    assert 0 < doc["reference_s"] < 60
    assert reference.check_axioms_sample(sizes, 2, 2) == []


def test_query_stream_follows_the_mix():
    h = inputs.N3_HORIZON
    for seed in (1, 2, 3):
        queries = inputs.query_stream(seed, 100)
        assert len({json.dumps(q) for q in queries}) == 100
        classes = {}
        for q in queries:
            if q[0] == "dist":
                d = reference.n3_distance(tuple(q[1]), tuple(q[2]), h)
                cls = ("dist", d[0])
            elif q[0] == "gamma":
                p, r = reference._pt(q[1]), reference._pt(q[2])
                cls = ("gamma", p[0] + r[0], reference.n3_gamma(p, r, h)[0])
            else:
                cls = ("ball",)
            cls = tuple("unreachable" if c == "above" else c for c in cls)
            classes[cls] = classes.get(cls, 0) + 1
        assert classes == inputs.MIX


def test_query_checks(tmp_path):
    queries = inputs.query_stream(11, 60)
    qpath, apath = tmp_path / "q.json", tmp_path / "a.json"
    qpath.write_text(json.dumps(queries))
    subprocess.run([sys.executable, os.path.join(HERE, "queries.py"), str(qpath), str(apath)], check=True)
    doc = json.loads(apath.read_text())
    answers = doc["answers"]
    assert doc["setup_s"] > 0 and all(t > 0 for t in doc["latencies"])
    h = inputs.N3_HORIZON
    for q, a in zip(queries, answers):
        assert reference.check_query(q, a, h) == [], q
    kinds = {q[0] for q in queries}
    assert kinds == {"dist", "gamma", "ball"}

    # Planted wrong answers, one per claim the checks make.
    x, y = [1, 0, 2], [2, 1, 2]
    good = ["known", 2, 1, ["a", "b"]]
    assert reference.check_query(["dist", x, y], good, h) == []
    assert reference.check_query(["dist", x, y], ["known", 3, 1, ["a", "b"]], h)
    assert reference.check_query(["dist", x, y], ["known", 2, 1, ["a", "c"]], h)
    assert reference.check_query(["dist", x, y], ["known", 2, 1, ["a", "b", "c"]], h)
    assert reference.check_query(["dist", x, y], ["known", 2, 1, None], h)
    assert reference.check_query(["dist", y, x], ["known", None, None, None], h)
    assert reference.check_query(["dist", y, x], ["above", 10, 1, None], h) == []
    far = [1, 0, 2 + h + 1]
    assert reference.check_query(["dist", x, far], ["above", 10, 1, None], h) == []
    assert reference.check_query(["dist", x, far], ["known", h + 1, 1, ["c"] * (h + 1)], h)

    p = ["e", x, "a", [1, 2]]
    q = ["v", y]
    # via the edge's far end (2,0,2): 1/2 + d((2,0,2), (2,1,2)) = 3/2
    assert reference.check_query(["gamma", p, q], ["known", 3, 2], h) == []
    assert reference.check_query(["gamma", p, q], ["known", 5, 2], h)
    assert reference.check_query(["gamma", p, ["e", x, "a", [1, 4]]], ["known", 1, 4], h) == []
    assert reference.check_query(["gamma", p, ["e", x, "a", [1, 4]]], ["known", 3, 4], h)

    ball = reference.n3_out_ball((0, 0, 0), Fraction(3, 2))
    vertices = sorted(list(v) for v in ball[0])
    segments = [[list(m), s, [lo.numerator, lo.denominator], [hi.numerator, hi.denominator]]
                for m, s, lo, hi in sorted(ball[1])]
    query = ["ball", [0, 0, 0], [3, 2]]
    assert reference.check_query(query, [vertices, segments], h) == []
    assert reference.check_query(query, [vertices[:-1], segments], h)
    assert reference.check_query(query, [vertices, segments[1:]], h)


def test_tracer_wraps_every_binding():
    script = f"""
import sys
sys.path[:0] = [{HERE!r}, {os.path.join(ROOT, "src")!r}]
import monoidgeo, monoidgeo.cli
from monoidgeo import svarcmilnor
from tracing import Tracer
original = svarcmilnor.word_distance
t = Tracer()
t.install(monoidgeo)
assert t.unwrapped_bindings(monoidgeo) == [], t.unwrapped_bindings(monoidgeo)
assert svarcmilnor.word_distance is not original
svarcmilnor.word_distance = original
assert t.unwrapped_bindings(monoidgeo) == ["monoidgeo.svarcmilnor.word_distance"]
"""
    subprocess.run([sys.executable, "-c", script], check=True)


def test_speed_scales_cpu_time_by_the_units():
    import speed

    assert speed.speed([speed.REF_UNIT_S] * 3) == 1.0
    assert speed.speed([2 * speed.REF_UNIT_S]) == 0.5
    assert speed.unit() > 0
    sampler = speed.Sampler(interval=0.001)
    sampler.start()
    try:
        t_end = speed.process_cpu_s() + 0.2
        while speed.process_cpu_s() < t_end:
            pass
    finally:
        sampler.stop()
    assert len(sampler.units) >= 5
    assert sampler.reference_s() > 0


def test_outputs_must_match_across_operations():
    import run

    class Workload:
        def result(self, child):
            return [], [1.0], None, 1, 0

    class Finished:
        def __init__(self, stdout):
            self.code, self.stdout = 0, stdout

    tally = run.Tally()
    tally.add(Workload(), Finished(b"report"))
    tally.add(Workload(), Finished(b"report"))
    assert tally.problems == []
    tally.add(Workload(), Finished(b"other report"))
    assert tally.problems
