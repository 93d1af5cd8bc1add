"""CLI subcommands, exit codes, and report determinism."""

import io
import json
import os
from contextlib import redirect_stdout

import pytest

from monoidgeo import monoids
from monoidgeo.cayley import shortest_word, word_distance
from monoidgeo.cli import main, parse_monoid_spec

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


def fx(name):
    return os.path.join(FIXTURES, name)


def run_cli(*argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(list(argv))
    text = buf.getvalue()
    doc = json.loads(text) if text.strip() else None
    return code, doc, text


def test_parse_monoid_spec_fixtures():
    for name in ("free1", "free2", "z3", "fp_r1_z2", "bicyclic", "zero"):
        oracle, doc = parse_monoid_spec(fx(f"{name}.json"))
        assert oracle.generators


def test_dist_basic():
    code, doc, _ = run_cli("--monoid", fx("free2.json"), "dist", "ε", "ab")
    assert code == 0
    assert doc["result"]["distance"] == {"kind": "exact", "num": 2, "den": 1}
    assert doc["result"]["witness"] == "ab"


def test_dist_infinite():
    code, doc, _ = run_cli("--monoid", fx("free1.json"), "dist", "a", "ε")
    assert code == 0
    assert doc["result"]["distance"] == {"kind": "infinite"}


def test_ball_command():
    code, doc, _ = run_cli("--monoid", fx("free1.json"), "ball", "ε", "1", "strong")
    assert code == 0
    ball = doc["result"]["ball"]
    assert ball["vertices"] == ["v:ε"]
    assert ball["segments"] == [{"base": "ε", "gen": "a", "lo": [0, 1], "hi": [1, 1]}]


def test_check_axioms():
    code, doc, _ = run_cli("--monoid", fx("z3.json"), "check", "axioms")
    assert code == 0
    assert doc["result"]["word_metric"]["verdict"] == "pass"
    assert doc["result"]["gamma"]["verdict"] == "pass"


def test_check_axioms_horizon_too_small_names_first_unknown_pair(capsys):
    code, _, text = run_cli("--monoid", fx("n3.json"), "--horizon", "4", "check", "axioms")
    assert code == 2 and text == ""
    assert capsys.readouterr().err == "error: d(a, ε) only known to exceed 4\n"


def test_dist_normalizes_words_before_word_distance():
    # word_distance needs normal forms; the CLI parses ba and ab to the same one.
    code, doc, _ = run_cli("--monoid", fx("n3.json"), "--horizon", "5", "dist", "ba", "ab")
    assert code == 0
    assert doc["result"]["distance"] == {"kind": "exact", "num": 0, "den": 1}
    assert doc["result"]["witness"] == "ε"


def test_check_qi():
    code, doc, _ = run_cli("--monoid", fx("bicyclic.json"), "check", "qi", "--depth", "3")
    assert code == 0


def test_check_quasimetric_group_passes():
    code, doc, _ = run_cli(
        "--monoid", fx("z3.json"), "check", "quasimetric", "--lambda", "2", "--mu", "0"
    )
    assert code == 0


def test_check_quasimetric_free_fails_with_witness():
    code, doc, _ = run_cli(
        "--monoid", fx("free1.json"), "check", "quasimetric", "--lambda", "4", "--mu", "4"
    )
    assert code == 1
    v = doc["result"]["violations"][0]
    assert v["lhs"] == {"kind": "infinite"}


def test_check_cancellative_sides():
    code, doc, _ = run_cli("--monoid", fx("bicyclic.json"), "check", "cancellative", "--side", "left")
    assert code == 1
    assert doc["result"]["verdict"] == "fail" and len(doc["result"]["witnesses"]) == 1
    code, doc, _ = run_cli("--monoid", fx("free2.json"), "check", "cancellative", "--side", "left")
    assert code == 0


def test_check_cancellative_decides_left_cancellation_as_check_action_does():
    # A class that names a cancellation theorem passes on it, at any horizon.
    for name in ("free2", "z3", "fp_r2_z2"):
        oracle, _ = parse_monoid_spec(fx(f"{name}.json"))
        code, doc, _ = run_cli("--monoid", fx(f"{name}.json"), "--horizon", "4", "check", "cancellative")
        assert code == 0 and doc["result"]["verdict"] == "pass"
        assert doc["result"]["artifacts"] == {"basis": f"theorem: {oracle.cancellation_theorem}"}
    # Elsewhere the ball search reaches the verdict and witness check action reports.
    names = sorted(f[: -len(".json")] for f in os.listdir(FIXTURES) if f.endswith(".json"))
    assert len(names) == 9
    for name in names:
        for horizon in ("2", "3", "4", "5"):
            code, doc, _ = run_cli("--monoid", fx(f"{name}.json"), "--horizon", horizon, "check", "cancellative")
            action_code, action, _ = run_cli("--monoid", fx(f"{name}.json"), "--horizon", horizon, "check", "action")
            iso = action["result"]["isometric_embedding"]
            assert code == action_code, (name, horizon)
            assert (doc["result"]["verdict"], doc["result"]["witnesses"]) == (iso["verdict"], iso["witnesses"])


def test_check_fgt():
    code, doc, _ = run_cli("--monoid", fx("zero.json"), "check", "fgt", "--threshold", "5")
    assert code == 1
    code, doc, _ = run_cli("--monoid", fx("free2.json"), "check", "fgt", "--threshold", "6")
    assert code == 0


def test_check_unitary():
    code, doc, _ = run_cli("--monoid", fx("fp_r1_z2.json"), "check", "unitary")
    assert code == 0
    # only meaningful on free products
    code, _, _ = run_cli("--monoid", fx("free1.json"), "check", "unitary")
    assert code == 2


@pytest.mark.parametrize("name", ["fp_r1_z2", "fp_r2_z2"])
@pytest.mark.parametrize("depth", [2, 12])
def test_check_unitary_passes_on_the_normal_form_theorem_without_a_ball(name, depth, monkeypatch):
    def refuse(self, n):
        raise AssertionError("check unitary built a ball")

    for cls in (monoids.MonoidOracle, monoids.SubmonoidOracle, monoids.DistanceField):
        monkeypatch.setattr(cls, "elements_up_to", refuse)
    code, doc, _ = run_cli("--monoid", fx(f"{name}.json"), "check", "unitary", "--depth", str(depth))
    assert code == 0
    result = doc["result"]
    assert (result["property"], result["verdict"], result["horizon"]) == ("left_unitary", "pass", depth)
    basis = "theorem: normal form theorem for free products: s*t ends in t's last group letter"
    assert result["artifacts"] == {"basis": basis}


def test_check_action():
    code, doc, _ = run_cli("--monoid", fx("zero.json"), "check", "action", "--depth", "2")
    assert code == 1
    code, doc, _ = run_cli("--monoid", fx("free2.json"), "check", "action", "--depth", "2")
    assert code == 0
    # N³ is cancellative: decided by cancellation, not by distances past the horizon.
    for horizon in ("2", "3", "4", "5"):
        code, doc, _ = run_cli("--monoid", fx("n3.json"), "--horizon", horizon, "check", "action")
        assert code == 0 and doc["result"]["isometric_embedding"]["verdict"] == "holds_at_horizon"
    # One cancellation witness m·a = m·b names a multiplier that is no isometric embedding.
    for name, witness in (("bicyclic", "p·qp = p·ε = p"), ("zero", "z·a = z·ε = z")):
        code, doc, _ = run_cli("--monoid", fx(f"{name}.json"), "--horizon", "4", "check", "action")
        assert code == 1 and doc["result"]["action_laws"]["verdict"] == "pass"
        [w] = doc["result"]["isometric_embedding"]["witnesses"]
        assert f"{w['m']}·{w['a']} = {w['m']}·{w['b']} = {w['product']}" == witness


@pytest.mark.parametrize("name", ["zero", "bicyclic"])
def test_svarc_milnor_rejects_non_cancellative_fixtures(name, capsys):
    code, _, text = run_cli("--monoid", fx(f"{name}.json"), "svarc-milnor", "-R", "1")
    assert code == 2 and text == ""
    assert "hypothesis failed: isometric_embedding" in capsys.readouterr().err


@pytest.mark.parametrize("name,uncovered", [("z3", ["e:ε:g:3/4"]), ("free2", ["e:ε:a:3/4", "e:ε:b:3/4"])])
def test_svarc_milnor_below_half_radius_is_not_cobounded(name, uncovered, capsys):
    # B holds [0, 1/2] of each edge out of ε, and no translate holds the rest.
    code, _, text = run_cli("--monoid", fx(f"{name}.json"), "--horizon", "5", "svarc-milnor", "-R", "1/2")
    assert code == 2 and text == ""
    err = capsys.readouterr().err
    assert f"hypothesis failed: cobounded (uncovered: {uncovered})" in err


def test_cobounded_check_searches_as_far_as_b(tmp_path):
    # Z3 as a rewriting spec has no fast path, so its in-ball candidates are
    # the whole monoid once a ball exhausts it: the ball of radius 2 does
    # not, the ball of B's search horizon 6 does.
    spec = tmp_path / "z3_rewriting.json"
    spec.write_text(json.dumps({"type": "rewriting", "generators": ["a"], "rules": [["aaa", ""]], "confluent": True}))
    code, doc, _ = run_cli("--monoid", str(spec), "--horizon", "2", "svarc-milnor", "-R", "1")
    assert code == 0
    cobounded = doc["result"]["extraction"]["hypotheses"]["cobounded"]
    assert cobounded["verdict"] == "pass" and cobounded["horizon"] == 2


def test_fp_r1_z2_takes_its_contact_set_past_the_horizon():
    # S lies in the ball of radius floor(2R) = 4, past h = 2: claim 2's
    # neighbour gfg is a contact element at depth 3.
    code, doc, _ = run_cli("--monoid", fx("fp_r1_z2.json"), "--horizon", "2", "svarc-milnor", "-R", "2")
    assert code == 0
    assert doc["result"]["extraction"]["S"] == ["ε", "f", "g", "fg", "gf", "gfg"]


def test_off_stock_rules_answer_from_the_field_whatever_their_tag(tmp_path):
    # With these rules p*q is pq, not ε, yet the bicyclic closed form would
    # answer `dist p ε` with distance 1 and witness q.  Only the stock rules
    # pick the closed form; a tag is not read.
    spec = {"type": "rewriting", "generators": ["p", "q"], "rules": [["pp", ""]]}
    path = tmp_path / "pp.json"
    for keys in ({}, {"confluent": True, "fast_path": "bicyclic"}):
        path.write_text(json.dumps({**spec, **keys}))
        code, doc, _ = run_cli("--monoid", str(path), "dist", "p", "ε")
        assert code == 0 and doc["result"]["witness"] == "p", keys


def test_tagged_fixture_witnesses_remultiply():
    tagged = 0
    for name in sorted(os.listdir(FIXTURES)):
        oracle, _ = parse_monoid_spec(fx(name))
        if not isinstance(oracle, (monoids.BicyclicMonoid, monoids.ZeroMonoid)):
            continue
        tagged += 1
        ball = oracle.elements_up_to(4)
        for x in ball:
            for y in ball:
                d = word_distance(oracle, x, y, 8)
                assert d.is_known, (name, x, y)
                if d.value.is_finite:
                    w = shortest_word(oracle, x, y, 8)
                    assert oracle.multiply(x, w) == y and len(w) == d.value.finite_value(), (name, x, y)
    assert tagged == 2


def test_svarc_milnor_f1():
    code, doc, _ = run_cli("--monoid", fx("free1.json"), "svarc-milnor", "-R", "1")
    assert code == 0
    ex = doc["result"]["extraction"]
    assert ex["S"] == ["ε", "a"]
    assert ex["r"] == [1, 2]
    assert ex["l"] == [1, 4]
    assert ex["lambda"] == {"kind": "exact", "num": 1, "den": 1}


def test_submonoid_pipeline():
    code, doc, _ = run_cli("--monoid", fx("fp_r1_z2.json"), "--horizon", "5", "submonoid")
    assert code == 0
    assert doc["result"]["artifacts"]["S"] == ["ε", "f", "gf"]


def test_free_product_pipeline():
    code, doc, _ = run_cli("--monoid", fx("fp_r1_z2.json"), "--horizon", "5", "free-product")
    assert code == 0
    assert doc["result"]["artifacts"]["basis_size"] == 2


def test_free_product_pipelines_use_the_spec_alphabet(tmp_path):
    with open(fx("fp_r1_z2.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    spec = tmp_path / "fp_x.json"
    spec.write_text(json.dumps({**doc, "alphabet": ["x"]}))
    code, sub, _ = run_cli("--monoid", str(spec), "--horizon", "3", "submonoid")
    assert code == 0
    assert sub["result"]["artifacts"]["S"] == ["ε", "x", "gx"]
    code, fp, _ = run_cli("--monoid", str(spec), "--horizon", "3", "free-product")
    assert code == 0
    assert fp["result"]["artifacts"]["basis"] == ["x", "gx"]
    assert fp["result"]["artifacts"]["submonoid"]["artifacts"]["S"] == ["ε", "x", "gx"]


def test_bad_spec_errors_exit_2(tmp_path):
    z2 = {"type": "finite_group", "elements": ["e", "g"], "table": [[0, 1], [1, 0]]}
    a = {"type": "rewriting", "generators": ["a"], "confluent": True}
    bad_docs = [
        {"type": "unknown"},
        # Values of the wrong type, each once a TypeError traceback.
        {"type": "free", "rank": "2"},
        {"type": "free", "rank": None},
        {"type": "free", "rank": 2, "alphabet": 5},
        {"type": "free_product", "free_rank": "1", "group": z2},
        {"type": "table", "elements": 3, "table": [[0]]},
        {"type": "table", "elements": ["e", 1], "table": [[0, 1], [1, 0]]},
        {"type": "table", "elements": ["e", "a"], "table": [[0, 1], [1, 0]], "generators": 5},
        {"type": "table", "elements": ["e"], "table": 0},
        {"type": "table", "elements": ["e"], "table": [[None]]},
        {"type": "table", "elements": ["e"], "table": [[0]], "identity": 7},
        {**z2, "identity": [0]},
        {**a, "generators": 2, "rules": []},
        {**a, "rules": 7},
        {**a, "rules": [5]},
        {**a, "rules": [["aa", 1]]},
        {**a, "rules": [["aa", "a"]], "step_cap": "9"},
        {**a, "rules": [["aa", "a"]], "step_cap": -1},
        # Rules that are not confluent: (aa)b = bb but a(ab) = a.
        {**a, "generators": ["a", "b"], "rules": [["aa", "b"], ["ab", ""]]},
    ]
    for i, spec in enumerate(bad_docs):
        bad = tmp_path / f"bad{i}.json"
        bad.write_text(json.dumps(spec))
        code, doc, text = run_cli("--monoid", str(bad), "dist", "a", "b")
        assert code == 2 and text == "", spec
    missing = tmp_path / "missing.json"
    code, _, _ = run_cli("--monoid", str(missing), "dist", "a", "b")
    assert code == 2


def test_step_cap_counts_rewrites(tmp_path, capsys):
    # ba needs one rewrite of ba -> ab: a cap of 1 allows it, a cap of 0 exits 2.
    spec = tmp_path / "ba.json"
    rules = {"type": "rewriting", "generators": ["a", "b"], "rules": [["ba", "ab"]], "confluent": True}
    spec.write_text(json.dumps({**rules, "step_cap": 1}))
    code, doc, _ = run_cli("--monoid", str(spec), "dist", "ba", "ab")
    assert code == 0
    assert doc["result"]["distance"] == {"kind": "exact", "num": 0, "den": 1}
    spec.write_text(json.dumps({**rules, "step_cap": 0}))
    code, _, text = run_cli("--monoid", str(spec), "dist", "ba", "ab")
    assert code == 2 and text == ""
    assert "did not stabilize within 0 steps" in capsys.readouterr().err


def test_reports_byte_identical():
    runs = [
        ("--monoid", fx("free1.json"), "svarc-milnor", "-R", "1"),
        ("--monoid", fx("z3.json"), "check", "axioms"),
        ("--monoid", fx("free1.json"), "dist", "ε", "aaa"),
    ]
    for argv in runs:
        _, _, first = run_cli(*argv)
        _, _, second = run_cli(*argv)
        assert first == second
        assert first  # non-empty


def test_json_output_file(tmp_path):
    out = tmp_path / "report.json"
    code, doc, text = run_cli(
        "--monoid", fx("free1.json"), "--json", str(out), "dist", "ε", "a"
    )
    assert code == 0
    assert out.read_text() == text


@pytest.mark.parametrize("kind", ["out", "in", "strong"])
def test_ball_of_negative_radius_is_empty(kind):
    code, doc, _ = run_cli("--monoid", fx("bicyclic.json"), "--horizon", "1", "ball", "ε", "-1", kind)
    assert code == 0
    assert doc["result"]["ball"] == {"vertices": [], "segments": []}


@pytest.mark.parametrize("argv", [["ball", "ε", "1/0", "out"], ["check", "quasimetric", "--lambda", "1/0"],
                                  ["svarc-milnor", "-R", "1/0"]])
def test_zero_denominator_is_a_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--monoid", fx("free1.json"), *argv])
    assert exc.value.code == 2
    assert "invalid _rat value: '1/0'" in capsys.readouterr().err


@pytest.mark.parametrize("what", ["axioms", "qi", "quasimetric", "cancellative", "fgt", "unitary", "action"])
def test_negative_depth_is_an_input_error(what, capsys):
    # An empty sample would pass every check vacuously.
    code, _, text = run_cli("--monoid", fx("fp_r1_z2.json"), "--horizon", "3", "check", what, "--depth", "-2")
    assert code == 2 and text == ""
    assert capsys.readouterr().err == "error: --depth must be >= 0\n"


def test_unwritable_json_path_exits_2_without_a_report(tmp_path, capsys):
    code = main(["--monoid", fx("free1.json"), "--json", str(tmp_path), "dist", "ε", "a"])
    out, err = capsys.readouterr()
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
