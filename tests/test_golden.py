"""CLI reports compared byte for byte against committed golden files.

Each PYTHONHASHSEED in SEEDS gets one child process that runs every command
in CASES and DIGESTS through ``monoidgeo.cli.main`` and prints the reports
as one JSON document; the three children run side by side.  The golden
files under ``tests/golden/`` hold the expected stdout of each command in
CASES.  A report too large to commit is pinned in DIGESTS by the sha256 of
its stdout.

Regenerate them (only when a report is meant to change) with

    PYTHONPATH=src python tests/test_golden.py --write
"""

import hashlib
import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(HERE, "golden")
SRC = os.path.join(os.path.dirname(HERE), "src")
SEEDS = ("0", "1", "2")

# name -> (fixture, CLI arguments after --monoid, expected exit code)
CASES = {
    "free2_svarc_milnor_h4": ("free2.json", ["--horizon", "4", "svarc-milnor", "-R", "1"], 0),
    "fp_r1_z2_free_product_h4": ("fp_r1_z2.json", ["--horizon", "4", "free-product"], 0),
    "z3_svarc_milnor": ("z3.json", ["svarc-milnor", "-R", "1"], 0),
    "bicyclic_dist": ("bicyclic.json", ["dist", "q", "pp"], 0),
    "bicyclic_check_axioms": ("bicyclic.json", ["check", "axioms"], 0),
    "fp_r2_z2_free_product_h3": ("fp_r2_z2.json", ["--horizon", "3", "free-product"], 0),
    "fp_r2_z2_free_product_h5": ("fp_r2_z2.json", ["--horizon", "5", "free-product"], 0),
    "z3_check_axioms": ("z3.json", ["check", "axioms"], 0),
    "zero_check_axioms": ("zero.json", ["check", "axioms"], 0),
    "n3_dist": ("n3.json", ["--horizon", "6", "dist", "ab", "aabbc"], 0),
    "n3_ball_out": ("n3.json", ["--horizon", "6", "ball", "abc", "3/2", "out"], 0),
    "free2_check_axioms_d5": ("free2.json", ["--horizon", "8", "check", "axioms", "--depth", "5"], 0),
    "fp_r1_z2_check_axioms": ("fp_r1_z2.json", ["check", "axioms"], 0),
    "fp_r1_z2_ball_strong": ("fp_r1_z2.json", ["ball", "g", "3/2", "strong"], 0),
    "fp_r1_z2_ball_in": ("fp_r1_z2.json", ["ball", "fg", "2", "in"], 0),
    "fp_r1_z2_dist": ("fp_r1_z2.json", ["dist", "gf", "fgf"], 0),
    "fp_r2_z2_check_unitary": ("fp_r2_z2.json", ["check", "unitary"], 0),
    "fp_r2_z2_check_cancellative": ("fp_r2_z2.json", ["check", "cancellative"], 0),
    "fp_r2_z2_submonoid_h4": ("fp_r2_z2.json", ["--horizon", "4", "submonoid"], 0),
    "fp_r1_z2_svarc_milnor_h4": ("fp_r1_z2.json", ["--horizon", "4", "svarc-milnor", "-R", "1"], 0),
    "fp_r1_z2_svarc_milnor_h2_r2": ("fp_r1_z2.json", ["--horizon", "2", "svarc-milnor", "-R", "2"], 0),
    # h > ceil(3R) - 1 on an infinite monoid: the generation walk covers samples
    # past the separations ball.
    "fp_r1_z2_svarc_milnor_h7": ("fp_r1_z2.json", ["--horizon", "7", "svarc-milnor", "-R", "1"], 0),
    "s3_svarc_milnor": ("s3.json", ["--horizon", "3", "svarc-milnor", "-R", "1"], 0),
    "s3_ball_in": ("s3.json", ["--horizon", "3", "ball", "a", "2", "in"], 0),
    # Isometric embedding by left cancellation: checked on N³, one witness on bicyclic.
    "n3_check_action": ("n3.json", ["check", "action"], 0),
    "bicyclic_check_action": ("bicyclic.json", ["check", "action"], 1),
    # The fail shape of the ball searches: one witness each.
    "zero_check_fgt": ("zero.json", ["check", "fgt", "--threshold", "5"], 1),
    "bicyclic_check_cancellative": ("bicyclic.json", ["check", "cancellative"], 1),
}

# name -> (fixture, CLI arguments after --monoid, expected exit code, sha256 of
# stdout): the free-product corollary at the default horizon 8 (103 KB and
# 4.5 MB of report).
DIGESTS = {
    "fp_r1_z2_free_product": (
        "fp_r1_z2.json", ["free-product"], 0,
        "91049781dba65c77edbb30249a1ffb2fb4aaaab168dc2e327038f597aafa25da",
    ),
    "fp_r2_z2_free_product_h8": (
        "fp_r2_z2.json", ["--horizon", "8", "free-product"], 0,
        "e40f768d2a21b9096590cd4444c45032244492c3ae6864cea28103a9b7123086",
    ),
}

CHILD = r"""
import io, json, sys
from contextlib import redirect_stdout
from monoidgeo.cli import main

out = {}
for name, argv in json.loads(sys.argv[1]).items():
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    out[name] = [code, buf.getvalue()]
json.dump(out, sys.stdout)
"""


def _argvs() -> dict:
    commands = [(name, case[0], case[1]) for name, case in list(CASES.items()) + list(DIGESTS.items())]
    return {name: ["--monoid", os.path.join(HERE, "fixtures", fixture)] + args for name, fixture, args in commands}


def _start(seed: str) -> subprocess.Popen:
    env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=SRC)
    return subprocess.Popen(
        [sys.executable, "-c", CHILD, json.dumps(_argvs())],
        stdout=subprocess.PIPE,
        env=env,
    )


@pytest.fixture(scope="module")
def reports():
    children = {seed: _start(seed) for seed in SEEDS}
    out = {}
    for seed, child in children.items():
        stdout, _ = child.communicate(timeout=120)
        assert child.returncode == 0
        out[seed] = json.loads(stdout)
    return out


def _golden(name: str) -> str:
    with open(os.path.join(GOLDEN, f"{name}.json"), encoding="utf-8") as fh:
        return fh.read()


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(reports, name, seed):
    code, text = reports[seed][name]
    assert code == CASES[name][2]
    assert text == _golden(name)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_report_matches_digest(reports, name, seed):
    code, text = reports[seed][name]
    _, _, expected_code, digest = DIGESTS[name]
    assert code == expected_code
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest


if __name__ == "__main__" and sys.argv[1:] == ["--write"]:
    os.makedirs(GOLDEN, exist_ok=True)
    child = _start("0")
    stdout, _ = child.communicate()
    for name, (code, text) in json.loads(stdout).items():
        if name in DIGESTS:
            print(name, code, hashlib.sha256(text.encode("utf-8")).hexdigest())
            continue
        assert code == CASES[name][2], (name, code)
        with open(os.path.join(GOLDEN, f"{name}.json"), "w", encoding="utf-8") as fh:
            fh.write(text)
