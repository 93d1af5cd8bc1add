"""The CLI's exit contract under generated command lines.

``monoidgeo.cli.main`` is called in-process on argument vectors built from
the real subcommands, flags and fixtures, with well-formed and malformed
values mixed.  Whatever the input, the run must end in exit code 0, 1 or 2
(argparse's ``SystemExit(2)`` included) and raise nothing else; exit 2 must
say ``error:`` or print the usage on stderr; and on 0 or 1 stdout must be
one JSON report whose ``exit_code`` is the code returned.

Every run sets ``--horizon`` to at most 3.  The two values that size work
past the horizon are drawn small as well: ``--depth`` at most 3, since the
axiom, QI, quasi-metric and unitary samples enumerate the ball of that depth
whatever the horizon, and ``-R`` at most 1, since extraction reads the
out-ball of radius 5R.  Both balls grow exponentially in a free monoid.
"""

import io
import json
import os
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings, strategies as st

from monoidgeo.cli import main, parse_monoid_spec

HERE = os.path.dirname(os.path.abspath(__file__))
FIXTURES = os.path.join(HERE, "fixtures")
SPECS = [os.path.join(FIXTURES, name) for name in sorted(os.listdir(FIXTURES))]
# Not specs: a missing file, a directory and a JSON document of another kind.
NOT_SPECS = [os.path.join(FIXTURES, "missing.json"), FIXTURES, os.path.join(HERE, "golden", "n3_dist.json")]

GENERATORS = {path: parse_monoid_spec(path)[0].generators for path in SPECS}
LETTERS = sorted({g for gens in GENERATORS.values() for g in gens})

# Placeholders for paths under the test's temporary directory.
JSON_FILE, JSON_DIR = "<json file>", "<json dir>"

# (well-formed values, malformed values) of each argument
HORIZONS = (["1", "2", "3"], ["0", "-1", "x"])
RADII = (["0", "1/2", "0.5", "1", "3/2", "2", "3"], ["-1", "1/0", "x"])
SM_RADII = (["1/2", "1"], ["0", "-1", "4", "1/0", "x"])
DEPTHS = (["0", "1", "2", "3"], ["-1", "x"])
THRESHOLDS = (["1", "2", "8"], ["0", "-1", "x"])
SIDES = (["left", "right"], ["up"])
KINDS = (["out", "in", "strong"], ["round"])
WHATS = (["axioms", "qi", "quasimetric", "cancellative", "fgt", "unitary", "action"], ["other"])
COMMANDS = (["dist", "ball", "check", "svarc-milnor", "submonoid", "free-product"], ["bogus"])
JUNK_WORDS = ["x", "·", "aεb"]


@st.composite
def command_lines(draw) -> list[str]:
    """A command line in the CLI's shape.  Half of them are well formed; in
    the other half any part may be malformed or missing."""
    broken = draw(st.booleans())

    def pick(choices) -> str:
        good, bad = choices
        return draw(st.sampled_from(good + bad if broken else good))

    def maybe(flag, choices) -> list[str]:
        """The flag and a value, or nothing."""
        return [flag, pick(choices)] if draw(st.booleans()) else []

    spec = pick((SPECS, NOT_SPECS))
    letters = GENERATORS.get(spec, LETTERS)

    def word() -> str:
        if broken and draw(st.integers(0, 3)) == 0:
            return draw(st.sampled_from(JUNK_WORDS))
        return "".join(draw(st.lists(st.sampled_from(letters), max_size=3))) or "ε"

    argv = [] if broken and draw(st.integers(0, 3)) == 0 else ["--monoid", spec]
    argv += ["--horizon", pick(HORIZONS)]
    argv += ["--timing"] if draw(st.booleans()) else []
    argv += maybe("--json", ([JSON_FILE], [JSON_DIR]))
    command = pick(COMMANDS)
    argv.append(command)
    if command == "dist":
        argv += [word(), word()]
    elif command == "ball":
        argv += [word(), pick(RADII), pick(KINDS)]
    elif command == "check":
        argv.append(pick(WHATS))
        flags = [("--lambda", RADII), ("--mu", RADII), ("--side", SIDES),
                 ("--threshold", THRESHOLDS), ("--depth", DEPTHS)]
        for flag, choices in draw(st.permutations(flags)):
            argv += maybe(flag, choices)
    elif command == "svarc-milnor":
        argv += [draw(st.sampled_from(["-R", "--radius"])), pick(SM_RADII)]
    if broken:
        # Cut the line short, or leave a stray word at its end.
        cut = draw(st.integers(0, 3))
        if cut == 0:
            argv = argv[: draw(st.integers(0, len(argv)))]
        elif cut == 1:
            argv.append(word())
    return argv


# Any mix of the CLI's tokens, after a horizon of at most 3.  Every integer
# token is at most 3, so a later --horizon keeps it there, and the tokens
# hold no --json, which would write its next token as a path.  `--seed` is
# not an option, so a soup that holds it exits 2.
TOKENS = (
    ["dist", "ball", "check", "svarc-milnor", "submonoid", "free-product", "--monoid", "--seed", "--timing",
     "-R", "--radius", "--lambda", "--mu", "--side", "--threshold", "--depth", "out", "in",
     "strong", "left", "right", "0", "1", "2", "3", "-1", "1/2", "1/0", "x", "ε"]
    + WHATS[0] + WHATS[1] + SPECS + LETTERS
)
token_soups = st.tuples(st.sampled_from(HORIZONS[0] + HORIZONS[1]), st.lists(st.sampled_from(TOKENS), max_size=10)).map(
    lambda t: ["--horizon", t[0], *t[1]]
)


@pytest.fixture(scope="module")
def out_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def _run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _check_contract(argv: list[str]) -> int:
    code, out, err = _run(argv)
    assert code in (0, 1, 2), (argv, code, err)
    if code == 2:
        assert "error:" in err or "usage:" in err, (argv, err)
    else:
        doc = json.loads(out)
        assert doc["exit_code"] == code, argv
    return code


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(command_lines())
def test_command_lines_keep_the_exit_contract(out_dir, argv):
    paths = {JSON_FILE: str(out_dir / "report.json"), JSON_DIR: str(out_dir)}
    _check_contract([paths.get(a, a) for a in argv])


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(token_soups)
def test_token_soups_keep_the_exit_contract(argv):
    code = _check_contract(argv)
    assert code == 2 or "--seed" not in argv, argv
