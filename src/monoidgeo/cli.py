"""Batch command-line interface.

Every subcommand loads a monoid spec document, runs one check or pipeline,
prints a deterministic JSON report to stdout and exits 0 on pass /
holds_at_horizon, 1 on fail (with witnesses in the report), 2 on usage or
input errors.  Reports are byte-identical across runs with the same inputs;
wall-clock timing is only included when --timing is passed.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction
from json.encoder import encode_basestring

from . import __version__
from .actions import check_action_laws, check_isometric_embedding_action
from .cayley import EdgePoint, GammaOracle, Vertex, check_inclusion_qi, word_distance, shortest_word
from .errors import MonoidGeoError
from .monoids import (
    FreeProductMonoid,
    MonoidOracle,
    SubmonoidOracle,
    check_cancellative,
    check_finite_geometric_type,
    check_left_unitary,
    format_word,
    from_spec_dict,
)
from .spaces import WordMetricSpace, check_axioms, check_quasi_metric
from .svarcmilnor import SmInput, run_free_product, run_pipeline, run_submonoid_theorem


def parse_monoid_spec(path: str) -> tuple[MonoidOracle, dict]:
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    return from_spec_dict(doc), doc


def _rat(text: str) -> Fraction:
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise ValueError(text) from None  # argparse reports it as an invalid value, exit 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="monoidgeo", description=__doc__)
    parser.add_argument("--monoid", required=True, help="path to a monoid spec JSON document")
    parser.add_argument("--horizon", type=int, default=8, help="search horizon (default 8)")
    parser.add_argument("--json", dest="json_path", default=None, help="also write the report to this path")
    parser.add_argument("--timing", action="store_true", help="include wall-clock duration (breaks byte-determinism)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dist", help="word distance between two elements")
    p.add_argument("x")
    p.add_argument("y")

    p = sub.add_parser("ball", help="a ball of the continuous Cayley graph as a cell set")
    p.add_argument("center")
    p.add_argument("radius", type=_rat)
    p.add_argument("kind", choices=["out", "in", "strong"])

    p = sub.add_parser("check", help="run a named checker")
    p.add_argument("what", choices=["axioms", "qi", "quasimetric", "cancellative", "fgt", "unitary", "action"])
    p.add_argument("--lambda", dest="lam", type=_rat, default=Fraction(1))
    p.add_argument("--mu", type=_rat, default=Fraction(0))
    p.add_argument("--side", choices=["left", "right"], default="left")
    p.add_argument("--threshold", type=int, default=8)
    p.add_argument("--depth", type=int, default=None, help="sample ball depth (default min(horizon, 4))")

    p = sub.add_parser("svarc-milnor", help="generating-set extraction with verified constants")
    p.add_argument("--radius", "-R", type=_rat, required=True)

    sub.add_parser("submonoid", help="left-unitary submonoid pipeline (free product spec required)")
    sub.add_parser("free-product", help="free-basis corollary pipeline (free product spec required)")
    return parser


def _sample_for_axioms(oracle: MonoidOracle, depth: int):
    vertices = oracle.elements_up_to(depth)
    points = [Vertex(m) for m in vertices]
    for m in oracle.elements_up_to(max(depth - 1, 0)):
        for s in oracle.generators:
            points.append(EdgePoint(m, s, Fraction(1, 2)))
    return vertices, points


def _run(args) -> tuple[int, dict]:
    oracle, spec_doc = parse_monoid_spec(args.monoid)
    horizon = args.horizon
    if horizon < 1:
        raise MonoidGeoError("horizon must be >= 1")
    gamma = GammaOracle(oracle, horizon)
    result: object = {}
    exit_code = 0

    if args.command == "dist":
        x = oracle.parse_word(args.x)
        y = oracle.parse_word(args.y)
        d = word_distance(oracle, x, y, horizon)
        result = {"x": format_word(x), "y": format_word(y), "distance": d}
        if d.is_known and not d.value.is_infinite:
            result["witness"] = format_word(shortest_word(oracle, x, y, horizon))

    elif args.command == "ball":
        center = oracle.parse_word(args.center)
        cells = gamma.ball_cellset(center, args.radius, args.kind)
        result = {
            "center": format_word(center),
            "radius": args.radius,
            "kind": args.kind,
            "ball": cells,
        }

    elif args.command == "check":
        if args.depth is not None and args.depth < 0:
            raise MonoidGeoError("--depth must be >= 0")  # not a vacuous pass on an empty sample
        depth = args.depth if args.depth is not None else min(horizon, 4)
        if args.what == "axioms":
            vertices, points = _sample_for_axioms(oracle, depth)
            word_report = check_axioms(WordMetricSpace(oracle, horizon), vertices)
            gamma_report = check_axioms(gamma, points)
            result = {"word_metric": word_report, "gamma": gamma_report}
            exit_code = 0 if word_report.passed and gamma_report.passed else 1
        elif args.what == "qi":
            report = check_inclusion_qi(gamma, depth)
        elif args.what == "quasimetric":
            sample = oracle.elements_up_to(depth)
            report = check_quasi_metric(WordMetricSpace(oracle, horizon), sample, args.lam, args.mu)
        elif args.what == "cancellative":
            report = check_cancellative(oracle, args.side, min(horizon, depth + 2))
        elif args.what == "fgt":
            report = check_finite_geometric_type(oracle, min(horizon, 6), args.threshold)
        elif args.what == "unitary":
            if not isinstance(oracle, FreeProductMonoid):
                raise MonoidGeoError("check unitary needs a free_product monoid spec")
            report = check_left_unitary(SubmonoidOracle(oracle), depth)
        elif args.what == "action":
            laws = check_action_laws(oracle)
            depth = min(depth, 3)
            iso = check_isometric_embedding_action(oracle, oracle.elements_up_to(depth), depth, horizon, horizon)
            result = {"action_laws": laws, "isometric_embedding": iso}
            exit_code = 0 if laws.passed and iso.passed else 1
        if args.what not in ("axioms", "action"):
            result, exit_code = report, 0 if report.passed else 1

    elif args.command == "svarc-milnor":
        out = run_pipeline(SmInput(oracle, gamma, args.radius, horizon))
        result = {"extraction": out["report"], "generation": out["generation"], "qi": out["qi"]}
        exit_code = 0 if out["passed"] else 1

    elif args.command in ("submonoid", "free-product"):
        if not isinstance(oracle, FreeProductMonoid):
            raise MonoidGeoError(f"{args.command} pipeline needs a free_product monoid spec")
        run = run_submonoid_theorem if args.command == "submonoid" else run_free_product
        report = run(oracle, horizon)
        result = report
        exit_code = 0 if report.passed else 1

    doc = {
        "tool": "monoidgeo",
        "version": __version__,
        "command": args.command,
        "input": {
            "monoid": spec_doc,
            "horizon": horizon,
            "flags": {
                k: v
                for k, v in vars(args).items()
                if k not in ("command", "monoid", "horizon", "json_path", "timing") and v is not None
            },
        },
        "result": result,
        "exit_code": exit_code,
    }
    return exit_code, doc


def _encode(doc) -> str:
    """The text of ``json.dumps(doc, sort_keys=True, ensure_ascii=False,
    indent=2)``, built in one recursive pass into a list of pieces, where a
    Fraction is the list ``[numerator, denominator]`` and an object with a
    ``to_json`` method is what that method returns.  This is the one place
    that turns reports, distances and exact constants into text.  The stdlib
    encodes with an indent in pure Python, one generator per level, and
    writes a list of ints or strings one piece per item, where a list whose
    items are all plain ints or all plain strings is one join here."""
    pieces: list[str] = []
    add = pieces.append

    def enc(o, pad: str) -> None:  # pad: a newline and the indent of o's own line
        inner = pad + "  "
        if isinstance(o, str):
            add(encode_basestring(o))
        elif type(o) is int:
            add(int.__repr__(o))
        elif isinstance(o, dict):
            for i, (k, v) in enumerate(sorted(o.items())):
                if not isinstance(k, str):
                    if not (k is None or isinstance(k, (int, float))):
                        raise TypeError(f"keys must be str, int, float, bool or None, not {type(k).__name__}")
                    k = json.dumps(k)
                add(("," if i else "{") + inner + encode_basestring(k) + ": ")
                enc(v, inner)
            add(pad + "}" if o else "{}")
        elif isinstance(o, (list, tuple)):
            if (kinds := set(map(type, o))) == {int} or kinds == {str}:
                scalar = int.__repr__ if kinds == {int} else encode_basestring
                add("[" + inner + ("," + inner).join(map(scalar, o)) + pad + "]")
            else:
                for i, x in enumerate(o):
                    add(("," if i else "[") + inner)
                    enc(x, inner)
                add(pad + "]" if o else "[]")
        elif isinstance(o, Fraction):
            add("[" + inner + int.__repr__(o.numerator) + "," + inner + int.__repr__(o.denominator) + pad + "]")
        elif hasattr(o, "to_json"):  # a report, a cell set or a distance
            enc(o.to_json(), pad)
        else:
            add(json.dumps(o))  # None, a bool, a float (the --timing duration) or a TypeError

    enc(doc, "\n")
    return "".join(pieces)


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    started = time.monotonic()
    try:
        exit_code, doc = _run(args)
        if args.timing:
            doc["duration_seconds"] = time.monotonic() - started
        text = _encode(doc) + "\n"
        if args.json_path:  # before stdout: a path that cannot be written is a usage error
            with open(args.json_path, "w", encoding="utf-8") as fh:
                fh.write(text)
    except (MonoidGeoError, OSError, json.JSONDecodeError, KeyError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(text)
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
