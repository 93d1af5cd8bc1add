"""Measure the query mix of the distance-queries stream from the pipelines.

Usage: python3 bench/query_mix.py

Runs the three CLI pipelines the benchmark times (free-product on
fp_r2_z2 at horizon 5, svarc-milnor -R 1 on the seed-1 S5 table, check
axioms on free2 at depth 5) in this process, and counts the calls the rest
of the program makes into the three query kinds of the stream:
``word_distance``, ``gamma_distance`` (by the kinds of its two points) and
the ``GammaOracle`` ball cell sets.  Only outermost calls count: a
``word_distance`` made inside ``gamma_distance`` is part of that query.  A call's outcome is
"known" for a finite distance and "unreachable" otherwise (certified
infinite, or unknown above the horizon).  It prints each class's share,
averaged over the three pipelines with equal weight, and the counts per
100 queries that ``inputs.MIX`` holds.
"""

from __future__ import annotations

import collections
import contextlib
import io
import json
import os
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import inputs  # noqa: E402


BALL_METHODS = ("ball_cellset", "out_ball_cellset", "in_ball_cellset", "strong_ball_cellset")


def _kind(p) -> str:
    from monoidgeo import cayley

    return "v" if isinstance(p, cayley.Vertex) else "e"


def count_calls(cli_args) -> collections.Counter:
    """Outermost query calls of one in-process CLI run, by class."""
    import monoidgeo.cli
    from monoidgeo import cayley

    counts: collections.Counter = collections.Counter()
    depth = [0]

    def wrap(fn, classify):
        def wrapper(*args, **kwargs):
            depth[0] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                depth[0] -= 1
            if depth[0] == 0:
                counts[classify(args, result)] += 1
            return result

        return wrapper

    def outcome(d):
        return "known" if d.is_known and d.value.is_finite else "unreachable"

    wrapped = {
        "word_distance": lambda a, r: ("dist", outcome(r)),
        "gamma_distance": lambda a, r: ("gamma", _kind(a[1]) + _kind(a[2]), outcome(r)),
    }
    saved = []
    for name, classify in wrapped.items():
        original = getattr(cayley, name)
        for mod in [m for n, m in sys.modules.items() if n.startswith("monoidgeo")]:
            if getattr(mod, name, None) is original:
                saved.append((mod, name, original))
                setattr(mod, name, wrap(original, classify))
    balls = {n: getattr(cayley.GammaOracle, n) for n in BALL_METHODS}
    for name, method in balls.items():
        setattr(cayley.GammaOracle, name, wrap(method, lambda a, r: ("ball",)))
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            monoidgeo.cli.main(cli_args)
    finally:
        for name, method in balls.items():
            setattr(cayley.GammaOracle, name, method)
        for mod, name, original in saved:
            setattr(mod, name, original)
    return counts


def per_hundred(shares: dict) -> dict:
    """Counts per 100 queries by largest remainder, with at least one ball
    query so that kind is always asked and checked."""
    rest = {k: v for k, v in shares.items() if k != ("ball",)}
    total = sum(rest.values())
    quota = {k: 99 * v / total for k, v in rest.items()}
    out = {k: int(q) for k, q in quota.items()}
    for k in sorted(quota, key=lambda k: quota[k] - out[k], reverse=True)[: 99 - sum(out.values())]:
        out[k] += 1
    out[("ball",)] = 1
    return out


def main() -> int:
    doc, horizon, _ = inputs.group_spec(1)
    fixtures = os.path.join(ROOT, "tests", "fixtures")
    with tempfile.TemporaryDirectory() as tmp:
        group = os.path.join(tmp, "group.json")
        with open(group, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        runs = {
            "fp-corollary": ["--monoid", os.path.join(fixtures, "fp_r2_z2.json"), "--horizon", "5", "free-product"],
            "group-extraction": ["--monoid", group, "--horizon", str(horizon), "svarc-milnor", "-R", "1"],
            "axioms-check": ["--monoid", os.path.join(fixtures, "free2.json"), "--horizon", "8",
                             "check", "axioms", "--depth", "5"],
        }
        shares: collections.Counter = collections.Counter()
        for name, args in runs.items():
            counts = count_calls(args)
            total = sum(counts.values())
            print(f"{name}: {total} outermost query calls")
            for k, v in sorted(counts.items()):
                print(f"  {'/'.join(k):22s} {v:8d}  {v / total:6.1%}")
                shares[k] += v / total / len(runs)
    print("mean share and count per 100 queries:")
    counts = per_hundred(shares)
    for k in sorted(counts):
        print(f"  {'/'.join(k):22s} {shares.get(k, 0):6.1%}  {counts[k]:3d}")
    if counts != inputs.MIX:
        print("inputs.MIX differs from these counts")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
