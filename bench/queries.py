"""One distance-queries process: load N^3, answer a query stream, report.

Usage: python3 bench/queries.py QUERIES_JSON OUT_JSON [--trace]

Reads the query stream written by run.py, times the import of monoidgeo
plus ``from_spec_dict`` (set-up) and then each query on its own, and writes
setup time, per-query latencies and the answers to OUT_JSON.  Times are
thread CPU time at the reference speed: a bench/speed.py Sampler runs from
before the import to after the last query, and every time, less the units
run inside it, is scaled by the mean speed of all the units.  With
--trace, every public monoidgeo function is wrapped in a span first, and
times are plain thread CPU time.
"""

from __future__ import annotations

import json
import os
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import speed  # noqa: E402
from inputs import N3_HORIZON, N3_LETTERS, N3_SPEC  # noqa: E402


def _word(vec) -> tuple:
    return sum(((letter,) * n for letter, n in zip(N3_LETTERS, vec)), ())


def _vec(word) -> list:
    return [word.count(letter) for letter in N3_LETTERS]


def _td(d) -> list:
    kind = "known" if d.is_known else "above"
    if d.value.is_infinite:
        return [kind, None, None]
    f = d.value.finite_value()
    return [kind, f.numerator, f.denominator]


def main(argv) -> int:
    queries_path, out_path = argv[0], argv[1]
    traced = "--trace" in argv[2:]
    with open(queries_path, encoding="utf-8") as fh:
        queries = json.load(fh)

    tracer = None
    clock = time.thread_time
    sampler = None if traced else speed.Sampler()
    units = sampler.units if sampler is not None else []

    def own_time(t0, n0):
        """Thread CPU time since t0, less the units sampled since the n0-th."""
        return clock() - t0 - sum(units[n0:])

    if sampler is not None:
        sampler.start()
    t0, n0 = clock(), len(units)
    import monoidgeo
    from monoidgeo import cayley, monoids
    from monoidgeo.errors import MonoidGeoError

    if traced:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install(monoidgeo)
    oracle = monoids.from_spec_dict(N3_SPEC)
    setup_s = own_time(t0, n0)

    gamma = cayley.GammaOracle(oracle, N3_HORIZON)
    h = N3_HORIZON

    def point(doc):
        if doc[0] == "v":
            return cayley.Vertex(_word(doc[1]))
        return cayley.EdgePoint(_word(doc[1]), doc[2], Fraction(*doc[3]))

    args = []
    for q in queries:
        if q[0] == "dist":
            args.append((_word(q[1]), _word(q[2])))
        elif q[0] == "gamma":
            args.append((point(q[1]), point(q[2])))
        else:
            args.append((_word(q[1]), Fraction(*q[2])))

    def ask(kind, x, y):
        if kind == "dist":
            d = cayley.word_distance(oracle, x, y, h)
            w = cayley.shortest_word(oracle, x, y, h) if d.is_known and d.value.is_finite else None
            return d, w
        if kind == "gamma":
            return cayley.gamma_distance(oracle, x, y, h)
        return gamma.ball_cellset(x, y, "out")

    latencies, results = [], []
    for q, (x, y) in zip(queries, args):
        t, n = clock(), len(units)
        try:
            r = ask(q[0], x, y)
        except MonoidGeoError as exc:  # counted as a failed query
            print(f"query {q}: {exc}", file=sys.stderr)
            latencies.append(None)
            results.append(None)
            continue
        latencies.append(own_time(t, n))
        results.append(r)
    if sampler is not None:
        sampler.stop()
        factor = speed.speed(units or [speed.unit()])
        setup_s *= factor
        latencies = [None if t is None else t * factor for t in latencies]

    answers = []
    for q, r in zip(queries, results):
        if r is None:
            answers.append(None)
        elif q[0] == "dist":
            d, w = r
            answers.append(_td(d) + [None if w is None else list(w)])
        elif q[0] == "gamma":
            answers.append(_td(r))
        else:
            answers.append([
                sorted(_vec(v) for v in r.vertices),
                [[_vec(s.element), s.gen, [s.lo.numerator, s.lo.denominator],
                  [s.hi.numerator, s.hi.denominator]] for s in r.segments],
            ])
    out = {"setup_s": setup_s, "latencies": latencies, "answers": answers}
    if tracer is not None:
        out["trace"] = tracer.summary()
        out["trace"]["unwrapped"] = tracer.unwrapped_bindings(monoidgeo)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
