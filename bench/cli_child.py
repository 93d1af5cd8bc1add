"""Run the monoidgeo CLI and record what the checks need beside its report.

Usage: python3 bench/cli_child.py SIDE_JSON [--trace] -- CLI ARGS...

The report goes to stdout exactly as ``python3 -m monoidgeo.cli`` prints
it.  SIDE_JSON gets ``samples``, the size of the sample of every
``spaces.check_axioms`` call (the one function wrapped in every run, at the
cost of two calls per ``check axioms``), and, with --trace, ``trace``: the
span summary and the coverage self-check of a run with every public
function wrapped.  Without --trace it also gets ``reference_s``, the
process's CPU time at the reference speed (bench/speed.py).
"""

from __future__ import annotations

import functools
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import speed  # noqa: E402

# Sample the CPU's speed from the start, imports included, unless traced:
# the units would then land in the spans' self times.
TRACED = "--trace" in sys.argv[2:sys.argv.index("--")]
SAMPLER = None if TRACED else speed.Sampler()
if SAMPLER is not None:
    SAMPLER.start()

import monoidgeo  # noqa: E402
import monoidgeo.cli  # noqa: E402
from monoidgeo import spaces  # noqa: E402


def record_samples(sizes: list) -> None:
    """Rebind every monoidgeo name for check_axioms to a wrapper that
    appends the size of its sample to `sizes`."""
    original = spaces.check_axioms

    @functools.wraps(original)
    def check_axioms(space, sample, *args, **kwargs):
        sample = list(sample)
        sizes.append(len(sample))
        return original(space, sample, *args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if name.startswith("monoidgeo") and getattr(mod, "check_axioms", None) is original:
            mod.check_axioms = check_axioms


def main(argv) -> int:
    side_path = argv[0]
    cli_args = argv[argv.index("--") + 1:]
    sizes: list = []
    record_samples(sizes)
    tracer = None
    if TRACED:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install(monoidgeo)
    code = monoidgeo.cli.main(cli_args)
    sys.stdout.flush()
    side = {"samples": sizes}
    if SAMPLER is not None:
        SAMPLER.stop()
        side["reference_s"] = SAMPLER.reference_s()
    if tracer is not None:
        side["trace"] = tracer.summary()
        side["trace"]["unwrapped"] = tracer.unwrapped_bindings(monoidgeo)
    with open(side_path, "w", encoding="utf-8") as fh:
        json.dump(side, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
