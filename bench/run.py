"""The monoidgeo benchmark.

Usage:
  python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a source checkout (``src/monoidgeo`` and
``tests/fixtures`` beside ``bench/``), driven from this one process with at
most one child at a time.  With --trace 0 it times fresh processes of the
workload's operation for S seconds and prints the end-to-end metrics, every
time taken at the reference CPU speed of bench/speed.py; with
--trace 1 it alternates an untraced and a traced operation and prints the
per-layer metrics from the traced one.  Every output is checked against
bench/reference.py, and every operation's output must be byte-identical
to the first one's while PYTHONHASHSEED cycles through 0, 1 and 2.

The last line of stdout is one JSON object:
  {"correct": bool, "attempted": int, "failed": int,
   "metrics": {name: {"value": number, "unit": str}}}
See bench/README.md for the workloads and what each metric should track.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
FIXTURES = os.path.join(ROOT, "tests", "fixtures")
sys.path.insert(0, HERE)

import inputs  # noqa: E402
import reference  # noqa: E402

SETUP_SAMPLES = 12
# Operations run in rounds, one for each PYTHONHASHSEED, so every run mixes
# the hash seeds' costs alike, however many rounds fit in it.
HASH_SEEDS = (0, 1, 2)
QUERIES_PER_PROCESS = 100
# Stop starting operations after HARD_STOP_S, and kill any child still
# running at RUN_LIMIT_S, so a run on a slow machine, or of a program that
# has become very slow, still prints its result inside 180 s.
HARD_STOP_S = 120.0
RUN_LIMIT_S = 150.0
STARTED = time.perf_counter()

# The metric names and units are BENCHMARK.json's, at the checkout's root.
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    _SPEC = json.load(_fh)
WORKLOADS = tuple(w["name"] for w in _SPEC["workloads"])
END_TO_END = {m["name"]: m["unit"] for m in _SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in _SPEC["per_layer"]}


# Spans named by a per-layer metric; each must be a wrapped function.
SPANS = {
    name.rpartition(".")[0]
    for name in PER_LAYER
    if name.rpartition(".")[2] in ("calls", "self_s", "maxrss_growth_mb")
}


class Child:
    """One finished child process: wall time, peak RSS, exit code, stdout."""

    def __init__(self, argv, env, out_path):
        t0 = time.perf_counter()
        with open(out_path, "wb") as out:
            proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.PIPE, env=env, cwd=ROOT)
            limit = threading.Timer(max(0.0, STARTED + RUN_LIMIT_S - t0), proc.kill)
            limit.start()
            try:
                # Reading stderr to EOF drains it, so the child never blocks on it.
                self.stderr = proc.stderr.read().decode("utf-8", "replace")
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                limit.cancel()
                proc.stderr.close()
        self.wall_s = time.perf_counter() - t0
        proc.returncode = self.code = os.waitstatus_to_exitcode(status)
        self.peak_rss_mb = usage.ru_maxrss / 1024.0
        with open(out_path, "rb") as fh:
            self.stdout = fh.read()


def child_env(hash_seed: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = str(hash_seed)
    return env


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


class CliWorkload:
    """One operation is one fresh CLI process, run through bench/cli_child.py,
    which also records the sample sizes of ``check axioms``."""

    def __init__(self, tmp, spec_path, args, check):
        self.tmp = tmp
        self.spec_path = spec_path
        self.args = args
        self.check = check  # (report, check_axioms sample sizes) -> problems

    def _cli(self, args):
        return ["--monoid", self.spec_path, *args]

    def setup_samples(self, count):
        """Reference times of fresh processes that only load the spec and
        build the oracle (``monoidgeo --monoid SPEC dist ε ε``)."""
        samples = []
        for i in range(count):
            child = self._child(self._cli(["dist", "ε", "ε"]), HASH_SEEDS[i % len(HASH_SEEDS)])
            if child.code != 0:
                raise RuntimeError(f"set-up process failed: {child.stderr.strip()}")
            samples.append(child.side["reference_s"])
        return samples

    def _child(self, cli_args, hash_seed, traced=False):
        side_path = os.path.join(self.tmp, "side.json")
        if os.path.exists(side_path):
            os.remove(side_path)
        flags = ["--trace"] if traced else []
        argv = [sys.executable, os.path.join(HERE, "cli_child.py"), side_path, *flags, "--", *cli_args]
        child = Child(argv, child_env(hash_seed), os.path.join(self.tmp, "op.out"))
        child.side = {"samples": None}
        if os.path.exists(side_path):
            with open(side_path, encoding="utf-8") as fh:
                child.side = json.load(fh)
        return child

    def run(self, hash_seed, traced=False):
        """(finished Child, trace summary or None)."""
        child = self._child(self._cli(self.args), hash_seed, traced)
        return child, child.side.get("trace")

    def result(self, child):
        """(problems, latencies in reference s, set-up reference s or None,
        attempted, failed)."""
        if child.code != 0:
            return [f"exit code {child.code}: {child.stderr.strip()[-300:]}"], [], None, 1, 1
        latencies = [child.side["reference_s"]] if "reference_s" in child.side else []
        return self.check(json.loads(child.stdout), child.side["samples"]), latencies, None, 1, 0


class QueryWorkload:
    """One operation is one process answering the seed's query stream."""

    def __init__(self, tmp, seed):
        self.tmp = tmp
        self.queries = inputs.query_stream(seed, QUERIES_PER_PROCESS)
        self.queries_path = os.path.join(tmp, "queries.json")
        with open(self.queries_path, "w", encoding="utf-8") as fh:
            json.dump(self.queries, fh)
        self.no_queries_path = os.path.join(tmp, "no_queries.json")
        with open(self.no_queries_path, "w", encoding="utf-8") as fh:
            json.dump([], fh)
        self.out_path = os.path.join(tmp, "answers.json")

    def _child(self, queries_path, hash_seed, *flags):
        argv = [sys.executable, os.path.join(HERE, "queries.py"), queries_path, self.out_path, *flags]
        return Child(argv, child_env(hash_seed), os.path.join(self.tmp, "op.out"))

    def setup_samples(self, count):
        """Set-up times of processes that load N^3 and answer no query."""
        samples = []
        for i in range(count):
            child = self._child(self.no_queries_path, HASH_SEEDS[i % len(HASH_SEEDS)])
            if child.code != 0:
                raise RuntimeError(f"set-up process failed: {child.stderr.strip()}")
            with open(self.out_path, encoding="utf-8") as fh:
                samples.append(json.load(fh)["setup_s"])
        return samples

    def run(self, hash_seed, traced=False):
        child = self._child(self.queries_path, hash_seed, *(["--trace"] if traced else []))
        if child.code != 0:
            return child, None
        with open(self.out_path, encoding="utf-8") as fh:
            doc = json.load(fh)
        child.stdout = json.dumps(doc["answers"]).encode()
        child.doc = doc
        return child, doc.get("trace")

    def result(self, child):
        n = len(self.queries)
        if child.code != 0:
            return [f"exit code {child.code}: {child.stderr.strip()[-300:]}"], [], None, n, n
        doc = child.doc
        problems = []
        failed = 0
        for q, a in zip(self.queries, doc["answers"]):
            if a is None:
                failed += 1
            else:
                problems.extend(reference.check_query(q, a, inputs.N3_HORIZON))
        return problems, doc["latencies"], doc["setup_s"], n, failed


def _free_product_letters(spec):
    rank = spec["free_rank"]
    free = spec.get("alphabet") or ([f"f{i + 1}" for i in range(rank)] if rank > 1 else ["f"])
    group = spec["group"]
    ident = group.get("identity", group["elements"][0])
    (g,) = [x for x in group["elements"] if x != ident]
    return free, g


def make_workload(name, seed, tmp):
    if name == "fp-corollary":
        path = os.path.join(FIXTURES, "fp_r2_z2.json")
        with open(path, encoding="utf-8") as fh:
            free, g = _free_product_letters(json.load(fh))
        return CliWorkload(
            tmp, path, ["--horizon", "5", "free-product"],
            lambda rep, _: reference.check_free_product(rep, free, g),
        )
    if name == "group-extraction":
        doc, horizon, gens = inputs.group_spec(seed)
        path = os.path.join(tmp, "group.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
        return CliWorkload(
            tmp, path, ["--horizon", str(horizon), "svarc-milnor", "-R", "1"],
            lambda rep, _: reference.check_group_extraction(rep, gens),
        )
    if name == "axioms-check":
        depth = 5
        return CliWorkload(
            tmp, os.path.join(FIXTURES, "free2.json"),
            ["--horizon", "8", "check", "axioms", "--depth", str(depth)],
            lambda rep, sizes: reference.check_axioms_report(rep) + reference.check_axioms_sample(sizes, 2, depth),
        )
    if name == "distance-queries":
        return QueryWorkload(tmp, seed)
    raise SystemExit(f"unknown workload {name!r}")


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------


def tail(values):
    """The highest percentile with at least ten samples beyond it; the median
    when there are fewer than forty samples, where no percentile is a tail."""
    s = sorted(values)
    if len(s) < 40:
        return statistics.median(s)
    return s[len(s) - 11]


class Tally:
    def __init__(self):
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.first_output = None

    def add(self, workload, child):
        problems, latencies, setup_s, attempted, failed = workload.result(child)
        self.attempted += attempted
        self.failed += failed
        self.problems.extend(problems)
        if child.code == 0:
            if self.first_output is None:
                self.first_output = child.stdout
            elif child.stdout != self.first_output:
                self.problems.append("output differs from the run's first output")
        return latencies, setup_s


def warm_up(tmp):
    """Compile bytecode once, so no timed process pays for it."""
    code = f"import sys; sys.path.insert(0, {HERE!r}); import monoidgeo.cli, speed"
    child = Child([sys.executable, "-c", code], child_env(0), os.path.join(tmp, "warm.out"))
    if child.code != 0:
        raise RuntimeError(f"cannot import monoidgeo: {child.stderr.strip()}")


def keep_going(walls, t_start, seconds, ahead=1):
    """Start `ahead` more operations while they, at the median length seen
    so far, still end inside the window; always start the first ones."""
    elapsed = time.perf_counter() - t_start
    if elapsed > HARD_STOP_S:
        return False
    return not walls or elapsed + ahead * statistics.median(walls) <= seconds


def measure(workload, seconds):
    """End-to-end metrics.  Every time is taken at the reference speed (see
    README, "Noise") and is the median of the run's repetitions: per query
    first, for the query stream."""
    tally = Tally()
    t_start = time.perf_counter()  # the window includes the set-up samples
    setups = workload.setup_samples(SETUP_SAMPLES)
    walls, op_s, rss = [], [], []
    per_query = None  # each query's latencies over the repetitions
    while keep_going(walls, t_start, seconds, len(HASH_SEEDS)):
        for hash_seed in HASH_SEEDS:
            child, _ = workload.run(hash_seed)
            latencies, setup_s = tally.add(workload, child)
            walls.append(child.wall_s)
            if child.code != 0 or not latencies:
                continue
            rss.append(child.peak_rss_mb)
            if setup_s is not None:
                setups.append(setup_s)
            op_s.append((setup_s or 0.0) + sum(t for t in latencies if t is not None))
            if per_query is None:
                per_query = [[] for _ in latencies]
            for samples, t in zip(per_query, latencies):
                if t is not None:
                    samples.append(t)
    typical = [statistics.median(v) for v in per_query or () if v]
    if not typical:
        return tally, {}
    metrics = {
        "op_s": statistics.median(op_s),
        "peak_rss_mb": statistics.median(rss),
        "setup_s": statistics.median(setups),
        "query_ms_p50": statistics.median(typical) * 1e3,
        "query_ms_tail": tail(typical) * 1e3,
        "queries_per_s": len(typical) / sum(typical),
    }
    return tally, {k: (metrics[k], unit) for k, unit in END_TO_END.items()}


def layer_metrics(summary, report_bytes):
    spans = summary["spans"]
    out = {}
    for name in PER_LAYER:
        span, _, quantity = name.rpartition(".")
        if span == "trace":
            continue
        calls, self_s, rss = spans.get(span, (0, 0.0, 0.0))
        if quantity == "calls":
            out[name] = calls
        elif quantity == "self_s":
            out[name] = self_s
        elif quantity == "maxrss_growth_mb":
            out[name] = rss
        elif quantity == "distinct_ratio":
            out[name] = summary["word_distance_distinct"] / calls if calls else 0.0
        elif quantity == "report_bytes":
            out[name] = report_bytes
        else:
            out[name] = summary["counters"].get(quantity, 0)
    return out


def measure_traced(workload, seconds, is_cli):
    tally = Tally()
    plain, traced, per_op = [], [], []
    t_start = time.perf_counter()
    while not traced or keep_going([p + t for p, t in zip(plain, traced)], t_start, seconds, 1):
        child, _ = workload.run(0)
        tally.add(workload, child)
        if child.code == 0:
            plain.append(child.wall_s)
        child, summary = workload.run(0, traced=True)
        tally.add(workload, child)
        traced.append(child.wall_s)
        if summary is None:
            break
        if summary["unwrapped"]:
            tally.problems.append(f"unwrapped bindings: {summary['unwrapped']}")
        unknown = SPANS - set(summary["spans"])
        if unknown:
            tally.problems.append(f"per-layer spans that are not wrapped functions: {sorted(unknown)}")
        per_op.append(layer_metrics(summary, len(child.stdout) if is_cli else 0))
        per_op[-1]["trace.self_s_share"] = sum(v[1] for v in summary["spans"].values()) / child.wall_s
    metrics = {}
    if per_op and plain:
        for name in PER_LAYER:
            if name.startswith("trace."):
                continue
            values = [m[name] for m in per_op]
            metrics[name] = min(values) if PER_LAYER[name] in ("s", "MB") else values[0]
        metrics["trace.wall_s"] = min(traced)
        metrics["trace.overhead_ratio"] = min(traced) / min(plain)
        metrics["trace.self_s_share"] = max(m["trace.self_s_share"] for m in per_op)
    return tally, {k: (v, PER_LAYER[k]) for k, v in metrics.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit, so the running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    for need in (os.path.join(SRC, "monoidgeo", "cli.py"), FIXTURES):
        if not os.path.exists(need):
            print(f"error: {need} not found; run from a monoidgeo source checkout", file=sys.stderr)
            return 2

    tmp = os.path.join(ROOT, ".bench_run", str(os.getpid()))
    os.makedirs(tmp)
    try:
        workload = make_workload(args.workload, args.seed, tmp)
        warm_up(tmp)
        if args.trace:
            tally, metrics = measure_traced(workload, args.seconds, isinstance(workload, CliWorkload))
        else:
            tally, metrics = measure(workload, args.seconds)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(tmp))
        except OSError:
            pass

    for problem in tally.problems[:20]:
        print(f"problem: {problem}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{name:50s} {value:>16.6g} {unit}")
    print(json.dumps({
        "correct": not tally.problems and bool(metrics),
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
