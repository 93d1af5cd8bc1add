"""Span wrappers around every public function of the monoidgeo modules.

``install()`` replaces each public module-level function and each public
method of the classes a module defines with a wrapper that times the call,
then rebinds every name in every monoidgeo module (and the package) that
still points at an original, so bindings made with ``from .cayley import
word_distance`` are traced too.  The program's source is not touched.

A span's self time is its duration minus the durations of the wrapped calls
made inside it.  Spans are aggregated in memory per ``<module>.<name>`` and
written out once, when the traced process ends.
"""

from __future__ import annotations

import functools
import inspect
import resource
import sys
import time

MODULES = ("extnum", "monoids", "cayley", "spaces", "actions", "svarcmilnor", "cli")

# Calls across which the growth of the process's peak RSS is recorded.
RSS_SPANS = {
    "monoids.check_left_unitary",
    "svarcmilnor.extract_generators",
    "svarcmilnor.verify_generation_bound",
    "svarcmilnor.verify_qi_bounds",
    "svarcmilnor.run_submonoid_theorem",
    "svarcmilnor.run_free_product",
}


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Tracer:
    def __init__(self):
        # name -> [calls, self seconds, peak-RSS growth in MB]
        self.stats: dict[str, list] = {}
        self.counters: dict[str, int] = {}
        self._stack: list[float] = []
        self._wd_keys: set[int] = set()
        self.originals: dict[int, str] = {}

    # -- wrappers ---------------------------------------------------------

    def _wrap(self, name: str, fn):
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        clock = time.perf_counter
        hook = self._hook_for(name)
        rss = name in RSS_SPANS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if hook is not None:
                # Hook time counts in no span: the caller's self time excludes it.
                h0 = clock()
                hook(args)
                if stack:
                    stack[-1] += clock() - h0
            if rss:
                rss0 = _maxrss_mb()
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stat[0] += 1
                stat[1] += dt - stack.pop()
                if stack:
                    stack[-1] += dt
                if rss:
                    stat[2] += _maxrss_mb() - rss0

        self.originals[id(fn)] = name
        return wrapper

    def _hook_for(self, name: str):
        if name == "cayley.word_distance":
            keys = self._wd_keys

            def hook(args):
                # Hashes, not keys, so the tracer holds little memory.
                keys.add(hash((args[1], args[2], args[3])))

            return hook
        if name == "cayley.gamma_set_distance":
            counters = self.counters

            def hook(args):
                counters["rep_pairs"] = counters.get("rep_pairs", 0) + _n_reps(args[1]) * _n_reps(args[2])

            return hook
        if name == "spaces.check_axioms":
            counters = self.counters

            def hook(args):
                counters["triples"] = counters.get("triples", 0) + len(args[1]) ** 3

            return hook
        return None

    # -- installation -----------------------------------------------------

    def install(self, package) -> None:
        replaced: dict[int, object] = {}
        for short in MODULES:
            mod = sys.modules.get(f"{package.__name__}.{short}")
            if mod is None:  # not imported by this process, so never called
                continue
            for attr, value in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(value) and value.__module__ == mod.__name__:
                    replaced[id(value)] = self._wrap(f"{short}.{attr}", value)
                elif inspect.isclass(value) and value.__module__ == mod.__name__:
                    self._wrap_class(short, value, replaced)
        # Rebind every name that still points at an original.
        for mod in _monoidgeo_modules(package):
            for attr, value in list(vars(mod).items()):
                if id(value) in replaced:
                    setattr(mod, attr, replaced[id(value)])

    def _wrap_class(self, short: str, cls, replaced: dict) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            if isinstance(raw, staticmethod):
                wrapped = self._wrap(f"{short}.{attr}", raw.__func__)
                replaced[id(raw.__func__)] = wrapped
                setattr(cls, attr, staticmethod(wrapped))
            elif inspect.isfunction(raw):
                wrapped = self._wrap(f"{short}.{attr}", raw)
                replaced[id(raw)] = wrapped
                setattr(cls, attr, wrapped)

    def unwrapped_bindings(self, package) -> list[str]:
        """Names in monoidgeo modules and classes still bound to an original."""
        left = []
        for mod in _monoidgeo_modules(package):
            for attr, value in vars(mod).items():
                if id(value) in self.originals:
                    left.append(f"{mod.__name__}.{attr}")
                if inspect.isclass(value) and value.__module__.startswith(package.__name__):
                    for cattr, raw in vars(value).items():
                        fn = raw.__func__ if isinstance(raw, staticmethod) else raw
                        if id(fn) in self.originals:
                            left.append(f"{mod.__name__}.{value.__name__}.{cattr}")
        return sorted(set(left))

    # -- results ----------------------------------------------------------

    def summary(self) -> dict:
        return {
            "spans": self.stats,
            "counters": self.counters,
            "word_distance_distinct": len(self._wd_keys),
        }


def _n_reps(cells) -> int:
    """len(cells.closure_reps()) without building the list."""
    return len(cells.vertices) + sum(1 + (s.hi != s.lo) for s in cells.segments)


def _monoidgeo_modules(package):
    return [m for n, m in sorted(sys.modules.items()) if n == package.__name__ or n.startswith(package.__name__ + ".")]
