"""Measure how fast the CPU runs Python right now, from inside a process.

The measuring machine runs the same code at speeds that differ by up to
1.6x in phases from seconds to minutes, on each vCPU apart (see README,
"Noise").  A fixed unit of interpreter work, timed in thread CPU time
while the program runs, tells the current speed; dividing the program's
CPU time by that speed gives its time at the reference speed REF_UNIT_S,
which is what every time metric of the benchmark reports.

The unit swaps adjacent letters of a short word and searches it, string
work of the kind the program's normal forms do.  It tracked the program's
speed better than integer arithmetic did (see README, "Noise").  Strings
are not tracked by the garbage collector, so no collection of the
program's heap can start inside a unit.
"""

from __future__ import annotations

import resource
import signal
import time

UNIT_LOOPS = 300
# Thread CPU time of one unit on the measuring machine in its fast phase,
# run from the sampler inside a busy program (the lower decile of many
# units).  It only fixes the scale of the reported times; comparisons
# between commits do not depend on it.
REF_UNIT_S = 1.8e-4

_WORD = "abcabcbcaacb"


def unit() -> float:
    """Run one unit of work; return its thread CPU time in seconds."""
    w = _WORD
    c0 = time.thread_time()
    s = 0
    for k in range(UNIT_LOOPS):
        j = k % 11
        v = w[:j] + w[j + 1] + w[j] + w[j + 2:]
        s += v.find("ba") + len(v)
    return time.thread_time() - c0


def speed(units) -> float:
    """Mean speed over unit times, relative to the reference (1.0 = REF)."""
    return sum(REF_UNIT_S / u for u in units) / len(units)


def process_cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


class Sampler:
    """Times one unit every `interval` seconds of process CPU time (SIGPROF).

    ``reference_s()`` is the process's CPU time since ``start()``, less the
    units' own, at the reference speed: CPU seconds times the mean speed of
    the samples.  Interpreter start-up, before ``start()``, is left out:
    it is the same for every version of the program and mostly system time
    that the units do not track.  The units cost 2–3% of the process's CPU
    time.
    """

    def __init__(self, interval: float = 0.01):
        self.interval = interval
        self.units: list[float] = []
        self._previous = None
        self._cpu0 = 0.0

    def _sample(self, signum, frame):
        self.units.append(unit())

    def start(self) -> None:
        self._cpu0 = process_cpu_s()
        self._previous = signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, self.interval, self.interval)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, self._previous)

    def reference_s(self) -> float:
        if not self.units:  # a process shorter than one interval
            self.units.append(unit())
        return (process_cpu_s() - self._cpu0 - sum(self.units)) * speed(self.units)
