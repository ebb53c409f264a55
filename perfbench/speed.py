"""Host-speed probe: how fast the CPU that runs the commands is, moment by
moment, so that a time can be read at one fixed speed.

On a shared virtual machine a CPU's speed swings by a factor of about 1.5
for seconds or tens of seconds at a time, as other tenants load the same
physical core; one run of the same command on the same input took 5.8 s
and the next 7.8 s. That drift is specific to the CPU and no longer than
a run, so a longer run or a reference timed between commands does not
remove it. A probe sharing the CPU with the command does.

The benchmark pins itself, and so every child it starts, to one CPU
(h2grid's work runs on one thread). A thread of the benchmark's process
wakes on that CPU after a random pause of 10 to 30 ms, times a fixed loop
of pure Python that takes about 1.3 ms, and sleeps again: it takes about
6% of the CPU. A command's speed is NOMINAL_S times the number of probes
taken while it ran, over their total time, and its time at nominal speed
is its wall time times that speed.

Why these choices: over repeats of one command on one input, a probe of
0.13 ms, or a per-probe mean of speeds, corrected only part of the
slowdown (the command slowed by about the 1.3th to 1.9th power of the
speed they gave); the 1.3 ms probe with total probe time over total count
corrected all of it (power 0.9 to 1.0), and cut the variation of the
command's time from 12-14% to 3-7%. The pauses are random so that probes
do not fall into step with other tenants' timers.
"""

from __future__ import annotations

import bisect
import os
import random
import threading
import time

PAUSE_S = (0.01, 0.03)
LOOP = 20_000
# the loop's time on an uncontended core of a 2-core Intel Xeon virtual
# machine (Python 3.11); the unit of speed. Only ratios to it matter.
NOMINAL_S = 1.3e-3


def _loop() -> int:
    s = 0
    for i in range(LOOP):
        s += i * i
    return s


def pin_to_one_cpu() -> None:
    """Pin the calling thread, and so the threads and processes it starts
    later, to the highest-numbered CPU it may use."""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


class SpeedProbe:
    """Probes the speed of the CPU its creator is pinned to, from a daemon
    thread, until `stop`. Use as a context manager."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []   # (start, seconds)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="speed-probe",
                                        daemon=True)

    def _run(self) -> None:
        perf = time.perf_counter
        pauses = random.Random(0)
        while not self._stop.is_set():
            start = perf()
            _loop()
            self.samples.append((start, perf() - start))
            self._stop.wait(pauses.uniform(*PAUSE_S))

    def __enter__(self) -> "SpeedProbe":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        # a probe ends within one loop and one pause
        self._thread.join(timeout=5.0)

    def speed(self, start: float, end: float) -> float:
        """Speed over the probes started in [start, end] (perf_counter
        times, which child processes share); over the nearest probe when
        none started in it."""
        samples = self.samples[:]
        if not samples:
            raise RuntimeError("the speed probe took no sample")
        lo = bisect.bisect_left(samples, start, key=lambda s: s[0])
        hi = bisect.bisect_right(samples, end, key=lambda s: s[0])
        if hi == lo:
            lo = min(lo, len(samples) - 1)
            hi = lo + 1
        return NOMINAL_S * (hi - lo) / sum(s[1] for s in samples[lo:hi])
