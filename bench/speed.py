"""The speed of the core a workload runs on, for scaling its timings.

A two-core share of a busy host does not run at one speed: the same
operation takes up to twice as long from one stretch of seconds to the
next, while the process keeps its core (CPU time equals wall time), so
the loss is a slower core, not time spent off it (README, "Timing"). A
fixed pure-Python reference loop slows with it.

So the workload process times the reference loop between its operations
(`Speed.tick`), at least every `SPACING_S` seconds, and reports each
timed span t as t * (NOMINAL_S / r) ** EXPONENT, where r is the mean of
the reference times just before and just after the span. One reference
time is the median of `BURST` runs of the loop back to back, since a
single run of a few milliseconds is now and then caught by an interrupt.

The library's code does not slow as much as the tight reference loop: in
slow stretches the loop took up to 1.9 times as long as in fast ones, the
censuses and queries about 1.5 times. Over 29 workload processes of both
workloads, whose median reference times ranged from 7.2 to 13.7 ms, the
spread of t * r ** a across processes was least near a = 0.6 for the
censuses and a = 0.7 for the queries (3-4% of the mean, against 11-14%
unscaled and 8% at a = 1); EXPONENT is 0.65. NOMINAL_S, a reference time
of 10 ms, sets the speed the scaled times refer to. The reference loop
runs outside every timed span and calls nothing of the library, so a
change to the library cannot move it.
"""

from __future__ import annotations

import time

NOMINAL_S = 0.0100        # the reference time of the nominal speed
EXPONENT = 0.65           # how the library's time follows the reference time
LOOP = 32_000             # iterations of the reference loop
BURST = 3                 # loop runs per reference time
SPACING_S = 0.5           # longest stretch of work between two references


def _loop():
    """Seconds taken by a fixed loop of integer, list and dict work."""
    t0 = time.perf_counter()
    table = [0] * 64
    seen = {}
    x = 1
    for i in range(LOOP):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        j = x & 63
        table[j] += i
        seen[j] = table[j] ^ x
    return time.perf_counter() - t0


def reference():
    """The median of BURST runs of the reference loop, in seconds."""
    return sorted(_loop() for _ in range(BURST))[BURST // 2]


class Speed:
    """Reference samples taken between operations, and the spans they
    scale. `add` a span's wall time right after it, `tick` between spans,
    `scaled()` at the end."""

    def __init__(self):
        self.refs = [reference()]
        self.last = time.perf_counter()
        self.spans = []           # (wall time, index of the reference before it)

    def add(self, dt):
        self.spans.append((dt, len(self.refs) - 1))

    def tick(self, force=False):
        if force or time.perf_counter() - self.last >= SPACING_S:
            self.refs.append(reference())
            self.last = time.perf_counter()

    def scaled(self):
        """Every added span, scaled to the nominal speed, in order."""
        if self.spans and self.spans[-1][1] == len(self.refs) - 1:
            self.tick(force=True)
        return [scale(dt, self.refs[i], self.refs[i + 1]) for dt, i in self.spans]


def scale(dt, before, after):
    """A span of dt seconds between two reference times, at the nominal speed."""
    return dt * (NOMINAL_S / ((before + after) / 2)) ** EXPONENT
