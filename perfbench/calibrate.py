"""Calibrated time: operation time rescaled to a fixed reference speed.

Two corrections, both for noise of the host rather than of the program:

* Time is the process's CPU time (all threads), not wall time. The engine is
  single-threaded pure Python and does no I/O inside an operation, so its
  CPU time is its wall time less the time the virtual machine's host held
  the CPU back ("steal" in /proc/stat). Steal comes in bursts of tens of
  ms and stretched single operations by up to 1.7x on the reference host.
  Raw wall times are reported next to the calibrated ones.
* The host's speed drifts by 10-20% between windows of a few seconds. A
  short loop of stdlib work (Fraction, int and dict operations and the other
  kinds of object churn the engine spends its time on) runs next to the
  measured operations; an operation's calibrated time is its CPU time times
  REFERENCE_MS over the loop's CPU time measured beside it. The loop shares
  no code with the program.

The garbage collector is off while the loop runs: a collection that the
program's live objects would trigger inside the loop measures the program's
heap, not the host's speed.
"""
from __future__ import annotations

import bisect
import gc
import statistics
import time
from fractions import Fraction

# CPU time of one `loop()` that fixes the unit: a calibrated millisecond is
# the work the reference host (Python 3.11.7, 2 cores) does in 1 ms when the
# loop takes this long there. Its median there was 4.65 ms (README).
REFERENCE_MS = 4.4

# Samples nearest to an operation whose median gives its speed.
WINDOW = 5

# A sample is taken before an operation when this long has passed since the
# last, so short operations do not pay a loop each.
SAMPLE_EVERY_S = 0.06


class _Cell:
    __slots__ = ("key", "vals")

    def __init__(self, key, vals):
        self.key = key
        self.vals = vals


def loop() -> int:
    """A blend of the kinds of work the engine does: Fraction arithmetic,
    a sparse product of tuple-keyed dicts of Fraction vectors, small-object
    churn, sorting and string rendering, and big-int mixing."""
    acc: dict = {}
    x = Fraction(1)
    for i in range(60):
        f = Fraction(i % 11 - 5, i % 9 + 1)
        x = x * f + Fraction(1, 3) if x.denominator < 10**6 else Fraction(i % 5 + 1, 7)
        acc[i % 13, i % 7] = acc.get((i % 13, i % 7), 0) + x
    cells = [_Cell((i % 17, i % 5), tuple(Fraction(j - i % 3, 2) for j in range(4)))
             for i in range(120)]
    product: dict = {}
    for c1 in cells[:12]:
        for c2 in cells[12:24]:
            key = (c1.key[0] + c2.key[0], c1.key[1] + c2.key[1])
            v = tuple(p * q for p, q in zip(c1.vals, c2.vals))
            old = product.get(key)
            product[key] = v if old is None else tuple(p + q for p, q in zip(old, v))
    text = " + ".join("%s*a^%d*b^%d" % (v[0], k[0], k[1]) for k, v in sorted(product.items()))
    n = 1
    for i in range(300):
        n = (n * 6364136223846793005 + i) % (1 << 89)
    return len(acc) + len(text) + n % 7


def sample_ms() -> float:
    """CPU time of one loop, in ms, with the collector off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.process_time()
        loop()
        return (time.process_time() - start) * 1000.0
    finally:
        if enabled:
            gc.enable()


class Calibrator:
    """Loop samples taken through a run, and the speed at any moment of it."""

    def __init__(self):
        self.times: list[float] = []  # wall clock at the start of each sample
        self.samples: list[float] = []  # CPU ms of each loop

    def sample(self) -> None:
        start = time.perf_counter()
        ms = sample_ms()
        self.times.append(start)
        self.samples.append(ms)

    def maybe_sample(self) -> None:
        if not self.times or time.perf_counter() - self.times[-1] >= SAMPLE_EVERY_S:
            self.sample()

    def loop_ms_at(self, moment: float) -> float:
        """Median loop time of the WINDOW samples nearest to `moment`."""
        i = bisect.bisect_left(self.times, moment)
        lo = max(0, min(i - WINDOW // 2, len(self.times) - WINDOW))
        return statistics.median(self.samples[lo:lo + WINDOW])

    def calibrated_ms(self, start: float, wall_s: float, cpu_s: float) -> float:
        """CPU time `cpu_s` of an operation that began at wall time `start`
        and took `wall_s`, in calibrated ms."""
        return cpu_s * 1000.0 * REFERENCE_MS / self.loop_ms_at(start + wall_s / 2)

    def median_ms(self) -> float:
        return statistics.median(self.samples)
