"""Host-speed meter that scales measured times to a reference pace.

The shared 2-vCPU host this benchmark was written on runs in speed phases:
the same retrieval loop takes up to 1.7x longer for tens of seconds to
minutes at a time, and CPU time inflates with wall time, so neither can be
compared across runs as it is.  ``PaceMeter`` samples the host's speed
while the benchmark runs: every ``INTERVAL_S`` seconds a SIGALRM handler
times ``kernel``, a fixed loop of stdlib-only work of the kind twqp spends
its time on (dict lookups with string keys, float logs, tuples, a keyed
sort, JSON).  It never calls twqp, so a change to twqp cannot move it.

Each vCPU flips between a fast and a slow state (about 1.7x apart) every
10-250 ms; the share of time spent slow drifts over seconds to minutes.
An operation's time is its wall time minus the handler time inside it,
scaled by ``REFERENCE_KERNEL_S`` over the mean kernel time within
``WINDOW_S`` seconds of the operation: the mean, because it moves with
that share as the operation's own time does.  A sample that a preemption
hit reads several times the typical one; samples are clipped at
``CLIP_X`` times the window's median first, so that one stall does not set
the pace of a whole window.  The result is the
operation's time at the reference pace, in seconds.  A change that makes
twqp slower or faster moves it fully; a drift that slows twqp and the
kernel alike does not.  An operation much shorter than a state sees one
state only, so single short times stay bimodal; callers scale batches.

No thread or process is started: the handler runs in the main thread
between bytecodes, from a kernel interval timer.
"""

from __future__ import annotations

import bisect
import gc
import json
import math
import random
import signal
import statistics
import time
from dataclasses import dataclass, field

INTERVAL_S = 0.1
WINDOW_S = 1.0
CLIP_X = 2.0
# A round value near the mean time of the handler's kernel() on the host
# the figures in README.md were recorded on (Intel Xeon, 2 vCPUs, Python
# 3.11).  Only the ratio to it matters; it is fixed so that results of
# different commits compare.
REFERENCE_KERNEL_S = 0.0015

_rng = random.Random(1902)
_WORDS = [f"w{_rng.randrange(5000):04d}" for _ in range(1500)]
_TABLE = {f"w{i:04d}": i % 17 for i in range(0, 5000, 3)}


def kernel() -> float:
    """Fixed stdlib-only work; returns its wall seconds.

    The cyclic garbage collector is off while it runs: a collection costs
    in proportion to everything the process holds, so with it on the
    kernel's time would follow twqp's heap, not the host's speed.
    """
    gc_was_on = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        table, total, scored = _TABLE, 0.0, []
        for i, w in enumerate(_WORDS):
            total += math.log((table.get(w, 0) + 0.5 * (i % 97 + 1)) / 1080.0)
            scored.append((w, total))
        scored.sort(key=lambda e: (-e[1], e[0]))
        json.loads(json.dumps({w: i for i, w in enumerate(_WORDS[:250])}))
        return time.perf_counter() - start
    finally:
        if gc_was_on:
            gc.enable()


@dataclass(frozen=True)
class Span:
    """One timed operation: wall start and end, and seconds spent in it
    outside the meter's handler."""

    start: float
    end: float
    busy: float


@dataclass
class PaceMeter:
    """Kernel samples taken from the interval timer between start() and
    stop(); operations read clock() before and after themselves."""

    at: list[float] = field(default_factory=list)
    kernel_s: list[float] = field(default_factory=list)
    stolen: float = 0.0  # seconds spent in the handler so far

    def _tick(self, signum, frame) -> None:
        entered = time.perf_counter()
        # The first call refills the caches twqp's work evicted; timing only
        # the second keeps twqp's memory footprint out of the sample.
        kernel()
        dt = kernel()
        self.at.append(entered)
        self.kernel_s.append(dt)
        self.stolen += time.perf_counter() - entered

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def clock(self) -> tuple[float, float]:
        """(wall time, wall time minus handler time so far), read together:
        a handler that runs between the two reads forces a re-read."""
        while True:
            stolen = self.stolen
            now = time.perf_counter()
            if self.stolen == stolen:
                return now, now - stolen

    def factor(self, span: Span) -> float:
        """REFERENCE_KERNEL_S over the clipped mean kernel time within
        WINDOW_S of span, or of the nearest sample when a long native call
        held the handler off for the whole window."""
        if not self.at:
            raise RuntimeError("the pace meter took no sample")
        lo = bisect.bisect_left(self.at, span.start - WINDOW_S)
        hi = bisect.bisect_right(self.at, span.end + WINDOW_S)
        if hi <= lo:  # no sample in the window: take the nearest one
            before, after = lo - 1, lo
            if after == len(self.at) or (
                before >= 0 and span.start - self.at[before] <= self.at[after] - span.end
            ):
                lo = before
            hi = lo + 1
        window = self.kernel_s[lo:hi]
        cap = CLIP_X * statistics.median(window)
        return REFERENCE_KERNEL_S / statistics.fmean(min(k, cap) for k in window)

    def scaled(self, span: Span) -> float:
        """span's busy seconds at the reference pace."""
        return span.busy * self.factor(span)
