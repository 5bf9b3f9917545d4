"""Host-speed sampler: scales measured times to a fixed reference speed.

The benchmark runs on a few cores of a shared host whose speed drifts by
20 to 40 % over seconds and minutes, and process CPU time drifts with wall
time, so neither is steady on its own.  The sampler times a fixed
pure-Python loop (a *tick*) on an interval timer, in the measuring process
itself, throughout the run.  An interval of the run is then scaled by
``REFERENCE_TICK_S`` over the median tick measured in and around it: a
time that would have read 10 ms with the host running at reference speed
reads about 10 ms whatever the host's speed was at that moment.

The program's own code never runs inside the sampler, so a change that
makes an op slower or faster moves its scaled time by the same share.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

#: Loop iterations of one tick.
TICK_LOOPS = 3000
#: Seconds between ticks; a tick takes about 1 % of that.
TICK_PERIOD_S = 0.03
#: Median tick on the reference host (2-vCPU Intel Xeon VM, CPython 3).
REFERENCE_TICK_S = 300e-6
#: Ticks this far before and after an interval also rate its speed.
WINDOW_S = 0.25
#: Fewest ticks that rate an interval; fewer in the window takes the nearest.
MIN_TICKS = 5


def _tick_loop() -> int:
    acc = 0
    for i in range(TICK_LOOPS):
        acc += i * i % 7
    return acc


class Sampler:
    """Ticks on SIGALRM between :meth:`start` and :meth:`stop`."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.ticks: list[float] = []
        self._busy = False
        self._previous = None

    def _on_alarm(self, signum, frame) -> None:
        if self._busy:  # a late signal inside a tick would time itself
            return
        self._busy = True
        started = time.perf_counter()
        _tick_loop()
        self.ticks.append(time.perf_counter() - started)
        self.starts.append(started)
        self._busy = False

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, TICK_PERIOD_S, TICK_PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def factor(self, start: float, elapsed: float) -> float:
        """Reference tick over the median tick around [start, start + elapsed]."""
        lo = bisect.bisect_left(self.starts, start - WINDOW_S)
        hi = bisect.bisect_right(self.starts, start + elapsed + WINDOW_S)
        if hi - lo < MIN_TICKS:
            mid = bisect.bisect_left(self.starts, start + elapsed / 2)
            lo = max(0, min(mid - MIN_TICKS // 2, len(self.ticks) - MIN_TICKS))
            hi = lo + MIN_TICKS
        if hi > len(self.ticks) or lo >= hi:
            raise RuntimeError("too few speed ticks to scale a time")
        return REFERENCE_TICK_S / statistics.median(self.ticks[lo:hi])

    def scaled(self, start: float, elapsed: float) -> float:
        return elapsed * self.factor(start, elapsed)

    def summary(self) -> str:
        q = statistics.quantiles(self.ticks, n=4)
        return (f"{len(self.ticks)} ticks of {TICK_LOOPS} loops every "
                f"{TICK_PERIOD_S * 1000:.0f} ms: median {q[1] * 1e6:.1f} us, "
                f"quartiles {q[0] * 1e6:.1f}-{q[2] * 1e6:.1f} us; reference "
                f"{REFERENCE_TICK_S * 1e6:.1f} us")
