"""The machine's speed, sampled while a run's timed work goes on.

On a shared virtual machine the same pure-Python work can run up to about
1.6 times slower for seconds to minutes at a time, with CPU time equal to
wall time: other tenants slow the host, not this process. Runs minutes
apart then differ by more than any change worth measuring. So while items
run, a timer signal fires every INTERVAL_S seconds and its handler times
`probe`, a fixed loop that never calls hfree. Each item's time is reported
scaled by `factor(start, end)`: REFERENCE_S divided by the mean probe time
around and during the item. A change to hfree moves the items and not the
probe, so it shows in full; a slower host moves both.

The handler's own time is counted in `stolen_s`, which the harness takes
out of the item it interrupted.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time

INTERVAL_S = 0.05
# The probe's usual time on the machine the benchmark was written on;
# scaled times read as times at that speed.
REFERENCE_S = 0.35e-3
# Probes this far before and after an item also count for it, so a short
# item between two probes still gets a few.
MARGIN_S = 0.25

starts = []  # perf_counter when each probe began
samples = []  # how long each probe took
stolen_s = 0.0


def probe() -> int:
    """Dictionary, set and tuple work, as in hfree's inner loops."""
    counts = {}
    seen = set()
    total = 0
    for i in range(600):
        key = (i * 2654435761) & 1023
        counts[key] = counts.get(key, 0) + 1
        if key & 1:
            seen.add((key, i & 7))
        total += len(counts)
    return total


def _sample(signum, frame) -> None:
    global stolen_s
    # No garbage collection inside the probe: the item's objects would set
    # how long it takes.
    collecting = gc.isenabled()
    gc.disable()
    start = time.perf_counter()
    try:
        # At the recursion limit the probe's own frame raises
        # RecursionError into the item, as the item's next call would.
        probe()
    finally:
        elapsed = time.perf_counter() - start
        stolen_s += elapsed
        if collecting:
            gc.enable()
    starts.append(start)
    samples.append(elapsed)


def start() -> None:
    global stolen_s
    starts.clear()
    samples.clear()
    stolen_s = 0.0
    _sample(None, None)  # so that factor() has a probe from the start
    signal.signal(signal.SIGALRM, _sample)
    signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)


def stop() -> None:
    signal.setitimer(signal.ITIMER_REAL, 0, 0)
    signal.signal(signal.SIGALRM, signal.SIG_DFL)


def factor(start: float = float("-inf"), end: float = float("inf")) -> float:
    """REFERENCE_S over the mean time of the probes from MARGIN_S before
    `start` to MARGIN_S after `end` (all probes by default): above 1 while
    the host is fast, below 1 while it is slow. Probes come evenly in time,
    so within a long item their mean weighs a slow spell by its length, as
    the item's time does. A probe that took over three times the run's
    median was preempted and is left out: one such sample would move the
    mean more than the spell it fell in."""
    cutoff = 3 * statistics.median(samples)
    lo = bisect.bisect_left(starts, start - MARGIN_S)
    hi = bisect.bisect_right(starts, end + MARGIN_S)
    window = [t for t in samples[lo:hi] if t <= cutoff]
    if not window:
        return factor()
    return REFERENCE_S / statistics.fmean(window)
