"""Reference probe that turns wall time into machine-speed-independent time.

On a shared host the same computation runs up to 2x slower for seconds to
minutes at a time while other tenants contend for the hardware; steal time
stays near zero, so the process is running, just slower.  The probe is a
fixed computation of the benchmark's own: small NumPy operations driven
from Python and one cache-resident sort.  Timing it right before and right
after each part gives the machine's speed at that moment.  A part's
*reference seconds* are its wall seconds scaled by ``REFERENCE_S / probe
seconds``: what the part would take when the probe takes ``REFERENCE_S``.
The benchmark pins itself to one CPU so that the probe and the part, child
processes included, run on the same one.

Over 60 large-n fits whose wall time ranged from 3.7 to 6.2 s, the spread
(IQR/median) of medians of six fits was 0.14 in wall seconds and 0.04 in
reference seconds; the paper presets went from 0.045 to 0.033.  Taking the
median of five probe runs tracked better than the fastest of three or the
median of seven.
"""

from __future__ import annotations

import contextlib
import statistics
import time

import numpy as np

# About the probe's time on a quiet host of the baseline's machine (2 vCPUs
# at 2.1 GHz).  It only sets the scale, so that reference seconds read close
# to quiet-host wall seconds there.
REFERENCE_S = 0.003
PROBE_REPEATS = 5


class Probe:
    """The reference computation and the timer built on it."""

    def __init__(self) -> None:
        rng = np.random.default_rng(12345)
        self.points = rng.uniform(-5.0, 25.0, size=(600, 2))
        self.weights = rng.uniform(-1.0, 1.0, size=(4, 2))
        self.keys = rng.uniform(size=20_000)

    def _once(self) -> float:
        start = time.perf_counter()
        for _ in range(60):
            preds = (self.points @ self.weights.T) @ np.ones(4)
            order = np.argsort(-preds, kind="stable")[:30]
            total = float(preds[order].sum()) + float(np.abs(self.weights).sum())
            frozen = self.weights.copy()
            frozen[np.abs(frozen) < 1e-3] = total * 0.0
        np.argsort(self.keys, kind="stable")
        return time.perf_counter() - start

    def seconds(self) -> float:
        """Median of a few probe runs."""
        return statistics.median(self._once() for _ in range(PROBE_REPEATS))

    @contextlib.contextmanager
    def timed(self, record: dict, name):
        """Record ``(wall seconds, reference seconds)`` of the block under ``name``."""
        before = self.seconds()
        start = time.perf_counter()
        try:
            yield
        finally:
            wall = time.perf_counter() - start
            record[name] = (wall, wall * REFERENCE_S / ((before + self.seconds()) / 2.0))
