"""How fast the machine runs right now, from a fixed calibration kernel.

The shared box this benchmark runs on changes speed by up to 2x, for
spells from seconds to minutes, whatever the program does: its two
cores share their physical cores with other tenants. A run therefore
times a fixed kernel that uses none of ``repro`` between cells — in
``served``, in the server process — and, in long serial cells, on a
timer signal inside them, and reports every timed end-to-end metric
rescaled to a machine on which the kernel takes :data:`NOMINAL_S`. The kernel does what the program does most —
interpreted loops, dict and tuple churn, sorting — so a spell slows
both alike. The rescaling does not depend on the program, so a change
to the program moves a rescaled figure by the same share as the raw
one.
"""

from __future__ import annotations

import contextlib
import gc
import random
import signal
import statistics
import time
from typing import Iterator, List, Tuple

#: Seconds the kernel takes on the reference machine, the fast speed
#: of the 2-core Xeon box this benchmark was built on.
NOMINAL_S = 0.0015
#: Seconds between two kernel runs inside a long serial cell.
SIGNAL_PERIOD_S = 0.2
#: Kernel runs before a cell that rescale it, besides those inside and
#: the one after it: one run is too noisy for a cell of a few ms.
RUNS_BEFORE = 3


def kernel() -> int:
    """The calibration work: fixed, and independent of ``repro``."""
    rng = random.Random(7)
    data = [rng.random() for _ in range(3000)]
    buckets: dict = {}
    for index, value in enumerate(data):
        buckets[index % 97] = buckets.get(index % 97, 0.0) + value
    ranked = sorted(data)
    return len([(index, str(index), value)
                for index, value in enumerate(ranked)]) + len(buckets)


def measure(times: int) -> List[float]:
    """Seconds of *times* kernel runs, back to back, with the garbage
    collector held off: a collection of the program's heap would land
    in the kernel's time."""
    samples = []
    enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(times):
            start = time.perf_counter()
            kernel()
            samples.append(time.perf_counter() - start)
    finally:
        if enabled:
            gc.enable()
    return samples


class SpeedGauge:
    """Kernel timings taken while a workload runs its cells serially."""

    def __init__(self) -> None:
        self.samples: List[float] = []
        self._busy = False

    def sample(self) -> float:
        """Time the kernel once."""
        self._busy = True
        try:
            seconds = measure(1)[0]
        finally:
            self._busy = False
        self.samples.append(seconds)
        return seconds

    @contextlib.contextmanager
    def in_cells(self) -> Iterator[None]:
        """Also time the kernel every :data:`SIGNAL_PERIOD_S` inside the
        cells of a serial loop in the main thread, from a timer
        signal."""

        def on_alarm(_signum, _frame) -> None:
            if not self._busy:
                self.sample()

        previous = signal.signal(signal.SIGALRM, on_alarm)
        signal.setitimer(signal.ITIMER_REAL, SIGNAL_PERIOD_S,
                         SIGNAL_PERIOD_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def mark(self) -> int:
        """Call as a serial cell starts; pass the result to
        :meth:`rescale`."""
        if not self.samples:
            self.sample()
        return len(self.samples)

    def rescale(self, seconds: float, mark: int) -> Tuple[float, float]:
        """A serial cell that took *seconds* and just ended: its seconds
        without the kernel runs inside it, and those seconds rescaled
        to the reference machine by the mean of the last
        :data:`RUNS_BEFORE` kernel runs before it, those inside and the
        one just after it."""
        inside = self.samples[mark:]
        work = seconds - sum(inside)
        self.sample()
        runs = self.samples[max(mark - RUNS_BEFORE, 0):]
        return work, work * NOMINAL_S * len(runs) / sum(runs)

    @property
    def spent_s(self) -> float:
        """Seconds the kernel took in all, to subtract from a loop's
        wall time."""
        return sum(self.samples)

    def slowdown(self) -> float:
        """How much slower than the reference machine this one ran:
        the mean kernel time over :data:`NOMINAL_S` (the mean, because
        the time a loop takes adds up its cells' times)."""
        if not self.samples:
            raise RuntimeError("the speed gauge took no samples")
        return statistics.fmean(self.samples) / NOMINAL_S
