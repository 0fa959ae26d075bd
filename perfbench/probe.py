"""Machine speed sampled while a repetition runs.

On a shared machine the same computation can take twice as long from one
minute to the next, because other tenants load the cores.  The probe
times a fixed reference loop every ``INTERVAL_S`` of this process's CPU
time (via SIGPROF), interleaved with the work itself, so both see the
same load.  A repetition's time divided by the loop's mean time is its
cost in reference loops, which that load largely cancels out of.
"""

from __future__ import annotations

import signal
import time

INTERVAL_S = 0.005   # CPU seconds between samples: about 1.5% overhead


def reference_loop() -> int:
    """Fixed interpreter work: integer bit operations, small tuples and
    calls, like the package's own kernels."""
    acc = 0
    for i in range(300):
        m = (i * 2654435761) & 0xFFFF
        acc += (m & -m).bit_length() + len((m, i))
    return acc


class SpeedProbe:
    """Context manager; ``spent`` is the time the samples took, which the
    caller subtracts from what it timed."""

    def __init__(self):
        self.spent = 0.0
        self.count = 0

    def sample(self, *_signal_args) -> None:
        t0 = time.perf_counter()
        reference_loop()
        self.spent += time.perf_counter() - t0
        self.count += 1

    @property
    def loop_s(self) -> float:
        """Mean duration of one reference loop."""
        return self.spent / self.count

    def __enter__(self):
        self.sample()  # at least one sample, however short the work
        self._previous = signal.signal(signal.SIGPROF, self.sample)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, self._previous)
