"""Host speed: a fixed reference kernel, timed every PERIOD_S seconds while a workload runs.

The benchmark runs on shared hosts whose speed drifts by up to 2x within
seconds to minutes; other tenants slow it down without any steal time the
guest can see.  The same commands, repeated in one process, then take from
8 to 11 seconds.  Timing a fixed kernel of interpreter, small-matrix and
small-array work throughout each repeat, and scaling the repeat's time by
REFERENCE_S over the kernel's mean time, removes most of that drift: the
scaled times read as seconds on a host that runs the kernel in REFERENCE_S.
"""

import signal
import time
from statistics import mean

import numpy as np

PERIOD_S = 0.5           # one sample every half second: about 2.5% of the time
REFERENCE_S = 0.010      # the kernel's time on a quiet host of the kind measured

_RNG = np.random.default_rng(0)
_MATRICES = _RNG.standard_normal((64, 4, 4)) + 1j * _RNG.standard_normal((64, 4, 4))
_POINTS = _RNG.standard_normal(800) + 1j * _RNG.standard_normal(800)


def kernel_s() -> float:
    """Seconds one run of the reference kernel takes now."""
    start = time.perf_counter()
    acc = 0.0
    for i in range(30000):
        acc += (i * 0.5) % 7.0
    for _ in range(120):
        np.linalg.det(_MATRICES)
    for _ in range(60):
        np.exp(_POINTS * 0.5) * _POINTS + np.sinh(_POINTS)
    return time.perf_counter() - start


class Sampler:
    """Samples kernel_s from a SIGALRM handler while the with-block runs.

    The handler runs between bytecodes of the main thread, so samples land
    inside the workload's own commands.  `busy_s` is the time the samples
    took, to be taken off the block's time before scaling.
    """

    def __enter__(self):
        self.samples, self.busy_s = [], 0.0
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.samples:     # a block shorter than PERIOD_S
            self.samples.append(kernel_s())
        return False

    def _sample(self, signum, frame):
        start = time.perf_counter()
        self.samples.append(kernel_s())
        self.busy_s += time.perf_counter() - start

    def scale(self, seconds: float) -> float:
        """Seconds measured in the block, without the samples, at reference speed."""
        return (seconds - self.busy_s) * REFERENCE_S / mean(self.samples)
