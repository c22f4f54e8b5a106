"""Machine-speed calibration for shared hosts.

On a shared 2-vCPU host the same code runs up to 1.6x slower for stretches
of seconds to minutes, which no amount of work inside one run averages out.
After every timed operation the benchmark times a fixed kernel of its own
(framed small FFTs in a Python loop, a polyphase resample and a biquad
filter: the kinds of work the converters do) and scales the operation's
time by REFERENCE_S over the median of the last few kernel times. Reported
times are therefore seconds at the reference machine's speed.

The kernel never calls into hapticwave. It does run right after each
operation, so it starts from whatever that operation left in cache and pays
to bring its own 70 KB back; that makes it track memory contention as well
as compute contention. An operation whose whole working set fits in a 2 MB
L2 would leave the kernel slightly warmer, which the unscaled throughput in
the detail line shows.
"""

from __future__ import annotations

import statistics
from collections import deque
from time import perf_counter

import numpy as np
from scipy.signal import butter, resample_poly, sosfilt

# Median kernel time on the reference machine: a 2-vCPU x86-64 VM, Python 3.11,
# numpy 2.4, scipy 1.17, in its faster state.
REFERENCE_S = 1.6e-3
WINDOW = 5

_X = np.random.default_rng(7).standard_normal(8820)
_FRAME_WINDOW = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(441) / 441)
_SOS = butter(4, [200.0, 300.0], btype="bandpass", fs=44100, output="sos")
_POOL = np.arange(221) // 10


def kernel() -> float:
    acc = 0.0
    for frame in _X.reshape(20, 441):
        power = np.abs(np.fft.rfft(frame * _FRAME_WINDOW)) ** 2
        acc += float(np.bincount(_POOL, weights=power).max())
    return acc + float(resample_poly(_X, 80, 441)[0] + sosfilt(_SOS, _X)[-1])


class Speed:
    """Rolling estimate of how fast the machine runs now, relative to the reference."""

    def __init__(self):
        self.recent: deque[float] = deque(maxlen=WINDOW)
        self.history: list[float] = []

    def sample(self) -> None:
        start = perf_counter()
        kernel()
        self.recent.append(perf_counter() - start)
        self.history.append(self.recent[-1])

    def refresh(self) -> None:
        """Fill the whole window."""
        for _ in range(WINDOW):
            self.sample()

    def scale(self) -> float:
        """Factor that turns a time measured now into reference-machine time."""
        return REFERENCE_S / statistics.median(self.recent)
