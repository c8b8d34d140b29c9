"""Host-speed calibration, so that run-to-run figures measure the program.

On a shared machine the same fixed computation runs at speeds up to ~1.8x
apart for stretches of seconds to minutes, as other tenants' load comes and
goes.  Measured on a 2-core VM, a 20-second run lands wholly in a fast or a
slow stretch, and runs of identical requests spread 20-45 % (interquartile
range over median).

``HostSpeed`` times a fixed calibration op, independent of qbound, right
before and right after every request (the median of three ops per sample),
and scales the request's wall time by ``nominal / c``, where ``c`` is the
mean of those two samples.  The result is the request's time at the host's
nominal speed: a program change moves it as it moves wall time, while a slow
stretch of the host moves the calibration op and the request alike and
cancels.  Raw wall times are printed next to every calibrated figure.

A slow stretch does not slow every kind of work equally, so each workload
names the op that does its kind of work:

- ``interpreter``: a Python loop around 4x4 ``numpy.linalg.eigvalsh`` calls,
  like qbound's Nelder-Mead search and its many small-array calls;
- ``arrays``: normal draws on a 40,000 x 2 array, matrix products and a
  reduction, like the Monte-Carlo sampler's chunks.

Measured on the same VM over 100-150 s of repeated requests, medians over
10-20 s windows spread 46 % raw and 4 % calibrated (``interpreter``) for
``verify-suite``, and 18 % raw and 1 % calibrated (``arrays``) for
``monte-carlo``, whose vectorised sampling the interpreter op follows badly
(11 %).  Over six seeds of ``verify-suite``, the spread of ``latency_p50_ms``
fell from 19 % to 6 % and of ``latency_tail_ms`` from 32 % to 7 %; averaging
samples from a window around each request instead did worse (11-14 %).
"""

from __future__ import annotations

import statistics
import time

import numpy as np

REPEATS = 3  # calibration ops per sample; the sample is their median

_MATRIX = np.array([[2.0, 0.3, 0.1, 0.0], [0.3, 1.5, 0.0, 0.2],
                    [0.1, 0.0, 1.2, 0.1], [0.0, 0.2, 0.1, 1.0]])
_CHOL = np.linalg.cholesky(np.array([[1.0, 0.3], [0.3, 0.5]]))
_ESTIMATOR = np.array([[1.0, 0.2], [0.1, 1.0]])


def interpreter_op() -> float:
    total = 0.0
    for i in range(300):
        total += float(np.linalg.eigvalsh(_MATRIX + i * 1e-6)[0]) * 0.5 + i
    return total


def array_op() -> float:
    rng = np.random.default_rng(7)
    estimates = (rng.standard_normal((40_000, 2)) @ _CHOL.T) @ _ESTIMATOR.T
    return float(((estimates - estimates.mean(axis=0)) ** 2).sum())


# op and its nominal time: about its median on a 2-core x86-64 VM, so that
# calibrated times read close to wall times there.
OPS = {"interpreter": (interpreter_op, 3.0e-3), "arrays": (array_op, 3.0e-3)}


class HostSpeed:
    """Calibration samples, in the order taken, and scale factors from them."""

    def __init__(self, kind: str = "interpreter") -> None:
        self.op, self.nominal_s = OPS[kind]
        self.values: list[float] = []

    def sample(self) -> int:
        """Take a sample; returns its index."""
        laps = []
        for _ in range(REPEATS):
            start = time.perf_counter()
            self.op()
            laps.append(time.perf_counter() - start)
        self.values.append(statistics.median(laps))
        return len(self.values) - 1

    def scale(self, before: int, after: int | None = None) -> float:
        """The nominal time over the mean of samples ``before`` and ``after``
        (the next one when not given)."""
        after = before + 1 if after is None else after
        return self.nominal_s / (0.5 * (self.values[before] + self.values[after]))

    @property
    def median_s(self) -> float:
        return statistics.median(self.values)
