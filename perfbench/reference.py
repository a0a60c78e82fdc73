"""A fixed reference task that measures how fast the machine is right now.

The speed of a shared host drifts by tens of percent within minutes, for
interpreter work and BLAS alike.  The benchmark times this task right before
and right after each case (and each set-up process) and scales the measured
seconds by NOMINAL_SECONDS over the mean of the two: `normalized` gives the
time the case would take on a host where the task takes NOMINAL_SECONDS,
and most of the drift cancels.  The task never changes and does not touch
momentsdp.  It mixes what the workloads do: interpreter loops, many tiny
LAPACK calls and mid-sized BLAS products.
"""

import time

import numpy as np

_cholesky = np.linalg.cholesky  # bound before any tracer wraps numpy.linalg

# about the task's time on one 2.1 GHz Xeon core
NOMINAL_SECONDS = 0.03

_rng = np.random.default_rng(20130912)
_SPD = [b @ b.T + 6.0 * np.eye(6) for b in _rng.random((50, 6, 6))]
_MAT = _rng.random((160, 160))


def reference_seconds() -> float:
    """Wall seconds of one run of the reference task."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(80_000):
        acc += i % 7
    for _ in range(80):
        for a in _SPD:
            _cholesky(a)
    for _ in range(12):
        _MAT @ _MAT
    return time.perf_counter() - t0


def normalized(seconds: float, before: float, after: float) -> float:
    """Seconds scaled to the nominal speed, from reference times around them."""
    return seconds * 2 * NOMINAL_SECONDS / (before + after)
