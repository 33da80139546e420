"""Host-speed reference for the ethsim benchmark.

The shared 2-vCPU host the baselines come from changes speed by ±25% over
stretches of seconds to minutes, and every workload slows and speeds up
with it (see README.md).  A fixed reference kernel, timed every
``PERIOD_S`` seconds of wall time inside the timed invocations, slows in
step with the workloads.  The time metrics are scaled by
``REF_S / (mean kernel time)``, so they read as on a host that runs the
kernel in ``REF_S`` seconds, and the drift cancels.

The kernel is built from plain numpy and Python only, so no change to
``ethsim`` changes it; its mix (an interpreter loop, small complex matrix
products and a small SVD) is that of the workloads' own hot paths.
"""

from __future__ import annotations

import signal
from time import perf_counter, process_time

import numpy as np

# Wall time between the end of one kernel sample and the start of the next.
PERIOD_S = 0.1
# About the kernel's mean time inside the workloads' invocations on the host
# of RESULTS.md ("Intel(R) Xeon(R) Processor", 2 vCPUs, numpy 2.4.6,
# OpenBLAS 0.3.31), so that scaled figures read close to unscaled ones there.
REF_S = 0.0045

_rng = np.random.default_rng(0)
_SMALL = _rng.standard_normal((4, 4)) + 1j * _rng.standard_normal((4, 4))
_EYE2 = np.eye(2, dtype=complex)
_MEDIUM = _rng.standard_normal((48, 48)) + 1j * _rng.standard_normal((48, 48))


def kernel() -> float:
    """A fixed mix of interpreter, small-array and LAPACK work (about 4 ms)."""
    x = 0
    for i in range(8000):
        x += i * i % 7
    s = float(x)
    for _ in range(60):
        k = np.kron(_SMALL, _EYE2)
        s += np.trace(k @ k.conj().T).real
    for _ in range(3):
        s += np.linalg.svd(_MEDIUM, compute_uv=False)[0]
    return s


class Sampler:
    """Times the kernel every ``PERIOD_S`` seconds while it is active.

    A one-shot ``SIGALRM`` timer, re-armed at the end of each sample, runs
    the kernel from the main thread between two bytecodes of whatever is
    running.  The wall and CPU time spent in the kernel are accumulated, so
    the caller can take them out of its own timings.
    """

    def __init__(self):
        self.samples = 0
        self.wall = 0.0
        self.cpu = 0.0
        self._active = False
        signal.signal(signal.SIGALRM, self._tick)

    def _tick(self, signum, frame):
        if not self._active:
            return
        c0 = process_time()
        w0 = perf_counter()
        kernel()
        self.wall += perf_counter() - w0
        self.cpu += process_time() - c0
        self.samples += 1
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S)

    def __enter__(self):
        self._active = True
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S)
        return self

    def __exit__(self, *exc):
        # Deactivate first: a tick already pending must not re-arm the timer.
        self._active = False
        signal.setitimer(signal.ITIMER_REAL, 0)

    def slowdown(self) -> float:
        """Mean kernel time over ``REF_S``: above 1 on a host slower than the reference."""
        return self.wall / self.samples / REF_S if self.samples else 1.0
