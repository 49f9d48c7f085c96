"""Host speed, sampled inside an operation process.

On a small VM that shares its host, speed drifts by tens of percent within
seconds and minutes, and each vCPU drifts on its own (measured on a 2-vCPU
Xeon VM), so a fixed amount of work takes a different wall time from one
minute to the next.
To see the program's own cost through that drift, an untraced operation
process times a fixed slice of calibration work right after its set-up and
then on a timer while the operation runs (``Sampler``), interleaved with the
operation on the same CPU.  The slice mixes what the operations spend their
time on, by time share: about 70 % mpmath complex arithmetic at 128 bits on
the pure-Python backend (30 % through ``libmp``, 40 % through ``mpc``
objects), 20 % Python big-integer arithmetic and 10 % numpy complex vectors.
It calls nothing of pcf-lab, so a change to pcf-lab does not change it.

``scaled(seconds, slices)`` turns a time into seconds at the reference
speed, the speed at which one slice takes ``REF_SLICE_S`` (its median on a
2-vCPU Xeon VM).  On that VM, over 12 minutes with about 40 repetitions
each, scaling cut the quartile spread of single operations (bounds d2 n8,
enumerate d2 n10, integral-scan d3 n5 and d2 n6 sqrt 2) from 0.14-0.21 of
the median to 0.03-0.05.

The slices run in a signal handler, so they must not touch global state of
the interrupted program: the mpmath work goes through ``libmp`` with an
explicit precision or through a private context, and never reads or sets
``mp.prec``.
"""

import signal
import statistics
import time

import mpmath
import numpy as np
from mpmath import libmp

REF_SLICE_S = 0.00115  # one slice at the reference speed
INTERVAL_S = 0.05  # between slices while an operation runs (3 % of its time)
SETUP_SLICES = 20  # timed right after set-up, before the operation

_PREC = 128
_RND = libmp.round_nearest
_C = (libmp.from_float(-0.2), libmp.from_float(0.1))  # z -> z^2 + c converges
_Z0 = (libmp.from_float(0.3), libmp.from_float(0.4))
_CTX = mpmath.MPContext()
_CTX.prec = _PREC
_CTX_C = _CTX.mpc(-0.2, 0.1)
_CTX_Z0 = _CTX.mpc(0.3, 0.4)
_M = (1 << 255) - 19
_X0 = 3 ** 150
_V0 = np.exp(2j * np.pi * np.arange(512) / 512) * 0.5


def slice_work() -> None:
    z = _Z0
    for _ in range(24):
        z = libmp.mpc_add(libmp.mpc_mul(z, z, _PREC, _RND), _C, _PREC, _RND)
        libmp.mpc_abs(z, _PREC, _RND)
    w = _CTX_Z0
    for _ in range(28):
        w = w * w + _CTX_C
        abs(w)
    x = _X0
    for _ in range(450):
        x = x * x % _M
    v = _V0
    for _ in range(8):
        v = v * v * 0.5 + 0.25
        v = v / (np.abs(v) + 1.0)


def timed_slice() -> float:
    t0 = time.perf_counter()
    slice_work()
    return time.perf_counter() - t0


class Sampler:
    """Runs a slice every INTERVAL_S of wall time from start() to stop()."""

    def __init__(self):
        self.slices: list[float] = []

    def _tick(self, signum, frame):
        self.slices.append(timed_slice())

    def start(self) -> None:
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> list[float]:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
        return self.slices


def scaled(seconds: float, slices: list[float]) -> float:
    """seconds, measured at the speed the slices saw, at the reference speed."""
    return seconds * REF_SLICE_S / statistics.fmean(slices)
