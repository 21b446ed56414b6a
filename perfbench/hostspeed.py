"""Host speed, sampled inside the workload process while it runs.

The benchmark runs on virtual machines whose vCPUs share physical cores with
other tenants.  There the same pass can take 30-40% longer in a slow phase
than in a fast one, and the phases last from a second to minutes, so a plain
wall time measures the neighbours as much as the program.  A `Sampler` times
a fixed reference kernel from a SIGALRM handler every `PERIOD_S` of wall
time.  The kernel is about 2 ms of the kinds of work the workloads are made
of: Python arithmetic, numpy calls on tiny and on medium arrays, a spread of
numpy functions, and a short scipy DOP853 solve.  The mean kernel time over a
pass says how fast the host ran during that pass, and

    scaled = (wall - handler time) * REF_KERNEL_S / mean kernel time

is the pass's wall time at the speed of the reference host.  The kernel lives
here, outside the program, so no change to torusflow can change it.

Python runs the handler between bytecodes of the main thread, so a long
compiled call delays a sample but never splits it.
"""
import signal
import time

import numpy as np
from scipy.integrate import solve_ivp

PERIOD_S = 0.075
# mean time of one `kernel()` call on the 2-vCPU machine the baseline was
# recorded on, in a typical phase; it only sets the scale of scaled times
REF_KERNEL_S = 2.0e-3

_TINY = np.arange(4.0)
_SMALL = np.array([0.3, 1.2, 2.5])
_GRID = np.linspace(0.0, 1.0, 64)
_MEDIUM = np.random.default_rng(0).random(4000)
_Y0 = np.array([0.1, 0.2, 0.7, 0.7])


def _pendulum(t, y):
    return np.array([y[2], y[3], -0.3 * np.sin(y[0]) - 0.01 * y[1],
                     -0.2 * np.cos(y[1])])


def kernel():
    """The fixed reference work; returns nothing, its time is the reading."""
    s = 0.0
    for i in range(1500):
        s += (i & 7) * 0.5
    v = _TINY
    for _ in range(50):
        v = np.sin(v) * 0.5 + np.cos(v)
    for _ in range(5):
        np.sqrt(np.sin(_MEDIUM) * _MEDIUM + 1.0).sum()
    for _ in range(12):
        a = np.hypot(_SMALL, _SMALL[::-1])
        b = np.clip(np.arctan2(a, _SMALL), 0.1, 2.0)
        d = np.concatenate([a, b])
        float(np.linalg.norm(np.where(d > 1.0, d, -d)))
        np.searchsorted(_GRID, b)
        np.cumsum(d)
        np.interp(b, _GRID, _GRID * _GRID)
        np.stack([a, b]).T @ np.ones(2)
    solve_ivp(_pendulum, (0.0, 1.0), _Y0, method="DOP853", rtol=1e-9,
              atol=1e-10)


class Sampler:
    """Times `kernel()` from a SIGALRM handler while it is running.

    `mark()` returns a position; `since(mark)` gives the samples taken and
    the time spent in the handler after it.
    """

    def __init__(self):
        self.samples = []
        self.handler_s = 0.0
        self._previous = None

    def _handler(self, signum, frame):
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        self.samples.append(t1 - t0)
        self.handler_s += t1 - t0

    def __enter__(self):
        kernel()  # warm the kernel's code paths before the first sample
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def mark(self):
        return len(self.samples), self.handler_s

    def since(self, mark):
        """(kernel times since `mark`, handler seconds since `mark`)."""
        n, handler_s = mark
        return self.samples[n:], self.handler_s - handler_s


def scale(seconds, kernel_s):
    """`seconds`, measured while the kernel took `kernel_s`, at reference
    speed."""
    return seconds * REF_KERNEL_S / kernel_s
