"""A clock that reads seconds at the host's reference speed.

The virtual machines this benchmark runs on share their physical cores, and
the same operation runs up to 1.7 times slower while a neighbour is busy.
Those slow phases last from a second to a minute, so they move the median
of a whole run.  This clock takes them out: while it runs, a timer
interrupts the program every `INTERVAL_S` seconds and times a fixed probe,
a sparse LU factorization and solve of a 2-D Laplacian in scipy, which never
calls the package.  Until the next probe the clock advances at the rate
`PROBE_REF_S / p`, where p is the time the probe just took, so a stretch of
work that ran 30% slow because the host did is counted at its
reference-speed length.  The probes' own time is left out.  The host's speed
changes within a second, so the rate follows the last probe alone:
smoothing over the last three or five probes made the readings less steady,
and probing every 0.1 s instead of 0.25 s made them no steadier.

A change to the package moves the work between probes and not the probes,
so it moves the clock's reading as much as it moves the wall clock.  `raw()`
gives the wall clock with the probes' time left out, for comparison.
"""

import signal
from time import perf_counter

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

INTERVAL_S = 0.25
PROBE_GRID = 40          # the probe's Laplacian is on a PROBE_GRID^2 grid
PROBE_REPEATS = 4
# about the fastest the probe ran inside the workloads on a 2-vCPU Xeon at
# 2.0 GHz (it mostly took 23 to 28 ms there); it sets only the scale of
# every time, so readings are compared with readings, not with wall time
PROBE_REF_S = 0.015


class SpeedClock:
    """Reference-speed seconds; probes the host only between start and stop."""

    def __init__(self):
        n = PROBE_GRID
        tri = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n))
        eye = sp.identity(n)
        self._matrix = (sp.kron(eye, tri) + sp.kron(tri, eye)).tocsc()
        self._rhs = np.ones(n * n)
        self._probe()                        # load SuperLU before any timing
        self.probe_times = []
        p = self._probe()
        # (reference seconds, probe seconds, wall time of the last probe's
        # end, current rate): replaced as one tuple, so a reader never sees
        # half of an update made by the timer's handler
        self._state = (0.0, 0.0, perf_counter(), PROBE_REF_S / p)

    def _probe(self):
        t0 = perf_counter()
        for _ in range(PROBE_REPEATS):
            splu(self._matrix).solve(self._rhs)
        return perf_counter() - t0

    def _tick(self, signum=None, frame=None):
        ref, lost, t_last, rate = self._state
        t0 = perf_counter()
        ref += (t0 - t_last) * rate
        p = self._probe()
        t1 = perf_counter()
        self.probe_times.append(p)
        self._state = (ref, lost + (t1 - t0), t1, PROBE_REF_S / p)

    def now(self):
        """Seconds at the reference speed since the clock was made."""
        while True:
            state = self._state
            ref, _, t_last, rate = state
            value = ref + (perf_counter() - t_last) * rate
            if state is self._state:         # no probe ran in between
                return value

    def raw(self):
        """Wall-clock seconds, less the time spent in probes."""
        while True:
            state = self._state
            value = perf_counter() - state[1]
            if state is self._state:
                return value

    def start(self):
        self._tick()                         # a fresh rate for the first interval
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
