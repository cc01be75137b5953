"""A fixed speed probe that tracks how fast the machine runs right now.

On a shared host the speed a process gets changes by up to about 2x over
seconds to minutes, as other tenants' load comes and goes. The same
operation then takes 65 ms in one window and 120 ms in the next, and no run
length averages that out. The probe is a few milliseconds of fixed work of
the kinds the library's hot paths do: a Python loop over matrix rows with
small numpy slices and dots, a pure-Python float loop, and scipy CSR
products. It calls nothing in ``blocksolve``, so a change to the library
cannot change it.

A probing ``Stopwatch`` runs the probe between the timed segments of every
operation (before the set-up, between set-up and solve, after the solve)
and scales each segment's time by ``REFERENCE_S`` over the mean of the two
probes around it: the time the segment would have taken with the probe at
its reference speed. Each probe lasts about 3% of the segment it ends, at
least three repeats of the fixed work, so that a long segment is scaled by
the machine's speed over a comparable stretch of time rather than by one
instant of it.
"""

import time

import numpy as np
import scipy.sparse as sp

# Typical seconds of one repeat of the probe's work on the reference machine
# (2-core shared Xeon VM at 2.1 GHz, Python 3.11, NumPy 2.4, SciPy 1.17, one
# BLAS thread). It only sets the scale, so scaled times read as seconds on
# that machine.
REFERENCE_S = 0.0019

PROBE_SHARE = 0.03
MAX_REPEATS = 64

_N = 96              # grid side of the probe's 5-point operator
_ROWS = 250          # rows of the Python row sweep
_FLOAT_LOOP = 2500
_PRODUCTS = 12


def _operator():
    n = _N * _N
    main = np.full(n, 4.0)
    off = np.full(n - 1, -1.0)
    off[_N - 1::_N] = 0.0
    far = np.full(n - _N, -1.0)
    return sp.diags([far, off, main, off, far], [-_N, -1, 0, 1, _N], format="csr")


_A = _operator()
_V = np.linspace(0.5, 1.5, _A.shape[0])
_LOWER = sp.tril(_A[:_ROWS, :_ROWS], k=-1, format="csr")
_FLOATS = [float(v) for v in _V[:_FLOAT_LOOP]]


def _work():
    # row sweep: per row a numpy slice, a gather and a dot
    indptr, indices, data = _LOWER.indptr, _LOWER.indices, _LOWER.data
    y = np.empty(_ROWS)
    for i in range(_ROWS):
        lo, hi = indptr[i], indptr[i + 1]
        y[i] = _V[i] - data[lo:hi] @ y[indices[lo:hi]]
    # interpreter arithmetic
    s = 0.0
    for v in _FLOATS:
        s = 0.5 * s + v * v
    # sparse products and vector updates
    w = _V
    for _ in range(_PRODUCTS):
        w = _A @ w
        w *= 1.0 / np.linalg.norm(w)
    return float(y[-1]) + s + float(w[0])


def probe(repeats=3):
    """Mean seconds of one repeat of the probe's fixed work, over
    ``repeats`` back-to-back repeats."""
    t0 = time.perf_counter()
    for _ in range(repeats):
        _work()
    return (time.perf_counter() - t0) / repeats


def warm_up(times=20):
    for _ in range(times):
        _work()


class Stopwatch:
    """Times the segments of the operations of one run.

    ``start()`` begins an operation; ``lap(key)`` ends the current segment
    and adds its wall seconds to ``wall[key]`` (``key=None`` leaves the
    segment untimed). A probing stopwatch runs the probe after every lap,
    outside any segment, and adds the segment's seconds at reference speed
    to ``ref[key]``: its wall time times ``REFERENCE_S`` over the mean of
    the probes just before and just after it. The last probe of one
    operation is the first of the next.
    """

    def __init__(self, probing):
        self.probing = probing
        self.probes = []
        if probing:
            warm_up()
            self.probes.append(probe())
        self.wall, self.ref = {}, {}
        self._t = time.perf_counter()

    def start(self):
        self.wall, self.ref = {}, {}
        self._t = time.perf_counter()

    def lap(self, key=None):
        elapsed = time.perf_counter() - self._t
        if key is not None:
            self.wall[key] = self.wall.get(key, 0.0) + elapsed
        if self.probing:
            # probe for about PROBE_SHARE of the segment it ends, so a long
            # segment's speed is averaged over a comparable stretch of time
            repeats = min(MAX_REPEATS, max(3, round(PROBE_SHARE * elapsed / self.probes[-1])))
            self.probes.append(probe(repeats))
            if key is not None:
                speed = REFERENCE_S / (0.5 * (self.probes[-2] + self.probes[-1]))
                self.ref[key] = self.ref.get(key, 0.0) + elapsed * speed
        self._t = time.perf_counter()
