"""Machine-speed probe: item times in calibrated seconds.

The reference machine (a 2-vCPU Xeon) is shared with other tenants.  On
it the same solve takes 5.3 ms or 9.4 ms depending on what the neighbours
do, and either state can last from one second to the whole run, so raw
wall times of two identical runs differ by up to 1.8x.  Process CPU time
moves the same way, so the slowdown is contention for the core, not
scheduling.

A fixed reference kernel, defined in this file and never changed with the
program, runs every 40 ms from a timer signal, between items and inside
them; the time a probe takes inside an item is taken off the item's time.  It does what the solver's inner
loop does (small matrix-vector products against 64-node tables,
elementwise strain-energy algebra, a 12 x 12 solve) and what the CLI does
with a result (format floats into CSV rows, dump JSON), so contention
slows it about as much as it slows the program.  An item's calibrated
time is its wall time divided by the kernel's slowdown around it: the
median, over the probes within 0.1 s of the item, of the kernel time over
``REF_S``.  ``REF_S`` is the kernel's time on the uncontended reference
machine, so calibrated seconds read as seconds there.

The contention changes within a fraction of a second: over 1500 pairs of
probe and solve, the solve time's residual after calibration was
smallest with a window of one or two probes either side (0.12 in log
terms, against 0.17 with a half-second window), and the kernel with the
text part tracked both a CLI solve and a library solve better than the
array part alone.  Probing inside an item is what makes this window
work for items of a second, which contention changes under.

Set-up (a fresh interpreter importing numpy, scipy and the program) slows
down far less than the kernel under the same contention, so it has its
own reference: a fresh interpreter that imports the same outside modules
and nothing of the program, run before and after each set-up probe.  A
set-up probe's calibrated time is its wall time times ``SETUP_REF_S``
over the mean of those two reference times.
"""

from __future__ import annotations

import bisect
import json
import signal
import statistics
import time

import numpy as np

# Kernel time on the reference machine (2-vCPU Xeon, numpy 2.4 with
# OpenBLAS pinned to one thread), uncontended.
REF_S = 1.2e-3

# Set-up reference: interpreter arguments, and their wall time on the
# reference machine, uncontended.
SETUP_REF_ARGS = ("-c", "import argparse, dataclasses, json, pathlib, numpy, scipy.special")
SETUP_REF_S = 0.47

# Bound here so that the span tracer, which patches numpy.linalg.solve,
# neither slows the kernel nor records its calls.
_solve = np.linalg.solve
_rng = np.random.default_rng(0)
_M, _N = 6, 64
_TABLES = _rng.random((4, _M, _N)) * 0.1
_S = (np.arange(_N) + 0.5) / _N
_W = np.full(_N, 1.0 / _N)


def _coef(a, b, g):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    aa, bb = a * a, b * b
    i1 = aa + bb + 1.0 / (aa * bb)
    return (1.0 - 1.0 / (aa * aa * bb)) * (1.0 + 2.0 * g * (i1 - 3.0))


_ROWS = _rng.random((40, 7))


def _text() -> int:
    """Format a 40 x 7 table as CSV and a short record as JSON."""
    csv = "".join(",".join(f"{v:.17e}" for v in row) + "\n" for row in _ROWS)
    js = json.dumps({"x": [float(v) for v in _ROWS[:, 0]],
                     "h": [float(v) for v in _ROWS[:12, 1]]}, indent=2, sort_keys=True)
    return len(csv) + len(js)


def kernel() -> float:
    """Twelve damped Newton-like steps of a synthetic 12-unknown system,
    then the text part."""
    u, du, v, dv = _TABLES
    duv = np.concatenate([du, dv])
    x = np.full(2 * _M, 0.01)
    gn = 0.0
    for _ in range(12):
        z = x[:_M] @ u
        dz = x[:_M] @ du
        r = _S + x[_M:] @ v
        dr = 1.0 + x[_M:] @ dv
        l1 = np.hypot(dz, dr)
        l2 = r / _S
        q = 1.0 - 0.1 * np.asarray(z, dtype=float)
        a = _coef(l1, l2, -0.015)
        b = _coef(l2, l1, -0.015)
        ws = _W * _S
        g = np.concatenate([du @ (ws * a * dz) - u @ (ws * q * l2 * dr),
                            dv @ (ws * a * dr) + v @ (_W * b * l2)])
        gn = float(np.max(np.abs(g))) if np.all(np.isfinite(g)) else 0.0
        h = (duv * (ws * a)) @ duv.T + np.eye(2 * _M)
        x = x - 0.1 * _solve(h, g)
    _text()
    return gn


class Calibrator:
    """Probe record and the slowdown factor at any moment of the run."""

    interval = 0.04
    window = 0.1

    def __init__(self):
        self.at: list[float] = []
        self.slowdown: list[float] = []

        self.spent = 0.0        # seconds spent in probes so far
        self._handler = None

    def probe(self) -> None:
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        self.at.append(t0)
        self.slowdown.append((t1 - t0) / REF_S)
        self.spent += t1 - t0

    def __enter__(self):
        """Probe every `interval` from a timer signal until exit.

        The handler runs in the main thread between bytecodes, so it
        interrupts an item where it stands; callers subtract the growth of
        `spent` from the item's time.
        """
        self._handler = signal.signal(signal.SIGALRM, lambda *_: self.probe())
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._handler)
        return False

    def factor(self, t0: float, t1: float | None = None) -> float:
        """Median slowdown over probes within `window` of [t0, t1]."""
        t1 = t0 if t1 is None else t1
        lo = bisect.bisect_left(self.at, t0 - self.window)
        hi = bisect.bisect_right(self.at, t1 + self.window)
        if lo < hi:
            return statistics.median(self.slowdown[lo:hi])
        nearest = min(max(lo, 0), len(self.at) - 1)
        return self.slowdown[nearest]
