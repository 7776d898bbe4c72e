"""Host-speed calibration: reference work timed from a timer signal.

The measurement host gives this process a share of a shared machine, and
its speed drifts: the same code runs up to about 2x slower in busy spells
that last from a fraction of a second to minutes (measured on 2 vCPUs with
nothing else running in the VM; CPU time slows exactly as wall time does).
Two sets of runs a few minutes apart then differ by 25-50% with the same
code, and a median over one run moves with the share of busy time in it.

So while the benchmark runs, a timer signal interrupts it every
``PERIOD_S`` seconds and runs a short slice of fixed reference work: one
untimed unit, which brings the reference's code and data back into cache
after the work it interrupted, then ``SLICE_UNITS`` timed ones. An
operation's normalized time is its wall time minus the ticks that fell
inside it, divided by the host's slowdown around it: the mean time of a
timed reference unit in the slices near the operation over
``NOMINAL_UNIT_S``.

The reference is code of the same kind as the package (Python-level loops
over tiny numpy arrays, closures kept on a tape and run in reverse, and a
JSON/string pass like the data layer's). Interleaved for 100 s on a busy
host with one-sample forward and backward passes of both train workloads,
the passes' median time over 2 s windows spread by 8.6-9.9% (quartiles
over median) in wall time and by 1.9-2.8% once divided by the reference's.
It lives here, outside ``src/``, so no change to the package changes it,
and a change that makes the package faster or slower moves normalized
times by the same share as wall times.
"""

from __future__ import annotations

import bisect
import json
import signal
import time
from collections import Counter

import numpy as np

# Seconds of one reference unit on the quiet host the bounds were set on
# (2 vCPUs, Python 3.11, numpy 2.4, one BLAS thread), i.e. the lower end of
# its unit times. Normalized times read as seconds at that speed.
NOMINAL_UNIT_S = 0.000155
PERIOD_S = 0.02    # one slice every 20 ms of wall time
SLICE_UNITS = 3    # timed units a tick, after one untimed: 3-5% of the run
NEAR_S = 0.1       # slices this close to an operation describe it...
MIN_NEAR = 4       # ...widened until at least this many are included
WARMUP_UNITS = 50

_rng = np.random.default_rng(20191223)
_W = (0.2 * _rng.standard_normal((64, 32))).astype(np.float32)
_B = (0.1 * _rng.standard_normal(64)).astype(np.float32)
_X = (_rng.standard_normal((8, 16))).astype(np.float32)
_DOC = json.dumps([{"date": "2001-02-%02d" % (i + 1),
                    "text": " ".join("w%d" % ((7 * i + 3 * j) % 41)
                                     for j in range(8))}
                   for i in range(12)])


def _sigmoid(z):
    return 1.0 / (1.0 + np.exp(-z))


def reference_unit() -> float:
    """One unit of reference work: an 8-step LSTM over 16 wide vectors that
    records a closure per step, a reverse pass through those closures (a
    tape, as the package's autodiff keeps), and a small JSON document
    tokenized and counted."""
    h = np.zeros(16, dtype=np.float32)
    c = np.zeros(16, dtype=np.float32)
    tape = []
    for x in _X:
        z = _W @ np.concatenate((h, x)) + _B
        i, f, o = _sigmoid(z[:16]), _sigmoid(z[16:32]), _sigmoid(z[32:48])
        g = np.tanh(z[48:])
        c = f * c + i * g
        h = o * np.tanh(c)
        tape.append(lambda grad, o=o, c=c: grad * o * (1.0 - np.tanh(c) ** 2))
    grad = np.ones(16, dtype=np.float32)
    for back in reversed(tape):
        grad = back(grad)
    rows = json.loads(_DOC)
    counts = Counter(w for row in rows for w in row["text"].split())
    return float(h.sum() + grad.sum()) + len(counts)


class Sampler:
    """Runs a slice of reference work on every tick of a wall-clock timer.

    ``start`` arms the timer and ``stop`` disarms it and restores the old
    handler; use it as a context manager so that every path out stops it.
    Python runs the handler in the main thread between bytecodes, so a slice
    never overlaps the work it interrupts, and interrupted system calls are
    retried by Python itself.
    """

    def __init__(self):
        self.starts: list[float] = []   # of each tick's handler
        self.ends: list[float] = []
        self.took: list[float] = []     # its timed units
        self._old = None
        self._ticking = False

    def _tick(self, signum, frame):
        if self._ticking:  # a tick that lands inside a slice is dropped
            return
        self._ticking = True
        start = time.perf_counter()
        reference_unit()   # untimed: brings its code and data back into cache
        t0 = time.perf_counter()
        for _ in range(SLICE_UNITS):
            reference_unit()
        end = time.perf_counter()
        self.starts.append(start)
        self.took.append(end - t0)
        self.ends.append(end)
        self._ticking = False

    def __enter__(self):
        for _ in range(WARMUP_UNITS):
            reference_unit()
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._old or signal.SIG_DFL)
        return False

    def busy(self, t0: float, t1: float) -> float:
        """Seconds spent in tick handlers between t0 and t1."""
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_right(self.ends, t1)
        return sum(self.ends[i] - self.starts[i] for i in range(lo, hi))

    def slowdown(self, t0: float, t1: float) -> float:
        """Mean reference unit time near [t0, t1], over the nominal one.

        Slices within ``NEAR_S`` of the interval count; the margin doubles
        until at least ``MIN_NEAR`` slices are in (or all of them are).
        """
        n = len(self.starts)
        if n == 0:
            raise RuntimeError("no reference slices were run")
        near = NEAR_S
        while True:
            lo = bisect.bisect_left(self.starts, t0 - near)
            hi = bisect.bisect_right(self.ends, t1 + near)
            if hi - lo >= min(MIN_NEAR, n):
                break
            near *= 2.0
        return (sum(self.took[lo:hi]) / ((hi - lo) * SLICE_UNITS)
                / NOMINAL_UNIT_S)

    def normalized(self, t0: float, t1: float) -> float:
        """Wall time of [t0, t1] without its slices, at nominal speed."""
        return (t1 - t0 - self.busy(t0, t1)) / self.slowdown(t0, t1)
