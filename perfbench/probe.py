"""An in-process speed probe: the benchmark's correction for a shared host.

The benchmark runs on a few cores of a host that other tenants share.  While
a neighbour is busy, the same pure-Python loop runs up to 70% slower, and
such periods last from seconds to minutes, so the wall time of a whole run
of the same code moves by 20-30% from one run to the next.  The probe
measures that slowdown while the command runs.  Every PERIOD_S of wall time
a SIGALRM handler times a fixed loop of mpmath's pure-Python mpf arithmetic
(the kind of work the L-series loop does), at a fixed precision so that the
program's own mpmath settings cannot change its cost.  The loop takes
about REF_S on a quiet 2-vCPU Xeon: that is the reference speed.

Samples are uniform in wall time, so the mean of REF_S / sample is the
share of the reference speed the process got over the run, and

    wall time x factor

is the run's time at the reference speed.  The handler adds about 1% to
every run, the same on every commit.
"""

from __future__ import annotations

import signal
import time

from mpmath.libmp import from_rational, mpf_add, mpf_mul, round_nearest

PERIOD_S = 0.01
REF_S = 1e-4
LOOP = 50
PREC = 212

_X = from_rational(1, 3, PREC, round_nearest)
_Y = from_rational(2, 7, PREC, round_nearest)


def _loop():
    a = _X
    for _ in range(LOOP):
        a = mpf_add(mpf_mul(a, _Y, PREC, round_nearest), _X, PREC,
                    round_nearest)
    return a


class SpeedProbe:
    """Times _loop every PERIOD_S of wall time between start and stop."""

    def __init__(self):
        self.samples: list[float] = []

    def _sample(self, signum, frame):
        start = time.perf_counter()
        _loop()
        self.samples.append(time.perf_counter() - start)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> dict:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        return summary(self.samples)


def summary(samples: list[float]) -> dict:
    """The number of samples and the factor that rescales the run's wall
    time to the reference speed (NaN without samples)."""
    if not samples:
        return {"samples": 0, "factor": float("nan")}
    factor = REF_S * sum(1 / s for s in samples) / len(samples)
    return {"samples": len(samples), "factor": factor}
