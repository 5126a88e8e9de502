"""Rescaling measured times to a fixed interpreter speed.

The speed of a shared machine drifts by up to 2x over seconds to minutes
(other tenants), and pendamp's pure-Python hot loops slow down with it: the
same ``max_switchings`` call took 1.6 s or 3.1 s depending on when it ran.
So every time the benchmark reports is rescaled to a fixed speed, the one at
which the reference kernel below takes ``REFERENCE_STEP_S`` per step.

While an interval is measured, a SIGALRM timer runs the kernel for
``SAMPLE_STEPS`` steps every ``PERIOD`` seconds.  The interval's time minus
the kernel's own time, times ``REFERENCE_STEP_S`` over the kernel's mean
time per step during the interval, is the rescaled time.  The kernel does
not use pendamp, so no change to pendamp can change it.
"""

from __future__ import annotations

import math
import signal
import time

REFERENCE_STEP_S = 5e-6   # about this kernel's step time on the machine it was built on
SAMPLE_STEPS = 400        # ~2 ms per sample
PERIOD = 0.1              # seconds between samples, so the samples cost ~2%


def reference_kernel(steps: int) -> float:
    """Seconds for a fixed pure-Python RK4 run of a 4-D pendulum-like system."""

    def f(s):
        return (s[1], -math.sin(s[0]) + 0.01 * s[3], math.cos(s[0]) * s[3], -s[2])

    t0 = time.perf_counter()
    y, h = (1.0, 0.0, 0.3, 1.0), 1e-3
    for _ in range(steps):
        k1 = f(y)
        k2 = f(tuple(y[i] + 0.5 * h * k1[i] for i in range(4)))
        k3 = f(tuple(y[i] + 0.5 * h * k2[i] for i in range(4)))
        k4 = f(tuple(y[i] + h * k3[i] for i in range(4)))
        y = tuple(y[i] + h / 6.0 * (k1[i] + 2.0 * k2[i] + 2.0 * k3[i] + k4[i]) for i in range(4))
    return time.perf_counter() - t0


def _scale(samples: list[float]) -> float:
    return REFERENCE_STEP_S * SAMPLE_STEPS * len(samples) / sum(samples)


def timed(fn, *args):
    """Run ``fn(*args)``: (rescaled seconds, raw seconds, speed factor, result).

    The speed factor is the reference speed over the measured speed.
    """
    samples: list[float] = []

    def tick(signum, frame):
        samples.append(reference_kernel(SAMPLE_STEPS))

    old = signal.signal(signal.SIGALRM, tick)
    signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
    t0 = time.perf_counter()
    try:
        out = fn(*args)
    finally:
        raw = time.perf_counter() - t0
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, old)
    work = raw - sum(samples)
    if len(samples) < 3:
        samples.extend(reference_kernel(SAMPLE_STEPS) for _ in range(3 - len(samples)))
    factor = _scale(samples)
    return work * factor, raw, factor, out


def factor_around(fn, *args, **kwargs):
    """(speed factor, result) of ``fn(*args, **kwargs)`` with the kernel run just
    before and just after it, for an interval spent waiting on a child
    process, where samples taken during it would compete with the child."""
    samples = [reference_kernel(SAMPLE_STEPS) for _ in range(10)]
    out = fn(*args, **kwargs)
    samples += [reference_kernel(SAMPLE_STEPS) for _ in range(10)]
    return _scale(samples), out
