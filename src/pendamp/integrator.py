"""Adaptive Dormand-Prince 5(4) integration with dense event localization.

Single trajectories and extremals are traced by :func:`integrate`; the
phi_T sweeps of the extremal family use the lane-batched numpy kernel
``extremal.trace_lanes``, which imports this tableau and dense output and
is tested against ``extremal.trace_extremal`` running on :func:`integrate`.
Design constraints:

* explicit embedded pair with dense output (quartic interpolant), so event
  zero crossings can be bracketed between accepted steps and refined on the
  event-function value;
* forward and backward integration (the sign of ``t_limit - t0`` selects the
  direction);
* discontinuous right-hand sides are out of contract: callers split
  trajectories into smooth arcs at terminal events (switching surfaces).

States are plain tuples of floats; the state dimension here is 2 or 4, and
for one trajectory pure-Python arithmetic on small tuples beats array
overhead.  Many independent trajectories amortise that overhead, which is
why the sweeps batch their runs instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

from scipy.optimize import brentq

RISING = "rising"
FALLING = "falling"
ANY = "any"

STOP_TERMINAL = "terminal event"
STOP_TIME_LIMIT = "time limit"
STOP_STEP_FAILURE = "step failure"


@dataclass(frozen=True)
class EventSpec:
    """Scalar event function g(t, state) whose tracked zeros split the flow.

    ``direction`` filters crossings: 'rising' (g goes - to +), 'falling'
    (+ to -) or 'any'.  Tangential touches without a sign change are ignored.
    """

    fn: Callable[[float, Sequence[float]], float]
    direction: str = ANY
    terminal: bool = False
    label: str = ""

    def __post_init__(self):
        if self.direction not in (RISING, FALLING, ANY):
            raise ValueError(f"unknown event direction {self.direction!r}")


@dataclass(frozen=True)
class EventRecord:
    t: float
    state: tuple[float, ...]
    label: str


@dataclass(frozen=True)
class StepControl:
    """Tolerances and step limits for the adaptive integrator."""

    rtol: float = 1e-10
    atol: float = 1e-12
    event_tol: float = 1e-11
    max_step: float = 0.5
    min_step: float = 1e-12
    interp_tol: float | None = 1e-4
    max_steps: int = 2_000_000

    def __post_init__(self):
        if self.rtol <= 0 or self.atol <= 0 or self.event_tol <= 0:
            raise ValueError("tolerances must be positive")
        if not (0 < self.min_step < self.max_step):
            raise ValueError("need 0 < min_step < max_step")


@dataclass
class TrajectorySegment:
    """One smooth integrated arc: samples, localized events, stop reason."""

    times: list[float]
    states: list[tuple[float, ...]]
    events: list[EventRecord]
    stop_reason: str
    detail: str = ""

    @property
    def t_end(self) -> float:
        return self.times[-1]

    @property
    def end_state(self) -> tuple[float, ...]:
        return self.states[-1]

    @property
    def duration(self) -> float:
        return abs(self.times[-1] - self.times[0])


# Dormand-Prince 5(4) tableau (FSAL: stage 7 is the next step's stage 1).
_C2, _C3, _C4, _C5 = 0.2, 0.3, 0.8, 8.0 / 9.0
_A21 = 0.2
_A31, _A32 = 3.0 / 40.0, 9.0 / 40.0
_A41, _A42, _A43 = 44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0
_A51, _A52, _A53, _A54 = 19372.0 / 6561.0, -25360.0 / 2187.0, 64448.0 / 6561.0, -212.0 / 729.0
_A61, _A62, _A63, _A64, _A65 = (
    9017.0 / 3168.0,
    -355.0 / 33.0,
    46732.0 / 5247.0,
    49.0 / 176.0,
    -5103.0 / 18656.0,
)
_B1, _B3, _B4, _B5, _B6 = 35.0 / 384.0, 500.0 / 1113.0, 125.0 / 192.0, -2187.0 / 6784.0, 11.0 / 84.0
_E1, _E3, _E4, _E5, _E6, _E7 = (
    71.0 / 57600.0,
    -71.0 / 16695.0,
    71.0 / 1920.0,
    -17253.0 / 339200.0,
    22.0 / 525.0,
    -1.0 / 40.0,
)
# Quartic dense-output polynomial coefficients (per stage, powers theta..theta^4).
_P = (
    (1.0, -8048581381.0 / 2820520608.0, 8663915743.0 / 2820520608.0, -12715105075.0 / 11282082432.0),
    (0.0, 0.0, 0.0, 0.0),
    (0.0, 131558114200.0 / 32700410799.0, -68118460800.0 / 10900136933.0, 87487479700.0 / 32700410799.0),
    (0.0, -1754552775.0 / 470086768.0, 14199869525.0 / 1410260304.0, -10690763975.0 / 1880347072.0),
    (0.0, 127303824393.0 / 49829197408.0, -318862633887.0 / 49829197408.0, 701980252875.0 / 199316789632.0),
    (0.0, -282668133.0 / 205662961.0, 2019193451.0 / 616988883.0, -1453857185.0 / 822651844.0),
    (0.0, 40617522.0 / 29380423.0, -110615467.0 / 29380423.0, 69997945.0 / 29380423.0),
)


def _make_dense(t_old: float, h: float, y_old, stages):
    """Quartic interpolant over one accepted step [t_old, t_old + h]."""
    n = len(y_old)

    def dense(t: float) -> tuple[float, ...]:
        th = (t - t_old) / h
        out = list(y_old)
        for s in range(7):
            p = _P[s]
            w = h * th * (p[0] + th * (p[1] + th * (p[2] + th * p[3])))
            if w != 0.0:
                k = stages[s]
                for i in range(n):
                    out[i] += w * k[i]
        return tuple(out)

    return dense


def _initial_step(rhs, t0, y0, f0, direction, ctl: StepControl) -> float:
    """Hairer-style starting step size heuristic."""
    n = len(y0)
    sc = [ctl.atol + ctl.rtol * abs(y0[i]) for i in range(n)]
    d0 = math.sqrt(sum((y0[i] / sc[i]) ** 2 for i in range(n)) / n)
    d1 = math.sqrt(sum((f0[i] / sc[i]) ** 2 for i in range(n)) / n)
    h0 = 1e-6 if (d0 < 1e-5 or d1 < 1e-5) else 0.01 * d0 / d1
    y1 = [y0[i] + direction * h0 * f0[i] for i in range(n)]
    f1 = rhs(t0 + direction * h0, y1)
    d2 = math.sqrt(sum(((f1[i] - f0[i]) / sc[i]) ** 2 for i in range(n)) / n) / h0
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    return direction * min(100.0 * h0, h1, ctl.max_step)


def _refine_samples(dense, t_a, y_a, t_b, y_b, tol, out_t, out_y, depth=0):
    """Insert dense-output midpoints until linear interpolation meets tol."""
    t_m = 0.5 * (t_a + t_b)
    y_m = dense(t_m)
    err = max(abs(y_m[i] - 0.5 * (y_a[i] + y_b[i])) for i in range(len(y_m)))
    if err > tol and depth < 8:
        _refine_samples(dense, t_a, y_a, t_m, y_m, tol, out_t, out_y, depth + 1)
        out_t.append(t_m)
        out_y.append(y_m)
        _refine_samples(dense, t_m, y_m, t_b, y_b, tol, out_t, out_y, depth + 1)


def integrate(
    rhs: Callable[[float, Sequence[float]], Sequence[float]],
    s0: Sequence[float],
    t0: float,
    t_limit: float,
    events: Sequence[EventSpec] = (),
    ctl: StepControl | None = None,
) -> TrajectorySegment:
    """Integrate ``rhs`` from ``t0`` to ``t_limit`` with event localization.

    Returns the trajectory up to the first terminal event, the time limit, or
    a step failure.  Every sign change of every event function across the
    accepted step sequence is bracketed and refined on the dense output until
    the event-function value is below ``ctl.event_tol``.  Events within one
    ``min_step`` of the start are suppressed (post-event dead band), so
    re-integrating from a reported event state does not immediately re-trigger.
    """
    if ctl is None:
        ctl = StepControl()
    if t_limit == t0:
        raise ValueError("t_limit must differ from t0")
    y = tuple(float(v) for v in s0)
    if not all(math.isfinite(v) for v in y):
        raise ValueError(f"non-finite initial state {y}")
    n = len(y)
    direction = 1.0 if t_limit > t0 else -1.0
    t = float(t0)
    atol, rtol = ctl.atol, ctl.rtol
    dead_band = ctl.min_step

    k1 = tuple(rhs(t, y))
    h = _initial_step(rhs, t, y, k1, direction, ctl)
    if abs(h) > abs(t_limit - t0):
        h = t_limit - t0

    times: list[float] = [t]
    states: list[tuple[float, ...]] = [y]
    recs: list[EventRecord] = []
    g_prev = [ev.fn(t, y) for ev in events]

    stop_reason = STOP_TIME_LIMIT
    detail = ""
    n_steps = 0
    while True:
        if n_steps >= ctl.max_steps:
            stop_reason = STOP_STEP_FAILURE
            detail = f"step budget {ctl.max_steps} exhausted at t={t}"
            break
        n_steps += 1
        clipped = False
        if direction * (t + h - t_limit) > 0.0:
            h = t_limit - t
            clipped = True

        k2 = rhs(t + _C2 * h, [y[i] + h * (_A21 * k1[i]) for i in range(n)])
        k3 = rhs(t + _C3 * h, [y[i] + h * (_A31 * k1[i] + _A32 * k2[i]) for i in range(n)])
        k4 = rhs(t + _C4 * h, [y[i] + h * (_A41 * k1[i] + _A42 * k2[i] + _A43 * k3[i]) for i in range(n)])
        k5 = rhs(
            t + _C5 * h,
            [y[i] + h * (_A51 * k1[i] + _A52 * k2[i] + _A53 * k3[i] + _A54 * k4[i]) for i in range(n)],
        )
        k6 = rhs(
            t + h,
            [
                y[i] + h * (_A61 * k1[i] + _A62 * k2[i] + _A63 * k3[i] + _A64 * k4[i] + _A65 * k5[i])
                for i in range(n)
            ],
        )
        y_new = tuple(
            y[i] + h * (_B1 * k1[i] + _B3 * k3[i] + _B4 * k4[i] + _B5 * k5[i] + _B6 * k6[i])
            for i in range(n)
        )
        t_new = t + h
        k7 = rhs(t_new, y_new)

        err_norm = 0.0
        for i in range(n):
            e = h * (_E1 * k1[i] + _E3 * k3[i] + _E4 * k4[i] + _E5 * k5[i] + _E6 * k6[i] + _E7 * k7[i])
            sc = atol + rtol * max(abs(y[i]), abs(y_new[i]))
            err_norm += (e / sc) ** 2
        err_norm = math.sqrt(err_norm / n)

        if err_norm > 1.0 or not math.isfinite(err_norm):
            if not math.isfinite(err_norm):
                fac = 0.2
            else:
                fac = max(0.2, 0.9 * err_norm ** -0.2)
            h_mag = abs(h) * fac
            if h_mag < ctl.min_step:
                stop_reason = STOP_STEP_FAILURE
                detail = f"required step {h_mag:.3e} below min_step at t={t}"
                break
            h = direction * h_mag
            continue

        # Accepted step.  Localize event crossings before committing samples.
        stages = (k1, k2, k3, k4, k5, k6, k7)
        dense = None
        hits: list[tuple[float, int]] = []
        for j, ev in enumerate(events):
            g_new = ev.fn(t_new, y_new)
            gp = g_prev[j]
            crossed = False
            if gp != 0.0:
                if ev.direction == RISING:
                    crossed = gp < 0.0 <= g_new
                elif ev.direction == FALLING:
                    crossed = gp > 0.0 >= g_new
                else:
                    crossed = (gp < 0.0 <= g_new) or (gp > 0.0 >= g_new)
            g_prev[j] = g_new
            if not crossed:
                continue
            if dense is None:
                dense = _make_dense(t, h, y, stages)
            if g_new == 0.0:
                t_e = t_new
            else:
                ta, tb = (t, t_new) if t < t_new else (t_new, t)
                t_e = brentq(lambda s: ev.fn(s, dense(s)), ta, tb, xtol=1e-14, rtol=8.9e-16)
            if abs(t_e - t0) < dead_band:
                continue
            hits.append((t_e, j))

        terminal_hit = None
        if hits:
            hits.sort(key=lambda p: direction * p[0])
            for t_e, j in hits:
                ev = events[j]
                state_e = dense(t_e)
                resid = abs(ev.fn(t_e, state_e))
                if resid > ctl.event_tol:
                    detail = f"event {ev.label!r} localized to |g|={resid:.2e} > event_tol"
                recs.append(EventRecord(t_e, state_e, ev.label))
                if ev.terminal:
                    terminal_hit = (t_e, state_e)
                    break

        end_t, end_y = (t_new, y_new) if terminal_hit is None else terminal_hit
        if ctl.interp_tol is not None:
            if dense is None:
                dense = _make_dense(t, h, y, stages)
            _refine_samples(dense, t, y, end_t, end_y, ctl.interp_tol, times, states)
        times.append(end_t)
        states.append(end_y)

        if terminal_hit is not None:
            stop_reason = STOP_TERMINAL
            break
        t, y, k1 = t_new, y_new, k7
        if clipped or direction * (t - t_limit) >= 0.0:
            stop_reason = STOP_TIME_LIMIT
            break
        fac = min(10.0, max(0.2, 0.9 * err_norm ** -0.2 if err_norm > 0.0 else 10.0))
        h_mag = min(ctl.max_step, abs(h) * fac)
        h = direction * max(h_mag, ctl.min_step)

    return TrajectorySegment(times, states, recs, stop_reason, detail)

