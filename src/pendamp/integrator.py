"""ODE arcs with event localization: Taylor arcs of the pendulum, and DP5.

Two integrators, each serving its own paths:

* :func:`pendulum_arc` runs every arc of the damping simulation
  (``quasiopt.simulate_damping``: coasts, saddle pushes, dry-friction arcs)
  on the one field it needs, x' = y, y' = -sin x + pull, by Taylor series of
  order ``TAYLOR_ORDER`` with Jorba and Zou's step rule at ``TAYLOR_TOL``.
  The arc's first integral y^2/2 - cos x - pull x checks each step: a step
  that changes it by more than ``DRIFT_TOL`` (relative) is halved.
  The lane kernel ``extremal.trace_lanes`` takes the same steps on the
  canonical system of the backward extremals, many lanes at once.
* :func:`integrate`, adaptive Dormand-Prince 5(4), takes any field.  It is
  the reference of both Taylor integrators: the tests run the damping
  simulation on it at rtol 1e-13, and trace extremals on it at rtol 1e-12
  (the lane kernel's differential oracle ``oracle_trace_extremal`` in
  tests/oracles.py).

The two integrators of this module keep one contract, and bracket their
events by one routine, :func:`_step_events`: every sign change of an event
function between two step ends is located on the step's own interpolant,
and each located event carries its residual |g| back to the caller.
:func:`integrate` locates it by :func:`brentq` on its dense output.  Every
event of :func:`pendulum_arc` is a level of x or y (:class:`Level`, from
which the event function is derived), located by the safeguarded Newton
iteration :func:`_poly_root` on that component's step polynomial, the
routine of the lane kernel's polynomial events too.
Design constraints of :func:`integrate`:

* explicit embedded pair with dense output (quartic interpolant), so event
  zero crossings can be bracketed between accepted steps and refined on it;
* the returned samples are the accepted step ends and, where a terminal
  event stops the arc, its located state: the dense output serves event
  localization only, never extra samples;
* forward and backward integration (the sign of ``t_limit - t0`` selects the
  direction);
* discontinuous right-hand sides are out of contract: callers split
  trajectories into smooth arcs at terminal events (switching surfaces).

States are plain tuples of floats; the state dimension here is 2 or 4.  For
one trajectory, scalar Python arithmetic beats array overhead, and so does
the per-component overhead of loops over ``range(n)``: each step attempt is
straight-line code generated once per state dimension from the tableau
(:func:`_attempt_source`), one local per component and stage, with the
operations of the textbook loop in the same order, so results are bit for
bit those of the loop (``tests/test_integrator.py`` keeps it as the
oracle).  The Taylor coefficients are straight-line code in the same way
(:func:`_taylor_source`), compiled at the first arc rather than at import.
Many independent trajectories amortise the interpreter overhead, which is
why the sweeps batch their runs instead.

The DP5 event times, and the package's other scalar root problems, come
from :func:`brentq`, a line-by-line port of scipy's C ``brentq``
(``scipy/optimize/Zeros/brentq.c``) with scipy's argument checks and
errors.  It returns scipy's float bit for bit (``tests/test_integrator.py``
pins it), so the package traces and simulates without importing scipy,
whose import costs about half a second.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from typing import Callable, Sequence

RISING = "rising"
FALLING = "falling"
ANY = "any"

STOP_TERMINAL = "terminal event"
STOP_TIME_LIMIT = "time limit"
STOP_STEP_FAILURE = "step failure"

# The residual |g| that event location reaches on the package's event
# functions.  brentq on a DP5 step's interpolant, and _poly_root on a Taylor
# step's polynomial, stop within 1e-14 + 8.9e-16 |t| of the zero (t in the
# step's variable for _poly_root), so |g| is about |g'| times that.  Each
# EventRecord carries its own residual; the tests and CI hold it to this bound.
EVENT_TOL = 1e-11
# The tolerances of event location: brentq's on a DP5 step (and on the lane
# kernel's budget gap), and the stop of _poly_root.
_ROOT_TOL = dict(xtol=1e-14, rtol=8.9e-16)


_BRENTQ_RTOL_MIN = 4.0 * sys.float_info.epsilon  # scipy.optimize.brentq's rtol floor


def _nan_value(x: float) -> ValueError:
    return ValueError(f"The function value at x={x} is NaN; solver cannot continue.")


def brentq(f: Callable[[float], float], a: float, b: float, xtol: float = 2e-12,
           rtol: float = _BRENTQ_RTOL_MIN, maxiter: int = 100) -> float:
    """A zero of ``f`` in the sign-changing bracket [a, b] (either order).

    The iteration of scipy's C ``brentq``, step for step: converged when
    half the block ``|xblk - xcur|/2`` drops below
    ``delta = (xtol + rtol * |xcur|)/2``; otherwise inverse quadratic or
    secant extrapolation, kept only when it is short enough, else bisection;
    never a step shorter than ``delta``.  The sign tests are scipy's
    ``signbit`` tests: they run only on nonzero, non-NaN values, where
    ``v < 0`` is the sign bit.  Where C divides by zero, the trial step is
    not finite and C bisects; Python raises ZeroDivisionError, which is
    caught and bisects too.

    Errors as scipy: ValueError for ``xtol <= 0``, ``rtol < 4 eps``,
    ``maxiter < 0``, a NaN function value and a bracket without a sign
    change; RuntimeError when ``maxiter`` iterations do not converge.
    ``f`` returns a float.
    """
    if xtol <= 0:
        raise ValueError(f"xtol too small ({xtol:g} <= 0)")
    if rtol < _BRENTQ_RTOL_MIN:
        raise ValueError(f"rtol too small ({rtol:g} < {_BRENTQ_RTOL_MIN:g})")
    if maxiter < 0:
        raise ValueError("maxiter must be >= 0")
    xpre, xcur = float(a), float(b)
    fpre = f(xpre)
    if fpre != fpre:
        raise _nan_value(xpre)
    fcur = f(xcur)
    if fcur != fcur:
        raise _nan_value(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if (fpre < 0) == (fcur < 0):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:  # interpolate
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:  # extrapolate
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:
                stry = math.inf
            bound = abs(spre) if abs(spre) < 3 * abs(sbis) - delta else 3 * abs(sbis) - delta
            if 2 * abs(stry) < bound:  # good short step
                spre, scur = scur, stry
            else:  # bisect
                spre = scur = sbis
        else:  # bisect
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = f(xcur)
        if fcur != fcur:
            raise _nan_value(xcur)
    raise RuntimeError(f"Failed to converge after {maxiter} iterations.")


@dataclass(frozen=True)
class Level:
    """The levels of one state component: s[component] = v + k period.

    v runs over ``values``, and k over the integers if ``period`` is given,
    else k = 0.  :meth:`event_function` is the event function whose zeros
    are these levels, with a sign change at each.
    """

    component: int
    values: tuple[float, ...]
    period: float | None = None

    def __post_init__(self):
        if not self.values:
            raise ValueError("a level event needs at least one level")
        if self.period is not None and not (0.0 < self.period < math.inf):
            raise ValueError(f"the period of a level event must be positive and finite, "
                             f"got {self.period}")

    def event_function(self) -> Callable[[float, Sequence[float]], float]:
        """g(t, s): the product over the values of s[c] - v, or, with a
        period P, of sin(pi (s[c] - v) / P)."""
        c = self.component
        if len(self.values) > 1:
            factors = [Level(c, (v,), self.period).event_function() for v in self.values]
            return lambda t, s: math.prod(f(t, s) for f in factors)
        (v,) = self.values
        if self.period is None:
            return lambda t, s: s[c] - v
        w, sin = math.pi / self.period, math.sin
        return lambda t, s: sin(w * (s[c] - v))

    def crossed(self, a: float, b: float) -> float:
        """The level that the component meets first on its way from a to b.

        A level a few ulps behind a counts as ahead: there the event
        function's rounded sign can still put a before it.  A step moves the
        component by far less than a period, so the next level ahead is the
        one crossed.
        """
        if self.period is None and len(self.values) == 1:
            return self.values[0]
        d = 1.0 if b >= a else -1.0
        slack = 16.0 * math.ulp(abs(a) + (self.period or 1.0))
        levels = []
        for v in self.values:
            if self.period is not None:  # the level of the family nearest a, or the next one ahead
                v += round((a - v) / self.period) * self.period
                if d * (v - a) < -slack:
                    v += d * self.period
            levels.append(v)
        return min(levels, key=lambda v: (d * (v - a) < -slack, abs(v - a)))


@dataclass(frozen=True)
class EventSpec:
    """Scalar event function g(t, state) whose tracked zeros split the flow.

    ``direction`` filters crossings: 'rising' (g goes - to +), 'falling'
    (+ to -) or 'any'.  Tangential touches without a sign change are ignored.
    An event built by :meth:`at_level` also carries its :class:`Level`, which
    :func:`pendulum_arc` needs to locate it on the step polynomial.
    """

    fn: Callable[[float, Sequence[float]], float]
    direction: str = ANY
    terminal: bool = False
    label: str = ""
    level: Level | None = None

    def __post_init__(self):
        if self.direction not in (RISING, FALLING, ANY):
            raise ValueError(f"unknown event direction {self.direction!r}")

    @classmethod
    def at_level(cls, level: Level, direction: str = ANY, terminal: bool = False,
                 label: str = "") -> EventSpec:
        """The crossings of ``level``, with the event function derived from it."""
        return cls(level.event_function(), direction, terminal, label, level)


@dataclass(frozen=True)
class EventRecord:
    """A located event: its time, state and label, and the residual |g| there."""

    t: float
    state: tuple[float, ...]
    label: str
    residual: float


@dataclass(frozen=True)
class StepControl:
    """Tolerances and step limits for the adaptive integrator."""

    rtol: float = 1e-10
    atol: float = 1e-12
    max_step: float = 0.5
    min_step: float = 1e-12
    max_steps: int = 2_000_000
    # Not a field: integrate keeps no interpolated samples.  perfbench/tracing.py
    # still reads it; ROADMAP item 2's benchmark change deletes it.
    interp_tol = None

    def __post_init__(self):
        if self.rtol <= 0 or self.atol <= 0:
            raise ValueError("tolerances must be positive")
        if not (0 < self.min_step < self.max_step):
            raise ValueError("need 0 < min_step < max_step")


@dataclass
class TrajectorySegment:
    """One smooth integrated arc: samples, localized events, stop reason.

    ``detail`` says why a step failure stopped the arc; each event carries its
    own residual (see :attr:`event_residual`).
    """

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

    @property
    def event_residual(self) -> float:
        """The worst |g| at the located events (0 without events)."""
        return max((r.residual for r in self.events), default=0.0)


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


def _dense_locator(t_old: float, h: float, y_old, stages):
    """The ``locate, dense`` of one DP5 step for :func:`_step_events`:
    events are located by :func:`brentq` on the step's quartic interpolant."""
    dense = _make_dense(t_old, h, y_old, stages)

    def locate(ev: EventSpec, t_end: float, y_end) -> float:
        ta, tb = (t_old, t_end) if h > 0.0 else (t_end, t_old)
        return brentq(lambda s: ev.fn(s, dense(s)), ta, tb, **_ROOT_TOL)

    return locate, dense


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


# The tableau by rows, for the attempt code generator: stage times as
# fractions of h (stage 6 sits at t + h), the stage-input rows, and the
# solution and error weights on stages 1..6 and 1..7 (zero weights skipped).
_C_ROW = (_C2, _C3, _C4, _C5, 1.0)
_A_ROWS = (
    (_A21,),
    (_A31, _A32),
    (_A41, _A42, _A43),
    (_A51, _A52, _A53, _A54),
    (_A61, _A62, _A63, _A64, _A65),
)
_B_ROW = (_B1, 0.0, _B3, _B4, _B5, _B6)
_E_ROW = (_E1, 0.0, _E3, _E4, _E5, _E6, _E7)


def _attempt_source(n: int) -> str:
    """Source of one DP5(4) attempt on an ``n``-dimensional state.

    The generated ``attempt(rhs, t, h, y, k1, atol, rtol)`` makes the six rhs
    calls of one step and returns ``(t_new, y_new, stages, err_norm)``.  Every
    component is written out as straight-line scalar code with the tableau as
    float literals, in the order of terms and operations of the textbook loop
    (``y_i + h * (a1 * k1_i + a2 * k2_i + ...)``, scale
    ``atol + rtol * max(|y_i|, |y_new_i|)``, ``(e_i / sc_i) ** 2`` summed over
    i), so its results are bit for bit those of that loop.
    """
    comps = range(n)

    def tup(item) -> str:
        return "(" + "".join(item(i) + ", " for i in comps) + ")"

    def combo(weights, i: int) -> str:
        return " + ".join(f"{w!r} * k{s + 1}_{i}" for s, w in enumerate(weights) if w != 0.0)

    def unpack(name: str) -> str:
        return "    " + "".join(f"{name}_{i}, " for i in comps) + f"= {name}"

    lines = ["def attempt(rhs, t, h, y, k1, atol, rtol):", unpack("y"), unpack("k1")]
    for s, (c, row) in enumerate(zip(_C_ROW, _A_ROWS), start=2):
        t_s = "t + h" if c == 1.0 else f"t + {c!r} * h"
        args = tup(lambda i: f"y_{i} + h * ({combo(row, i)})")
        lines += [f"    k{s} = rhs({t_s}, {args})", unpack(f"k{s}")]
    lines += [f"    yn_{i} = y_{i} + h * ({combo(_B_ROW, i)})" for i in comps]
    lines += ["    t_new = t + h", f"    y_new = {tup(lambda i: f'yn_{i}')}",
              "    k7 = rhs(t_new, y_new)", unpack("k7")]
    lines += [f"    e_{i} = h * ({combo(_E_ROW, i)})" for i in comps]
    norm = " + ".join(f"(e_{i} / (atol + rtol * max(abs(y_{i}), abs(yn_{i})))) ** 2" for i in comps)
    lines += [f"    err = {norm}",
              f"    return t_new, y_new, (k1, k2, k3, k4, k5, k6, k7), sqrt(err / {n})"]
    return "\n".join(lines) + "\n"


@functools.cache
def _attempt(n: int):
    """The generated attempt function for state dimension ``n``."""
    namespace = {"max": max, "abs": abs, "sqrt": math.sqrt}
    exec(compile(_attempt_source(n), f"<dopri5 attempt, n={n}>", "exec"), namespace)
    return namespace["attempt"]


def _advance_events(events: Sequence[EventSpec], g_prev: list[float], t_new: float,
                    y_new: tuple[float, ...]) -> list[float] | None:
    """Move ``g_prev``, each event's value at a step's start, to the step's end.

    Returns the values at the start when some event may cross on the step
    (its values at the two ends are not of one strict sign), for
    :func:`_step_events`, and None when no event can.
    """
    g_start = g_prev[:]
    may_cross = False
    j = 0  # counted by hand: enumerate's tuples cost more than the count
    for ev in events:
        g = g_prev[j] = ev.fn(t_new, y_new)
        if not g_start[j] * g > 0.0:
            may_cross = True
        j += 1
    return g_start if may_cross else None


def _step_events(events: Sequence[EventSpec], g_start: list[float], t0: float, t: float,
                 t_new: float, y_new: tuple[float, ...], dead_band: float,
                 recs: list[EventRecord], locate, dense) -> tuple[float, tuple[float, ...]] | None:
    """Bracket and locate the event crossings of one accepted step [t, t_new].

    ``g_start`` holds each event's value at ``t`` (:func:`_advance_events`).
    ``dense(s)`` is the state at time s on the step, and
    ``locate(event, t_end, y_end)`` the time in [t, t_end] where the event
    function, which changes sign there, is zero.  A zero within ``dead_band``
    of the arc's start ``t0`` is dropped; on a step that starts inside the
    band, a crossing that the state one band past t0 has already made is
    dropped without locating it.  A terminal crossing ends the arc
    inside the step, so the events without a crossing over the whole step are
    bracketed again over the part that is kept: an event can cross and cross
    back before ``t_new``.  The crossings are recorded in time order, each
    with its residual |g|, up to and including the first terminal one, whose
    time and state are returned (None when no terminal event fired).
    """
    forward = t_new > t
    hits: list[tuple[float, int]] = []
    pending = list(enumerate(g_start))  # (event, its value at t)
    t_end, y_end = t_new, y_new
    t_band = t0 + dead_band if forward else t0 - dead_band  # the end of the dead band
    y_band = dense(t_band) if abs(t - t0) < dead_band and (t_band - t) * (t_new - t_band) > 0.0 \
        else None
    while True:
        missed = []
        for j, gp in pending:
            ev = events[j]
            direction = ev.direction
            g_end = ev.fn(t_end, y_end)
            if gp == 0.0 or not ((direction != FALLING and gp < 0.0 <= g_end)
                                 or (direction != RISING and gp > 0.0 >= g_end)):
                missed.append((j, gp))
                continue
            if y_band is not None and (t_band - t) * (t_end - t_band) > 0.0 \
                    and gp * ev.fn(t_band, y_band) < 0.0:
                continue  # it crosses inside the dead band: the event the arc starts on
            t_e = t_end if g_end == 0.0 else locate(ev, t_end, y_end)
            if abs(t_e - t0) >= dead_band:
                hits.append((t_e, j))
        if not hits:
            return None
        hits.sort(key=lambda p: p[0] if forward else -p[0])
        t_term = next((t_e for t_e, j in hits if events[j].terminal), None)
        if t_term is None or t_term == t_end or not missed:
            break
        pending = missed
        t_end, y_end = t_term, dense(t_term)
    for t_e, j in hits:
        ev = events[j]
        # Once the step is cut at a terminal event, y_end is dense(t_end).
        state_e = y_end if t_e == t_end != t_new else dense(t_e)
        recs.append(EventRecord(t_e, state_e, ev.label, abs(ev.fn(t_e, state_e))))
        if ev.terminal:
            return t_e, state_e
    return None


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
    a step failure, sampled at the accepted step ends.  Every sign change of
    every event function across the accepted step sequence is bracketed and
    refined on the dense output by :func:`_step_events`; each event record
    carries its residual |g| (see ``EVENT_TOL``).
    Events within one ``min_step`` of the start are suppressed (post-event
    dead band), so re-integrating from a reported event state does not
    immediately re-trigger.
    """
    if ctl is None:
        ctl = StepControl()
    if t_limit == t0:
        raise ValueError("t_limit must differ from t0")
    y = tuple(float(v) for v in s0)
    if not all(math.isfinite(v) for v in y):
        raise ValueError(f"non-finite initial state {y}")
    attempt = _attempt(len(y))
    direction = 1.0 if t_limit > t0 else -1.0
    t = float(t0)
    atol, rtol = ctl.atol, ctl.rtol
    min_step, max_step, max_steps = ctl.min_step, ctl.max_step, ctl.max_steps
    dead_band = min_step

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
        if n_steps >= max_steps:
            stop_reason = STOP_STEP_FAILURE
            detail = f"step budget {max_steps} exhausted at t={t}"
            break
        n_steps += 1
        clipped = False
        if direction * (t + h - t_limit) > 0.0:
            h = t_limit - t
            clipped = True

        t_new, y_new, stages, err_norm = attempt(rhs, t, h, y, k1, atol, rtol)

        if not err_norm <= 1.0:  # too large, or not finite
            fac = max(0.2, 0.9 * err_norm ** -0.2) if math.isfinite(err_norm) else 0.2
            h_mag = abs(h) * fac
            if h_mag < min_step:
                stop_reason = STOP_STEP_FAILURE
                detail = f"required step {h_mag:.3e} below min_step at t={t}"
                break
            h = direction * h_mag
            continue

        # Accepted step.  Localize event crossings before committing samples.
        terminal_hit = None
        g_start = _advance_events(events, g_prev, t_new, y_new)
        if g_start is not None:
            terminal_hit = _step_events(events, g_start, t0, t, t_new, y_new, dead_band, recs,
                                        *_dense_locator(t, h, y, stages))
        end_t, end_y = (t_new, y_new) if terminal_hit is None else terminal_hit
        times.append(end_t)
        states.append(end_y)

        if terminal_hit is not None:
            stop_reason = STOP_TERMINAL
            break
        t, y, k1 = t_new, y_new, stages[6]
        if clipped or direction * (t - t_limit) >= 0.0:
            stop_reason = STOP_TIME_LIMIT
            break
        # err_norm <= 1 here, so the factor is at least 0.9: only its upper
        # clamp can bind.  The clamps are written out: the same values as
        # min(max_step, |h| * min(10, fac)) and max(h_mag, min_step), without
        # three builtin calls per step.
        fac = 0.9 * err_norm ** -0.2 if err_norm > 0.0 else 10.0
        h_mag = abs(h) * (fac if fac < 10.0 else 10.0)
        if h_mag > max_step:
            h_mag = max_step
        if h_mag < min_step:
            h_mag = min_step
        h = direction * h_mag

    return TrajectorySegment(times, states, recs, stop_reason, detail)


# The Taylor steps of the pendulum arcs and of the extremal lanes.  The
# order and the tolerance of the step rule are model constants.  On the
# damping benchmark's runs (seed 1, passes 0-1), order 16 takes half the
# steps of order 12 in 20-40% less time; orders 18, 20 and 24 take 21%, 32%
# and 48% fewer steps still, in about the same time: their medians lie within
# the run-to-run spread of order 16's (2 vCPUs, 9 interleaved runs each).
TAYLOR_ORDER = 16
TAYLOR_TOL = 1e-13
# A pendulum arc's step is rejected, and halved, where its change in the
# arc's first integral h = y^2/2 - cos x - pull x exceeds
# DRIFT_TOL (1 + y^2/2 + |pull x|) at the step's end.  Jorba and Zou's rule
# reads two orders of the series; where both vanish, as from rest at
# cos x = 0, its step is far too long, and the drift shows it.
DRIFT_TOL = 1e-12


def _horner_expr(names: Sequence[str], t: str) -> str:
    """sum_k names[k] t^k by Horner's rule from the top, written out.

    The terms of ``extremal._horner_lanes`` in its order, so that one lane's
    polynomial gives the block's value bit for bit.
    """
    expr = f"{names[-1]} * {t} + {names[-2]}"
    for name in names[-3::-1]:
        expr = f"({expr}) * {t} + {name}"
    return expr


def _horner_source(order: int) -> str:
    """Source of ``horner(c, t)``: sum_k c[k] t^k over k <= order, written out."""
    names = [f"c{k}" for k in range(order + 1)]
    return f"def horner(c, t):\n    {', '.join(names)}, = c\n    return {_horner_expr(names, 't')}\n"


def _horner_pair_source(order: int) -> str:
    """Source of ``horner_pair(c, t)``: the sum of :func:`_horner_source` and its t-derivative.

    The sum takes _horner's steps, so it is _horner's value bit for bit.
    """
    lines = [f"p = c{order} * t + c{order - 1}", f"d = c{order}"]
    for k in range(order - 2, -1, -1):
        lines += ["d = d * t + p", f"p = p * t + c{k}"]
    names = ", ".join(f"c{k}" for k in range(order + 1))
    body = "".join(f"    {ln}\n" for ln in lines)
    return f"def horner_pair(c, t):\n    {names}, = c\n{body}    return p, d\n"


def _compile(source: str, name: str, namespace=None):
    """The function ``name`` defined by the generated ``source``."""
    namespace = {} if namespace is None else namespace
    exec(compile(source, f"<{name}, order {TAYLOR_ORDER}>", "exec"), namespace)
    return namespace[name]


# One component's series summed at t, for the damping arcs' steps, and the
# sum with its derivative, for the scalar event location of both Taylor
# integrators.  They are compiled at import, not at the first arc: they take
# well under a millisecond.
_horner = _compile(_horner_source(TAYLOR_ORDER), "horner")
_horner_pair = _compile(_horner_pair_source(TAYLOR_ORDER), "horner_pair")


def _poly_root(c, level: float, a: float, b: float, fa: float, fb: float) -> float:
    """The zero of the step polynomial c minus level between a and b.

    fa and fb are its values at a and b, which the caller already holds.
    Safeguarded Newton on :func:`_horner_pair`, from the secant point of the
    ends: each value narrows the bracket, and a Newton step that leaves it,
    or a zero derivative, takes the bracket's midpoint instead.  It stops
    once a step is below brentq's tolerance ``_ROOT_TOL``.  With one sign at
    both ends the zero is the end where the value is least.
    """
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if (fa < 0.0) == (fb < 0.0):
        return a if abs(fa) <= abs(fb) else b
    neg, pos = (a, b) if fa < 0.0 else (b, a)  # the value is < 0 at neg, > 0 at pos
    s = a - fa * (b - a) / (fb - fa)
    xtol, rtol = _ROOT_TOL["xtol"], _ROOT_TOL["rtol"]
    for _ in range(100):  # bisection alone meets the tolerance in about 50
        v, dv = _horner_pair(c, s)
        v -= level
        if v == 0.0:
            return s
        if v < 0.0:
            neg = s
        else:
            pos = s
        nxt = s - v / dv if dv != 0.0 else s
        if not (neg < nxt < pos or pos < nxt < neg):
            nxt = 0.5 * (neg + pos)
        if abs(nxt - s) <= 0.5 * (xtol + rtol * abs(nxt)):
            return nxt
        s = nxt
    return s


def _taylor_source(order: int) -> str:
    """Source of the Taylor series of x' = y, y' = -sin x + pull at one point.

    The generated ``series(x_0, y_0, pull, c_0)`` takes c_0 = cos x_0, which
    :func:`pendulum_arc` holds from its first-integral check, and returns the
    coefficients ``(x_0, ..., x_N)``, ``(y_0, ..., y_N)`` of
    x(t + h) = sum x_k h^k (and likewise y) for N = ``order``, and the step
    ``rho`` of Jorba and Zou's rule.  The coefficients come from the arc's
    first integral y^2/2 - cos x - pull x = const: with c = cos x,
    y'' = -c y and c = y^2/2 - pull x - const, so that

        c_k = (y^2)_k / 2 - pull x_k  (k >= 2),   c_1 = -y_0 sin x_0,
        (k+1)(k+2) y_{k+2} = -sum_{j=0..k} c_j y_{k-j},   (k+1) x_{k+1} = y_k,

    one half-convolution (y^2 is symmetric) and one full convolution per
    order, written out as straight-line code.  c_1 is written directly: from
    the first integral it would be y_0 y_1 - pull y_0, which cancels the
    pull.  The first-order pair is the field itself,
    (x_1, y_1) = (y_0, -sin x_0 + pull), bit for bit.  The step is
    rho = min over j = N-1, N of (TAYLOR_TOL / m_j)^(1/j), where m_j is the
    larger of |x_j| and |y_j|: with it the last two terms of the series are
    at most TAYLOR_TOL over the step (A. Jorba, M. Zou, Exp. Math. 14 (2005)
    99-117).  A zero m_j bounds nothing and is skipped.
    Each component's series is summed by :func:`_horner`.
    """
    n = order

    def half_square(k: int) -> str:  # (y^2)_k / 2
        terms = [f"y_{j} * y_{k - j}" for j in range((k + 1) // 2)]
        if k % 2 == 0:
            terms.append(f"0.5 * y_{k // 2} * y_{k // 2}")
        return " + ".join(terms)

    lines = ["def series(x_0, y_0, pull, c_0):",
             "    s_0 = sin(x_0)",
             "    x_1 = y_0", "    y_1 = -s_0 + pull", "    c_1 = -y_0 * s_0"]
    for k in range(n - 1):
        cy = " + ".join(f"c_{j} * y_{k - j}" for j in range(k + 1))
        lines += [f"    y_{k + 2} = -({cy}) / {(k + 1) * (k + 2)}.0",
                  f"    x_{k + 2} = y_{k + 1} / {k + 2}.0"]
        if k + 2 <= n - 2:  # y_N needs c up to c_{N-2}
            lines.append(f"    c_{k + 2} = {half_square(k + 2)} - pull * x_{k + 2}")
    lines.append("    rho = inf")
    # m is written out: the value of max(abs(x_j), abs(y_j)), NaN included,
    # without three builtin calls.
    for j in (n - 1, n):
        lines += [f"    m = x_{j} if x_{j} >= 0.0 else -x_{j}",
                  f"    a = y_{j} if y_{j} >= 0.0 else -y_{j}",
                  "    if a > m:", "        m = a",
                  "    if m > 0.0:",
                  f"        r = ({TAYLOR_TOL!r} / m) ** {1.0 / j!r}",
                  "        if r < rho:",
                  "            rho = r"]
    xs = ", ".join(f"x_{k}" for k in range(n + 1))
    ys = ", ".join(f"y_{k}" for k in range(n + 1))
    lines.append(f"    return ({xs}), ({ys}), rho")
    return "\n".join(lines) + "\n"


@functools.cache
def _taylor():
    """The generated ``series``, compiled at the first arc."""
    return _compile(_taylor_source(TAYLOR_ORDER), "series", {"sin": math.sin, "inf": math.inf})


def _taylor_locator(t: float, coefs):
    """The ``locate, dense`` of the Taylor step with series ``coefs`` from time
    t for :func:`_step_events`: a level is located by :func:`_poly_root` on
    the step polynomial of its component, from the values at the ends."""
    def dense(s: float) -> tuple[float, float]:
        return _horner(coefs[0], s - t), _horner(coefs[1], s - t)

    def locate(ev: EventSpec, t_end: float, y_end) -> float:
        c = ev.level.component
        a, b = coefs[c][0], y_end[c]
        level = ev.level.crossed(a, b)
        return t + _poly_root(coefs[c], level, 0.0, t_end - t, a - level, b - level)

    return locate, dense


def pendulum_arc(
    pull: float,
    s0: Sequence[float],
    t0: float,
    t_limit: float,
    events: Sequence[EventSpec] = (),
) -> TrajectorySegment:
    """One arc of x' = y, y' = -sin x + pull by Taylor steps, with events.

    The contract of :func:`integrate` on the field ``dynamics.pendulum_rhs(pull)``:
    the same samples (the step ends, and the located state of a terminal
    event), event directions, post-event dead band and terminal ordering, by
    the same event routine.
    Each step is the order-``TAYLOR_ORDER`` series at the step's start, over
    the step of Jorba and Zou's rule.  A step whose change in the first
    integral y^2/2 - cos x - pull x exceeds ``DRIFT_TOL`` (relative to
    1 + y^2/2 + |pull x| at its end) is halved, and the series summed again,
    until it does not.  The integral and cos x at a step's end are carried to
    the next step, whose series takes that cosine, so the check costs no
    cosine of its own.  Every event
    is a level of x or y (:meth:`EventSpec.at_level`), located by
    :func:`_poly_root` on that component's step polynomial; an event without
    such a level is rejected with ValueError.
    """
    if t_limit == t0:
        raise ValueError("t_limit must differ from t0")
    for ev in events:
        if ev.level is None or ev.level.component not in (0, 1):
            raise ValueError(f"event {ev.label!r} is not a level of x or y: pendulum_arc locates "
                             f"its events on the step polynomial (EventSpec.at_level)")
    x, y = (float(v) for v in s0)
    if not (math.isfinite(x) and math.isfinite(y)):
        raise ValueError(f"non-finite initial state {(x, y)}")
    series = _taylor()
    direction = 1.0 if t_limit > t0 else -1.0
    t = float(t0)
    dead_band = StepControl.min_step

    times: list[float] = [t]
    states: list[tuple[float, ...]] = [(x, y)]
    recs: list[EventRecord] = []
    g_prev = [ev.fn(t, (x, y)) for ev in events]
    stop_reason = STOP_TIME_LIMIT
    cos_x = math.cos(x)
    integral = 0.5 * y * y - cos_x - pull * x
    while True:
        xs, ys, rho = series(x, y, pull, cos_x)
        while True:
            last = direction * (t + direction * rho - t_limit) >= 0.0
            h = t_limit - t if last else direction * rho
            t_new = t_limit if last else t + h
            end = _horner(xs, h), _horner(ys, h)
            xe, ye = end
            if not (rho > 0.0 and math.isfinite(xe + ye)):
                return TrajectorySegment(times, states, recs, STOP_STEP_FAILURE,
                                         f"Taylor series overflowed at t={t}")
            cos_xe = math.cos(xe)
            end_integral = 0.5 * ye * ye - cos_xe - pull * xe
            drift = abs(end_integral - integral)
            # The bound is at least DRIFT_TOL, so most steps pass on the first test.
            if drift <= DRIFT_TOL or not drift > DRIFT_TOL * (1.0 + 0.5 * ye * ye + abs(pull * xe)):
                break
            rho *= 0.5
        g_start = _advance_events(events, g_prev, t_new, end)
        if g_start is not None:
            terminal_hit = _step_events(events, g_start, t0, t, t_new, end, dead_band, recs,
                                        *_taylor_locator(t, (xs, ys)))
            if terminal_hit is not None:
                times.append(terminal_hit[0])
                states.append(terminal_hit[1])
                stop_reason = STOP_TERMINAL
                break
        times.append(t_new)
        states.append(end)
        if last:
            break
        t = t_new
        x, y = end
        cos_x, integral = cos_xe, end_integral
    return TrajectorySegment(times, states, recs, stop_reason, "")
