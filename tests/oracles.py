"""Test oracles: independent scalar routes to numbers the package computes.

Each oracle is a slower or more direct way to a result that ``pendamp``
computes on its hot path, kept here so the tests can check one against the
other.  None of them is reachable from the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from scipy.special import ellipk

from pendamp.dynamics import ZONE_FACTOR, Params, PhaseState, in_zone_xy, pendulum_rhs
from pendamp.extremal import (
    _TAU_KNOTS,
    _TAU_VALUES,
    OPTIMALITY_SLACK,
    SPEED_EXIT,
    STOP_ENERGY_EXIT,
    STOP_OPTIMALITY,
    STOP_STANDSTILL,
    STOP_TIME_BUDGET,
    ExtremalRun,
    StopPolicy,
)
from pendamp.integrator import (
    ANY,
    RISING,
    STOP_STEP_FAILURE,
    STOP_TERMINAL,
    STOP_TIME_LIMIT,
    EventSpec,
    StepControl,
    TrajectorySegment,
    integrate,
)
from pendamp.limits import (
    LimitPath,
    QuadratureResult,
    _quad,
    amplitude_from_energy,
    full_turn_time,
    switching_integrand,
)

# ------------------------------------------------------------ extremals

_KNOTS, _VALUES = _TAU_KNOTS.tolist(), _TAU_VALUES.tolist()


def _tau_bound(E: float) -> float:
    """Piecewise-linear interpolation of the tau(E) table, by bisection.

    Above the table range the bound is clamped (the speed exit fires long
    before that matters).
    """
    if E <= 0.0:
        return 0.0
    if E >= _KNOTS[-1]:
        return _VALUES[-1]
    lo, hi = 0, len(_KNOTS) - 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _KNOTS[mid] <= E:
            lo = mid
        else:
            hi = mid
    w = (E - _KNOTS[lo]) / (_KNOTS[hi] - _KNOTS[lo])
    return _VALUES[lo] + w * (_VALUES[hi] - _VALUES[lo])


@dataclass
class OracleRun(ExtremalRun):
    """An extremal run together with its samples, when they were kept."""

    trajectory: TrajectorySegment | None = None


def oracle_trace_extremal(
    phi_T: float,
    s: int,
    p: Params,
    stop: StopPolicy | None = None,
    keep_samples: bool = True,
) -> OracleRun:
    """Trace one backward extremal on ``integrate``, splitting arcs at psi zeros.

    The scalar oracle of the lane kernel ``extremal.trace_lanes``: one arc
    per ``integrate`` call, with the same step, event and cut policy, so the
    two agree run for run.  With ``keep_samples`` the run also carries its
    samples, with the covector unscaled.
    """
    if s not in (-1, 1):
        raise ValueError(f"s must be +-1, got {s}")
    if stop is None:
        stop = StopPolicy()
    eps = p.epsilon
    y_stop2 = SPEED_EXIT ** 2
    t_budget = stop.time_budget_factor / eps
    # Above factor*eps = 1 the two zone components merge and the standstill
    # stop is meaningless; traces there exit on speed long before it matters.
    thr = ZONE_FACTOR * eps
    zone_on = thr < 1.0
    ctl = stop.ctl

    def rhs_plus(t, st):
        x = st[0]
        return (st[1], eps - math.sin(x), math.cos(x) * st[3], -st[2])

    def rhs_minus(t, st):
        x = st[0]
        return (st[1], -eps - math.sin(x), math.cos(x) * st[3], -st[2])

    events = (
        EventSpec(lambda t, st: st[3], ANY, True, "switch"),
        EventSpec(lambda t, st: st[1] * st[1] - y_stop2, RISING, True, "exit"),
        EventSpec(lambda t, st: st[1], ANY, False, "y0"),
    )

    u = s
    t = 0.0
    state = (0.0, 0.0, eps * phi_T, float(s))
    armed = False
    switch_times: list[float] = []
    switch_states: list[tuple[float, float, float, float]] = []
    switch_in_zone: list[bool] = []
    y_zero_times: list[float] = []
    arc_zone: list[bool] = []
    all_t: list[float] = []
    all_s: list[tuple[float, float, float, float]] = []
    max_res = 0.0
    stop_reason = STOP_TIME_BUDGET
    end_t = 0.0
    max_arcs = int(t_budget / math.pi) + 8

    for _ in range(max_arcs):
        seg = integrate(rhs_plus if u > 0 else rhs_minus, state, t, -t_budget, events, ctl)

        cut = None
        cut_reason = None
        touched = False
        for i, st in enumerate(seg.states):
            x, yv = st[0], st[1]
            sx = math.sin(x)
            if zone_on and abs(yv) < thr and abs(sx) < thr:
                touched = True
                if armed:
                    cut = i
                    cut_reason = STOP_STANDSTILL
                    break
            else:
                armed = True
            en = 0.5 * yv * yv + 1.0 - math.cos(x)
            if -seg.times[i] > _tau_bound(en) / eps + OPTIMALITY_SLACK:
                cut = i
                cut_reason = STOP_OPTIMALITY
                break
            r = yv * st[2] - sx * st[3] + eps * abs(st[3]) - eps
            if abs(r) > max_res:
                max_res = abs(r)

        t_cut = seg.times[cut] if cut is not None else None
        for ev in seg.events:
            if ev.label == "y0" and (t_cut is None or ev.t > t_cut):
                y_zero_times.append(ev.t)

        if keep_samples:
            hi = (cut + 1) if cut is not None else len(seg.times)
            start = 1 if all_t else 0  # arc junction duplicates the last sample
            all_t.extend(seg.times[start:hi])
            all_s.extend(seg.states[start:hi])

        arc_zone.append(touched)

        if cut is not None:
            stop_reason = cut_reason
            end_t = seg.times[cut]
            break
        if seg.stop_reason == STOP_TERMINAL:
            last = seg.events[-1]
            if last.label == "switch":
                st = last.state
                switch_times.append(last.t)
                switch_states.append((st[0], st[1], st[2] / eps, st[3] / eps))
                switch_in_zone.append(zone_on and in_zone_xy(st[0], st[1], thr))
                u = -u
                state = st
                t = last.t
                end_t = last.t
                continue
            stop_reason = STOP_ENERGY_EXIT
            end_t = seg.t_end
            break
        if seg.stop_reason == STOP_TIME_LIMIT:
            stop_reason = STOP_TIME_BUDGET
            end_t = seg.t_end
            break
        stop_reason = STOP_STEP_FAILURE
        end_t = seg.t_end
        break
    else:
        stop_reason = STOP_TIME_BUDGET

    trajectory = None
    if keep_samples:
        unscaled = [(st[0], st[1], st[2] / eps, st[3] / eps) for st in all_s]
        trajectory = TrajectorySegment(all_t, unscaled, [], stop_reason)

    return OracleRun(
        phi_T=phi_T,
        sign=s,
        epsilon=eps,
        switch_times=tuple(switch_times),
        switch_states=tuple(switch_states),
        switch_in_zone=tuple(switch_in_zone),
        y_zero_times=tuple(y_zero_times),
        arc_zone_touched=tuple(arc_zone),
        stop_reason=stop_reason,
        duration=abs(end_t),
        max_hamiltonian_residual=max_res / eps,
        trajectory=trajectory,
    )


# ------------------------------------------------------------ plant

# DP5 tolerances of the reference damping arcs, three decades below the
# integrator's defaults.
TIGHT = StepControl(rtol=1e-13, atol=1e-15)


def oracle_pendulum_arc(pull, s0, t0, t_limit, events=()):
    """``integrator.pendulum_arc`` run by the DP5 ``integrate`` at ``TIGHT``.

    Patched over ``quasiopt.pendulum_arc``, it gives ``simulate_damping`` with
    every arc on the reference integrator.
    """
    return integrate(pendulum_rhs(pull), s0, t0, t_limit, events, TIGHT)



def oracle_controlled_hamiltonian(s: PhaseState, u: int, p: Params) -> float:
    """First integral of a fixed-control arc: y^2/2 + (1 - cos x) - eps*u*x.

    The constant torque tilts the potential by -eps*u*x, so this combination
    is exactly conserved while u is held at +-1.  Only meaningful with x on
    the covering line; an accuracy probe for the integrator, not a physical
    energy.
    """
    if u not in (-1, 1):
        raise ValueError(f"controlled Hamiltonian needs u = +-1, got {u}")
    return 0.5 * s.y * s.y + (1.0 - math.cos(s.x)) - p.epsilon * u * s.x


# ------------------------------------------------------------ limits


def oracle_half_swing_time(x: float) -> float:
    """integral_0^x dphi / sqrt(cos(phi) - cos(x)) = sqrt(2) K(sin^2(x/2)).

    sqrt(2) times the free-pendulum quarter period at rest amplitude x.
    """
    if not 0.0 <= x < math.pi:
        raise ValueError(f"amplitude {x} outside [0, pi)")
    return math.sqrt(2.0) * float(ellipk(math.sin(0.5 * x) ** 2))


def oracle_free_oscillation_period(E: float, tol: float = 1e-11) -> QuadratureResult:
    """Free pendulum period at energy E < 2 by direct quadrature.

    Uses the desingularized form 4 * integral_0^{pi/2}
    (1 - sin^2(a/2) sin^2(theta))^(-1/2) dtheta, independent of both the ODE
    integrator and the ellipk-based routes.
    """
    if not 0.0 < E < 2.0:
        raise ValueError(f"energy {E} outside (0, 2)")
    m = math.sin(0.5 * amplitude_from_energy(E)) ** 2

    def f(theta):
        return 4.0 / math.sqrt(1.0 - m * math.sin(theta) ** 2)

    return _quad(f, 0.0, 0.5 * math.pi, tol)


def oracle_low_step_time(x: float, x_next: float, eps: float, tol: float) -> float:
    """Duration of one half-swing from rest at -x to rest at x_next under
    u = -sign(y), by quadrature of ds/|y| with
    y^2 = 2 (cos s - cos x - eps (s + x)) straight across the
    inverse-square-root zeros at both rest points.

    Raises QuadratureError on many steps of small-eps or near-separatrix
    orbits; where it certifies, it is an independent route to
    ``limits._low_step_time``.
    """

    def f(s):
        v = 2.0 * (math.cos(s) - math.cos(x) - eps * (s + x))
        if v <= 0.0:
            return 0.0
        return v ** -0.5

    return _quad(f, -x, x_next, tol, limit=400).value


def oracle_per_oscillation_time(zone: str, v: float) -> float:
    """Per-oscillation time integrand of the cost functionals.

    Low zone:  integral_0^X (cos phi - cos X)^(-1/2) dphi.
    High zone: integral_0^{2pi} (1 + Y^2/2 - cos phi)^(-1/2) dphi.
    """
    if zone == "low":
        if v <= 0.0:
            return 0.0
        return oracle_half_swing_time(min(v, math.pi * (1.0 - 1e-15)))
    return math.sqrt(2.0) * full_turn_time(2.0 + 0.5 * v * v)


def oracle_cost_functional(path: LimitPath, tol: float = 1e-9) -> QuadratureResult:
    """Composite quadrature of the per-oscillation time along an averaged path.

    On constant nonzero control the time integral transforms exactly to the
    state variable (dt = dG/U low, dt = Y dY / 2 pi U high); zero-control
    pieces contribute duration times the frozen integrand.  Along a full
    U = -1 descent it gives tau_minus / sqrt 2 (low) and sqrt 2 tau_plus
    (high), an independent route to both.
    """
    total = 0.0
    err = 0.0
    neval = 0
    for pc in path.pieces:
        if pc.t_end == pc.t_start:
            continue
        if pc.u == 0.0:
            total += (pc.t_end - pc.t_start) * oracle_per_oscillation_time(path.zone, pc.v_start)
            continue
        lo, hi = sorted((pc.v_start, pc.v_end))
        if path.zone == "low":
            def f(x):
                return oracle_per_oscillation_time("low", x) * switching_integrand(x)
        else:
            def f(yv):
                return oracle_per_oscillation_time("high", yv) * yv / (2.0 * math.pi)
        q = _quad(f, lo, hi, tol, limit=400)
        total += q.value / abs(pc.u)
        err += q.error_estimate
        neval += q.evaluations
    return QuadratureResult(total, err, neval)
