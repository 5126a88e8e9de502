"""Test oracles: independent scalar routes to numbers the package computes.

Each oracle is a slower or more direct way to a result that ``pendamp``
computes on its hot path, kept here so the tests can check one against the
other.  None of them is reachable from the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from scipy.special import ellipk

from pendamp import extremal
from pendamp.dynamics import ZONE_FACTOR, Params, PhaseState, in_zone_xy, pendulum_rhs
from pendamp.extremal import (
    _SEG_SLOPE,
    _TAU_KNOTS,
    SPEED_EXIT,
    STOP_ENERGY_EXIT,
    STOP_OPTIMALITY,
    STOP_STANDSTILL,
    STOP_TIME_BUDGET,
    ExtremalRun,
    _gap_at,
    _segment_at,
)
from pendamp.integrator import (
    ANY,
    FALLING,
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


@dataclass
class OracleRun(ExtremalRun):
    """An extremal run together with its samples, when they were kept."""

    trajectory: TrajectorySegment | None = None


# DP5 tolerances of the reference extremals, two decades below integrate's
# defaults.
TIGHT_EXTREMAL = StepControl(rtol=1e-12, atol=1e-14)


def _knot_phase(E: float) -> float:
    """sin(pi phi(E)), where phi runs through the integers at the table's knots."""
    i = min(_segment_at(E), len(_TAU_KNOTS) - 2)
    lo, hi = _TAU_KNOTS.item(i), _TAU_KNOTS.item(i + 1)
    return math.sin(math.pi * (i + (E - lo) / (hi - lo)))


def oracle_trace_extremal(
    phi_T: float,
    s: int,
    p: Params,
    keep_samples: bool = True,
    ctl: StepControl = TIGHT_EXTREMAL,
) -> OracleRun:
    """Trace one backward extremal on DP5 ``integrate``, one arc per call.

    The differential oracle of the Taylor lane kernel ``extremal.trace_lanes``,
    with every stop located in the time domain.  Each arc ends at the switch
    psi = 0, or earlier at a sign change of y^2 - SPEED_EXIT^2 or of the
    budget gap tau(E)/eps + OPTIMALITY_SLACK + t between step ends.  Along
    the arc ``integrate`` also locates, as non-terminal events, the zeros of
    y, of y' = u eps - sin x, of sin 2x, of sin(pi phi(E)) (the table's
    knots) and of 1 + u rho(E) y, the sign of the gap's slope.  The gap,
    the slope rho and the knots are the kernel's own (``extremal._gap_at``
    and the table's segments), which test_extremal_lanes.py checks against
    the written-out tau(E) values.  Between two
    such points |y|, |sin x| and E are monotone, rho is constant, and so the
    gap is monotone too.  So the end values of each piece tell whether the
    speed exit, the budget line, the zone (|y| < thr and |sin x| < thr) and
    its complement are met inside it, and each first crossing is located by
    integrating the piece again up to it as a terminal event.  The lane is
    armed at its first point outside the zone and stops at its first point
    inside it after that.  With ``keep_samples`` the run also carries its
    samples (step ends and located stops), with the covector unscaled.
    The time budget is ``extremal.TIME_BUDGET_FACTOR`` / eps, looked up at
    the call, so that a test that patches the constant patches both tracers.
    """
    if s not in (-1, 1):
        raise ValueError(f"s must be +-1, got {s}")
    eps = p.epsilon
    y_stop2 = SPEED_EXIT ** 2
    t_budget = extremal.TIME_BUDGET_FACTOR / eps
    # Above factor*eps = 1 the two zone components merge and the standstill
    # stop is meaningless; traces there exit on speed long before it matters.
    thr = ZONE_FACTOR * eps
    zone_on = thr < 1.0

    def energy(st):
        return 0.5 * st[1] * st[1] + 1.0 - math.cos(st[0])

    def speed_gap(t, st):
        return st[1] * st[1] - y_stop2

    def budget_gap(t, st):
        return _gap_at(energy(st), t, eps)

    def y_gap(t, st):
        return abs(st[1]) - thr

    def sin_gap(t, st):
        return abs(math.sin(st[0])) - thr

    def arc(u, state, t0):
        """The arc under control u from (t0, state), to its switch or first stop."""
        ueps = u * eps

        def rhs(t, st):
            x = st[0]
            return (st[1], ueps - math.sin(x), math.cos(x) * st[3], -st[2])

        events = [
            EventSpec(lambda t, st: st[3], ANY, True, "switch"),
            EventSpec(speed_gap, RISING, True, "exit"),
            EventSpec(budget_gap, FALLING, True, "budget"),
            EventSpec(lambda t, st: st[1], ANY, False, "y0"),
            EventSpec(lambda t, st: ueps - math.sin(st[0]), ANY, False, "cut"),
            EventSpec(lambda t, st: math.sin(2.0 * st[0]), ANY, False, "cut"),
            EventSpec(lambda t, st: _knot_phase(energy(st)), ANY, False, "cut"),
            EventSpec(lambda t, st: 1.0 + u * _SEG_SLOPE.item(_segment_at(energy(st))) * st[1],
                      ANY, False, "cut"),
        ]
        seg = integrate(rhs, state, t0, -t_budget, events, ctl)

        def crossing(fn, a, b):
            """The first zero of fn after point a, which lies in the monotone piece (a, b)."""
            again = integrate(rhs, a[1], a[0], b[0], [EventSpec(fn, ANY, True)], ctl)
            return (again.t_end, again.end_state) if again.events else b

        return seg, crossing

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
    max_arcs = int(t_budget / math.pi) + 8

    def inside(st):
        return zone_on and abs(st[1]) < thr and abs(math.sin(st[0])) < thr

    for _ in range(max_arcs):
        seg, crossing = arc(u, state, t)
        touched = inside(state)
        # The arc's pieces, between its start, its located events and its end.
        points = [(t, state)] + [(ev.t, ev.state) for ev in seg.events] + [(seg.t_end, seg.end_state)]
        end = None
        for a, b in zip(points, points[1:]):
            if b[0] == a[0]:
                continue
            hits = []
            if speed_gap(*b) >= 0.0 > speed_gap(*a):
                hits.append((*crossing(speed_gap, a, b), STOP_ENERGY_EXIT))
            if budget_gap(*b) <= 0.0 < budget_gap(*a):
                hits.append((*crossing(budget_gap, a, b), STOP_OPTIMALITY))
            if zone_on:
                # The zone's points in the piece form one interval, from
                # first to last (in trace order, so by falling t), since |y|
                # and |sin x| are monotone there.
                first, last_in, from_a, to_b = a, b, True, True
                for gap in (y_gap, sin_gap):
                    ga, gb = gap(*a), gap(*b)
                    if ga >= 0.0 and gb >= 0.0:
                        first = None
                        break
                    if ga >= 0.0:
                        c = crossing(gap, a, b)
                        first, from_a = min(first, c, key=lambda q: q[0]), False
                    elif gb >= 0.0:
                        c = crossing(gap, a, b)
                        last_in, to_b = max(last_in, c, key=lambda q: q[0]), False
                if first is not None and first[0] < last_in[0]:
                    first = None  # the two intervals miss each other
                if not armed:
                    # The lane is inside at a unless rounding says otherwise.
                    if first is None or not from_a:
                        armed = True
                        if first is not None:
                            hits.append((*first, STOP_STANDSTILL))
                    elif not to_b:
                        armed = True  # it leaves at last_in; the interval is behind it
                elif first is not None:
                    hits.append((*first, STOP_STANDSTILL))
            if hits:
                end = max(hits, key=lambda q: q[0])
                break
        y_zero_times += [ev.t for ev in seg.events if ev.label == "y0" and (end is None or ev.t > end[0])]
        n_kept = len(seg.times) if end is None else sum(ts > end[0] for ts in seg.times)
        for st in seg.states[:n_kept]:
            max_res = max(max_res, abs(st[1] * st[2] - math.sin(st[0]) * st[3] + eps * abs(st[3]) - eps))
        if keep_samples:
            start = 1 if all_t else 0  # arc junction duplicates the last sample
            all_t.extend(seg.times[start:n_kept])
            all_s.extend(seg.states[start:n_kept])
            if end is not None:
                all_t.append(end[0])
                all_s.append(end[1])
        if end is not None:
            arc_zone.append(touched or end[2] == STOP_STANDSTILL)
            end_t, end_state, stop_reason = end
            break
        arc_zone.append(touched)
        last = seg.events[-1] if seg.events else None
        if seg.stop_reason == STOP_TERMINAL and last.label == "switch":
            st = last.state
            switch_times.append(last.t)
            switch_states.append((st[0], st[1], st[2] / eps, st[3] / eps))
            switch_in_zone.append(zone_on and in_zone_xy(st[0], st[1], thr))
            u = -u
            state = st
            t = last.t
            continue
        if seg.stop_reason == STOP_TERMINAL:
            # A stop that the arc's own sign test found, at a step end or
            # inside a step; the pieces found nothing earlier.
            stop_reason = STOP_ENERGY_EXIT if last.label == "exit" else STOP_OPTIMALITY
        elif seg.stop_reason == STOP_TIME_LIMIT:
            stop_reason = STOP_TIME_BUDGET
        else:
            stop_reason = STOP_STEP_FAILURE
        end_t, end_state = seg.t_end, seg.end_state
        break
    else:
        end_t, end_state = t, state

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
        end_state=(end_state[0], end_state[1], end_state[2] / eps, end_state[3] / eps),
        trajectory=trajectory,
    )


def oracle_canonical_series(state, ueps: float, order: int) -> list[list[float]]:
    """Taylor coefficients of the canonical field at one state, by plain loops.

    The textbook recurrences of ``extremal._SeriesBlock`` in time units of
    1, with divisions where the kernel multiplies by reciprocals: for
    x' = y, y' = ueps - sin x, P' = cos x Q, Q' = -P, with S = sin x,
    C = cos x, k S_k = sum_j j x_j C_{k-j} and k C_k = -sum_j j x_j S_{k-j}.
    Returns [x_k, y_k, P_k, Q_k] for k = 0..order.
    """
    x, y, P, Q = ([v] for v in state)
    S, C = [math.sin(x[0])], [math.cos(x[0])]
    for k in range(order):
        if k:
            S.append(sum(j * x[j] * C[k - j] for j in range(1, k + 1)) / k)
            C.append(-sum(j * x[j] * S[k - j] for j in range(1, k + 1)) / k)
        x.append(y[k] / (k + 1))
        y.append(((ueps if k == 0 else 0.0) - S[k]) / (k + 1))
        P.append(sum(C[j] * Q[k - j] for j in range(k + 1)) / (k + 1))
        Q.append(-P[k] / (k + 1))
    return [list(c) for c in zip(x, y, P, Q)]


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

    return _quad(f, -x, x_next, tol).value


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
        q = _quad(f, lo, hi, tol)
        total += q.value / abs(pc.u)
        err += q.error_estimate
        neval += q.evaluations
    return QuadratureResult(total, err, neval)
