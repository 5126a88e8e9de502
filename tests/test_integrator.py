import itertools
import math

import pytest
from scipy.optimize import brentq

from pendamp.integrator import (
    _A21, _A31, _A32, _A41, _A42, _A43, _A51, _A52, _A53, _A54, _A61, _A62, _A63, _A64, _A65,
    _B1, _B3, _B4, _B5, _B6, _C2, _C3, _C4, _C5, _E1, _E3, _E4, _E5, _E6, _E7,
    ANY,
    FALLING,
    RISING,
    STOP_STEP_FAILURE,
    STOP_TERMINAL,
    STOP_TIME_LIMIT,
    EventRecord,
    EventSpec,
    StepControl,
    TrajectorySegment,
    _initial_step,
    _make_dense,
    _refine_samples,
    integrate,
)
from pendamp.limits import free_oscillation_period


def free_pendulum(t, s):
    return (s[1], -math.sin(s[0]))


def energy(s):
    return 0.5 * s[1] * s[1] + 1.0 - math.cos(s[0])


def test_energy_conservation_free_pendulum():
    seg = integrate(free_pendulum, (1.0, 0.0), 0.0, 20.0)
    e0 = energy((1.0, 0.0))
    drift = max(abs(energy(s) - e0) for s in seg.states)
    assert drift <= 1e-9
    assert seg.stop_reason == STOP_TIME_LIMIT


def test_full_cycle_return():
    # From rest the velocity first goes negative, so the first falling
    # y-crossing is the full-period return to the start amplitude.
    ev = EventSpec(lambda t, s: s[1], FALLING, True, "y0")
    seg = integrate(free_pendulum, (1.0, 0.0), 0.0, 50.0, [ev])
    assert seg.stop_reason == STOP_TERMINAL
    assert seg.end_state[0] == pytest.approx(1.0, abs=1e-8)


def test_half_cycle_rising_direction():
    # The first rising y-crossing from (x0, 0) is the opposite turning point.
    ev = EventSpec(lambda t, s: s[1], RISING, True, "y0")
    seg = integrate(free_pendulum, (1.0, 0.0), 0.0, 50.0, [ev])
    assert seg.end_state[0] == pytest.approx(-1.0, abs=1e-8)


def test_return_time_matches_period_quadrature():
    x0 = 1e-3
    e0 = 1.0 - math.cos(x0)
    ev = EventSpec(lambda t, s: s[1], FALLING, True, "y0")
    seg = integrate(free_pendulum, (x0, 0.0), 0.0, 50.0, [ev])
    period = free_oscillation_period(e0).value
    assert seg.t_end == pytest.approx(period, abs=1e-7)


def test_constant_control_hamiltonian_drift():
    eps, u = 0.3, 1.0

    def rhs(t, s):
        return (s[1], -math.sin(s[0]) + eps * u)

    def ham(s):
        return 0.5 * s[1] ** 2 + 1.0 - math.cos(s[0]) - eps * u * s[0]

    seg = integrate(rhs, (0.5, 0.3), 0.0, 10.0)
    h0 = ham(seg.states[0])
    drift = max(abs(ham(s) - h0) for s in seg.states)
    assert drift <= 1e-8 * 10.0


def test_backward_forward_consistency():
    seg = integrate(free_pendulum, (1.0, 0.5), 0.0, 50.0)
    back = integrate(free_pendulum, seg.end_state, 50.0, 0.0)
    assert back.times[0] > back.times[-1]  # strictly decreasing samples
    assert all(a > b for a, b in zip(back.times, back.times[1:]))
    for a, b in zip(back.end_state, (1.0, 0.5)):
        assert a == pytest.approx(b, abs=1e-7)


def test_event_idempotence_on_restart():
    ev = EventSpec(lambda t, s: s[1], ANY, True, "y0")
    seg = integrate(free_pendulum, (1.0, 0.2), 0.0, 50.0, [ev])
    assert seg.stop_reason == STOP_TERMINAL
    # Restarting on the event surface must not re-trigger immediately.
    seg2 = integrate(free_pendulum, seg.end_state, seg.t_end, seg.t_end + 50.0, [ev])
    assert seg2.stop_reason == STOP_TERMINAL
    assert seg2.duration > 1.0  # next zero is half a period away, not one step


def test_nonterminal_events_recorded_and_continue():
    ev = EventSpec(lambda t, s: s[1], ANY, False, "y0")
    period = free_oscillation_period(1.0 - math.cos(1.0)).value
    seg = integrate(free_pendulum, (1.0, 0.0), 0.0, 2.0 * period * 1.01, [ev])
    assert seg.stop_reason == STOP_TIME_LIMIT
    assert len(seg.events) == 4  # two zeros per period
    assert all(r.label == "y0" for r in seg.events)
    for r in seg.events:
        assert abs(r.state[1]) <= 1e-11


def test_event_value_localized_below_tolerance():
    ctl = StepControl()
    ev = EventSpec(lambda t, s: s[0] + 0.5, ANY, True, "xcross")
    seg = integrate(free_pendulum, (1.0, 0.0), 0.0, 50.0, [ev], ctl)
    assert abs(seg.end_state[0] + 0.5) <= ctl.event_tol


def test_step_failure_reported():
    def blowup(t, s):
        return (s[0] * s[0],)

    seg = integrate(blowup, (1.0,), 0.0, 2.0, ctl=StepControl(max_steps=20000))
    assert seg.stop_reason == STOP_STEP_FAILURE
    assert seg.detail != ""
    assert seg.times[-1] < 1.01  # the pole sits at t = 1


def test_rejects_degenerate_time_span():
    with pytest.raises(ValueError):
        integrate(free_pendulum, (1.0, 0.0), 0.0, 0.0)


def test_rejects_non_finite_initial_state():
    with pytest.raises(ValueError, match="non-finite initial state"):
        integrate(free_pendulum, (math.nan, 0.0), 0.0, 1.0)


def test_sample_density_meets_interp_tolerance():
    ctl = StepControl(interp_tol=1e-4)
    seg = integrate(free_pendulum, (2.0, 0.0), 0.0, 15.0, ctl=ctl)
    ts, ss = seg.times, seg.states
    worst = 0.0
    for i in range(1, len(ts) - 1):
        w = (ts[i] - ts[i - 1]) / (ts[i + 1] - ts[i - 1])
        lin = [a + w * (b - a) for a, b in zip(ss[i - 1], ss[i + 1])]
        worst = max(worst, max(abs(l - v) for l, v in zip(lin, ss[i])))
    # the probe spans two sample intervals, which quadruples the guaranteed
    # per-interval midpoint error
    assert worst <= 5.0 * ctl.interp_tol


def test_step_control_validation():
    with pytest.raises(ValueError):
        StepControl(rtol=0.0)
    with pytest.raises(ValueError):
        StepControl(min_step=1.0, max_step=0.5)
    with pytest.raises(ValueError):
        EventSpec(lambda t, s: s[0], "sideways", False, "bad")


def oracle_integrate(rhs, s0, t0, t_limit, events=(), ctl=None):
    """Oracle: ``integrate`` with each attempt written as loops over components.

    The stage inputs, the new state and the error norm are built with loops
    over ``range(n)``.  ``integrate`` runs one generated straight-line attempt
    per state dimension instead and must give the same results bit for bit.
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



def _forced_decay(t, s):
    return (-s[0] + math.sin(t),)


def _blowup(t, s):
    return (s[0] * s[0],)


def _van_der_pol(t, s):
    return (s[1], 8.0 * (1.0 - s[0] * s[0]) * s[1] - s[0])


def _lorenz(t, s):
    return (10.0 * (s[1] - s[0]), s[0] * (28.0 - s[2]) - s[1], s[0] * s[1] - 8.0 / 3.0 * s[2])


def _pendulum_costate(t, s):
    # pendulum with a smooth control on its costate, and the costate flow
    u = 0.3 * s[3] / (1.0 + s[3] * s[3])
    return (s[1], -math.sin(s[0]) + u, s[3] * math.cos(s[0]), -s[2])


LOOSE = StepControl(rtol=1e-6, atol=1e-9, interp_tol=None)

# id: (rhs, s0, t0, t_limit, events, ctl, what the case must exercise)
STEP_CASES = {
    "n1-forward-min-step-failure": (
        _blowup, (1.0,), 0.0, 2.0, (), StepControl(min_step=1e-6, interp_tol=None), "min_step"),
    "n1-backward-falling": (
        _forced_decay, (0.4,), 6.0, -1.0, [EventSpec(lambda t, s: 1.0 - s[0], FALLING, False, "y")],
        LOOSE, "clipped"),
    "n2-forward-any-terminal-interp": (
        free_pendulum, (1.0, 0.2), 0.0, 50.0, [EventSpec(lambda t, s: s[1], ANY, True, "rest")],
        StepControl(), "terminal"),
    "n2-backward-falling-nonterminal": (
        free_pendulum, (2.0, 0.0), 0.0, -20.0, [EventSpec(lambda t, s: s[1], FALLING, False, "rest")],
        StepControl(interp_tol=None), "clipped"),
    "n2-forward-max-step": (
        free_pendulum, (1.0, 0.0), 0.0, 10.0, (),
        StepControl(rtol=1e-6, atol=1e-9, max_step=0.05, interp_tol=None), "max_step"),
    "n2-forward-rejected-steps": (
        _van_der_pol, (2.0, 0.0), 0.0, 12.0,
        [EventSpec(lambda t, s: s[0], RISING, False, "up"),
         EventSpec(lambda t, s: s[0], FALLING, False, "down")],
        LOOSE, "rejected"),
    "n3-forward-rising-interp": (
        _lorenz, (1.0, 1.0, 20.0), 0.0, 3.0,
        [EventSpec(lambda t, s: s[0], RISING, False, "x"),
         EventSpec(lambda t, s: s[2] - 40.0, RISING, True, "z")],
        StepControl(rtol=1e-8, atol=1e-10, interp_tol=1e-2), "terminal"),
    "n3-backward-any": (
        _lorenz, (1.0, 1.0, 20.0), 0.0, -0.3, [EventSpec(lambda t, s: s[1] - s[0], ANY, False, "xy")],
        LOOSE, "clipped"),
    "n4-forward-mixed": (
        _pendulum_costate, (0.5, 0.0, 0.2, 1.0), 0.0, 30.0,
        [EventSpec(lambda t, s: s[1], ANY, False, "y0"),
         EventSpec(lambda t, s: s[3] - 1.5, RISING, True, "q")],
        StepControl(interp_tol=None), "events"),
    "n4-backward-any-terminal-interp": (
        _pendulum_costate, (0.5, 0.0, 0.2, 1.0), 0.0, -30.0,
        [EventSpec(lambda t, s: s[3], ANY, True, "switch"),
         EventSpec(lambda t, s: s[1], ANY, False, "y0")],
        StepControl(interp_tol=1e-3), "terminal"),
}


def _counting(rhs):
    tick = itertools.count().__next__

    def counted(t, s):
        tick()
        return rhs(t, s)

    return counted, tick


@pytest.mark.parametrize("case", sorted(STEP_CASES))
def test_step_bit_identical_to_oracle(case):
    rhs, s0, t0, t_limit, events, ctl, feature = STEP_CASES[case]
    got_rhs, got_calls = _counting(rhs)
    want_rhs, want_calls = _counting(rhs)
    got = integrate(got_rhs, s0, t0, t_limit, events, ctl)
    want = oracle_integrate(want_rhs, s0, t0, t_limit, events, ctl)
    assert got.times == want.times
    assert got.states == want.states
    assert got.events == want.events
    assert got.stop_reason == want.stop_reason
    assert got.detail == want.detail
    rhs_calls = got_calls()
    assert rhs_calls == want_calls()

    # The case reaches the path it is listed for.
    if feature == "min_step":
        assert got.stop_reason == STOP_STEP_FAILURE and "below min_step" in got.detail
    elif feature == "clipped":
        assert got.stop_reason == STOP_TIME_LIMIT and got.t_end == t_limit
    elif feature == "terminal":
        assert got.stop_reason == STOP_TERMINAL
    elif feature == "max_step":
        assert max(abs(b - a) for a, b in zip(got.times, got.times[1:])) == pytest.approx(ctl.max_step)
    elif feature == "rejected":
        # 2 rhs calls before the loop and 6 per attempt; without interpolated
        # samples each accepted step adds one sample.
        assert ctl.interp_tol is None
        assert (rhs_calls - 2) // 6 > len(got.times) - 1
    assert len(got.events) > 0 or not events
