import math

import pytest

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
