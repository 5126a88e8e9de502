import itertools
import math
import random
import re

import pytest
from scipy.optimize import brentq as scipy_brentq

from pendamp.integrator import (
    _A21, _A31, _A32, _A41, _A42, _A43, _A51, _A52, _A53, _A54, _A61, _A62, _A63, _A64, _A65,
    _B1, _B3, _B4, _B5, _B6, _C2, _C3, _C4, _C5, _E1, _E3, _E4, _E5, _E6, _E7,
    ANY,
    FALLING,
    RISING,
    STOP_STEP_FAILURE,
    STOP_TERMINAL,
    STOP_TIME_LIMIT,
    TAYLOR_ORDER,
    TAYLOR_TOL,
    EVENT_TOL,
    EventRecord,
    EventSpec,
    Level,
    StepControl,
    TrajectorySegment,
    _horner,
    _initial_step,
    _make_dense,
    _taylor,
    brentq,
    integrate,
    pendulum_arc,
)
from pendamp.dynamics import energy_xy, pendulum_rhs
from oracles import TIGHT, oracle_canonical_series, oracle_free_oscillation_period


def free_pendulum(t, s):
    return (s[1], -math.sin(s[0]))


def test_energy_conservation_free_pendulum():
    seg = integrate(free_pendulum, (1.0, 0.0), 0.0, 20.0)
    e0 = energy_xy(1.0, 0.0)
    drift = max(abs(energy_xy(*s) - e0) for s in seg.states)
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
    period = oracle_free_oscillation_period(e0).value
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
    period = oracle_free_oscillation_period(1.0 - math.cos(1.0)).value
    seg = integrate(free_pendulum, (1.0, 0.0), 0.0, 2.0 * period * 1.01, [ev])
    assert seg.stop_reason == STOP_TIME_LIMIT
    assert len(seg.events) == 4  # two zeros per period
    assert all(r.label == "y0" for r in seg.events)
    for r in seg.events:
        assert abs(r.state[1]) <= 1e-11


def test_event_value_localized_below_tolerance():
    ev = EventSpec(lambda t, s: s[0] + 0.5, ANY, True, "xcross")
    seg = integrate(free_pendulum, (1.0, 0.0), 0.0, 50.0, [ev])
    assert abs(seg.end_state[0] + 0.5) <= EVENT_TOL
    assert seg.events[-1].residual == abs(seg.end_state[0] + 0.5)


def test_step_failure_reported():
    def blowup(t, s):
        return (s[0] * s[0],)

    seg = integrate(blowup, (1.0,), 0.0, 2.0, ctl=StepControl(max_steps=20000))
    assert seg.stop_reason == STOP_STEP_FAILURE
    assert seg.detail != ""
    assert seg.times[-1] < 1.01  # the pole sits at t = 1


def test_step_budget_ends_the_run():
    # The run stops after max_steps accepted steps, short of t_limit, with the
    # samples it has so far.
    seg = integrate(free_pendulum, (1.0, 0.0), 0.0, 50.0, ctl=StepControl(max_steps=3))
    assert seg.stop_reason == STOP_STEP_FAILURE
    assert len(seg.times) == 4 and seg.t_end < 50.0
    assert seg.detail == f"step budget 3 exhausted at t={seg.t_end}"


def test_rejects_degenerate_time_span():
    with pytest.raises(ValueError):
        integrate(free_pendulum, (1.0, 0.0), 0.0, 0.0)


def test_rejects_non_finite_initial_state():
    with pytest.raises(ValueError, match="non-finite initial state"):
        integrate(free_pendulum, (math.nan, 0.0), 0.0, 1.0)


def test_step_control_validation():
    with pytest.raises(ValueError):
        StepControl(rtol=0.0)
    with pytest.raises(ValueError):
        StepControl(min_step=1.0, max_step=0.5)
    with pytest.raises(TypeError):
        StepControl(interp_tol=1e-4)  # no interpolated samples
    with pytest.raises(TypeError):
        StepControl(event_tol=1e-11)  # residuals are returned, not judged
    with pytest.raises(ValueError):
        EventSpec(lambda t, s: s[0], "sideways", False, "bad")


def oracle_integrate(rhs, s0, t0, t_limit, events=(), ctl=None):
    """Oracle: ``integrate`` with each attempt written as loops over components.

    The stage inputs, the new state and the error norm are built with loops
    over ``range(n)``.  ``integrate`` runs one generated straight-line attempt
    per state dimension instead and must give the same results bit for bit.
    Events are located here by scipy's ``brentq`` on the dense output, each
    with its residual, and those missed over a step that a terminal event
    cuts short are looked for again over the part that is kept.
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
        dense = _make_dense(t, h, y, (k1, k2, k3, k4, k5, k6, k7))

        def crossings(js, t_b, y_b):
            """The crossings over [t, t_b] of the events js, and the events without one."""
            found, quiet = [], []
            for j in js:
                ev = events[j]
                g_b = ev.fn(t_b, y_b)
                gp = g_prev[j]
                crossed = False
                if gp != 0.0:
                    if ev.direction == RISING:
                        crossed = gp < 0.0 <= g_b
                    elif ev.direction == FALLING:
                        crossed = gp > 0.0 >= g_b
                    else:
                        crossed = (gp < 0.0 <= g_b) or (gp > 0.0 >= g_b)
                if not crossed:
                    quiet.append(j)
                    continue
                if g_b == 0.0:
                    t_e = t_b
                else:
                    ta, tb = (t, t_b) if t < t_b else (t_b, t)
                    t_e = scipy_brentq(lambda s: ev.fn(s, dense(s)), ta, tb, xtol=1e-14, rtol=8.9e-16)
                if abs(t_e - t0) >= dead_band:
                    found.append((t_e, j))
            return found, quiet

        hits, quiet = crossings(range(len(events)), t_new, y_new)
        # A terminal crossing keeps only the step's part before it, where an
        # event quiet over the whole step may have crossed and crossed back.
        cut = t_new
        while True:
            hits.sort(key=lambda p: direction * p[0])
            first_terminal = [t_e for t_e, j in hits if events[j].terminal][:1]
            if not first_terminal or first_terminal[0] == cut or not quiet:
                break
            cut = first_terminal[0]
            more, quiet = crossings(quiet, cut, dense(cut))
            hits += more
        g_prev = [ev.fn(t_new, y_new) for ev in events]

        terminal_hit = None
        for t_e, j in hits:
            ev = events[j]
            state_e = dense(t_e)
            recs.append(EventRecord(t_e, state_e, ev.label, abs(ev.fn(t_e, state_e))))
            if ev.terminal:
                terminal_hit = (t_e, state_e)
                break

        end_t, end_y = (t_new, y_new) if terminal_hit is None else terminal_hit
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


def _drift(t, s):
    return (1.0,)


def _van_der_pol(t, s):
    return (s[1], 8.0 * (1.0 - s[0] * s[0]) * s[1] - s[0])


def _lorenz(t, s):
    return (10.0 * (s[1] - s[0]), s[0] * (28.0 - s[2]) - s[1], s[0] * s[1] - 8.0 / 3.0 * s[2])


def _pendulum_costate(t, s):
    # pendulum with a smooth control on its costate, and the costate flow
    u = 0.3 * s[3] / (1.0 + s[3] * s[3])
    return (s[1], -math.sin(s[0]) + u, s[3] * math.cos(s[0]), -s[2])


LOOSE = StepControl(rtol=1e-6, atol=1e-9)

# id: (rhs, s0, t0, t_limit, events, ctl, what the case must exercise)
STEP_CASES = {
    "n1-forward-min-step-failure": (
        _blowup, (1.0,), 0.0, 2.0, (), StepControl(min_step=1e-6), "min_step"),
    "n1-backward-falling": (
        _forced_decay, (0.4,), 6.0, -1.0, [EventSpec(lambda t, s: 1.0 - s[0], FALLING, False, "y")],
        LOOSE, "clipped"),
    "n1-forward-rebracket": (
        _drift, (0.0,), 0.0, 5.0,
        [EventSpec(lambda t, s: (s[0] - 1.2) ** 2 - 0.0025, ANY, False, "dip"),
         EventSpec(lambda t, s: s[0] - 1.2, RISING, True, "stop")],
        StepControl(), "rebracket"),
    "n2-forward-any-terminal": (
        free_pendulum, (1.0, 0.2), 0.0, 50.0, [EventSpec(lambda t, s: s[1], ANY, True, "rest")],
        StepControl(), "terminal"),
    "n2-backward-falling-nonterminal": (
        free_pendulum, (2.0, 0.0), 0.0, -20.0, [EventSpec(lambda t, s: s[1], FALLING, False, "rest")],
        StepControl(), "clipped"),
    "n2-forward-max-step": (
        free_pendulum, (1.0, 0.0), 0.0, 10.0, (),
        StepControl(rtol=1e-6, atol=1e-9, max_step=0.05), "max_step"),
    "n2-forward-rejected-steps": (
        _van_der_pol, (2.0, 0.0), 0.0, 12.0,
        [EventSpec(lambda t, s: s[0], RISING, False, "up"),
         EventSpec(lambda t, s: s[0], FALLING, False, "down")],
        LOOSE, "rejected"),
    "n3-forward-rising": (
        _lorenz, (1.0, 1.0, 20.0), 0.0, 3.0,
        [EventSpec(lambda t, s: s[0], RISING, False, "x"),
         EventSpec(lambda t, s: s[2] - 40.0, RISING, True, "z")],
        StepControl(rtol=1e-8, atol=1e-10), "terminal"),
    "n3-backward-any": (
        _lorenz, (1.0, 1.0, 20.0), 0.0, -0.3, [EventSpec(lambda t, s: s[1] - s[0], ANY, False, "xy")],
        LOOSE, "clipped"),
    "n4-forward-mixed": (
        _pendulum_costate, (0.5, 0.0, 0.2, 1.0), 0.0, 30.0,
        [EventSpec(lambda t, s: s[1], ANY, False, "y0"),
         EventSpec(lambda t, s: s[3] - 1.5, RISING, True, "q")],
        StepControl(), "events"),
    "n4-backward-any-terminal": (
        _pendulum_costate, (0.5, 0.0, 0.2, 1.0), 0.0, -30.0,
        [EventSpec(lambda t, s: s[3], ANY, True, "switch"),
         EventSpec(lambda t, s: s[1], ANY, False, "y0")],
        StepControl(), "terminal"),
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
    elif feature == "rebracket":
        # The dip crosses at 1.15 and back at 1.25, in the step that the stop
        # at 1.2 ends: its first crossing is found over the part kept.
        assert [r.label for r in got.events] == ["dip", "stop"]
        assert got.times[-2] < got.events[0].t
    elif feature == "rejected":
        # 2 rhs calls before the loop and 6 per attempt; each accepted step
        # adds one sample.
        assert (rhs_calls - 2) // 6 > len(got.times) - 1
    assert len(got.events) > 0 or not events


# ------------------------------------------------------------ Taylor arcs

REST = Level(1, (0.0,))
SECTION = Level(0, (math.pi,), 2.0 * math.pi)  # x = pi (mod 2 pi)


def _rest(direction, terminal):
    return EventSpec.at_level(REST, direction, terminal, "rest")


def _section():
    return EventSpec.at_level(SECTION, ANY, False, "section")


def test_taylor_first_order_is_the_field():
    series = _taylor()
    rng = random.Random(5)
    for _ in range(2000):
        x, y, pull = rng.uniform(-50.0, 50.0), rng.uniform(-4.0, 4.0), rng.uniform(-0.5, 0.5)
        xs, ys, rho = series(x, y, pull, math.cos(x))
        assert (xs[0], ys[0]) == (x, y)
        assert (xs[1], ys[1]) == pendulum_rhs(pull)(0.0, (x, y))
        assert 0.0 < rho < math.inf


def test_series_from_the_first_integral_matches_the_sin_cos_recurrences():
    # series builds cos x from the arc's first integral; the oracle runs the
    # recurrences of sin x and cos x.  Dense inputs: x_0 near 0, where
    # sin x_0 is small next to pull, and |pull| up to 0.5.
    series = _taylor()
    rng = random.Random(11)
    for _ in range(3000):
        x = rng.choice([rng.uniform(-50.0, 50.0), rng.uniform(-1e-3, 1e-3), rng.uniform(-1e-9, 1e-9),
                        0.0])
        y = rng.choice([rng.uniform(-4.0, 4.0), rng.uniform(-1e-6, 1e-6)])
        pull = rng.choice([rng.uniform(-0.5, 0.5), 0.5, -0.5])
        xs, ys, _ = series(x, y, pull, math.cos(x))
        ref = oracle_canonical_series((x, y, 0.0, 0.0), pull, TAYLOR_ORDER)
        for got, row in ((xs, [r[0] for r in ref]), (ys, [r[1] for r in ref])):
            scale = max(abs(v) for v in row)
            assert max(abs(a - b) for a, b in zip(got, row)) <= 1e-15 * scale


def test_crossed_level_is_the_first_one_ahead():
    three_pi = math.pi + 2.0 * math.pi
    assert SECTION.crossed(three_pi - 0.4, three_pi + 0.3) == three_pi
    assert SECTION.crossed(-math.pi + 0.2, -math.pi - 0.1) == -math.pi  # backward
    assert SECTION.crossed(1.0, 1.5) == math.pi  # the next one ahead, even past the end
    # A level a few ulps behind the start still counts: the event function's
    # rounded sign can put the start before it.
    assert SECTION.crossed(math.nextafter(three_pi, 10.0), 10.0) == three_pi
    assert SECTION.crossed(three_pi + 1e-9, 10.0) == three_pi + 2.0 * math.pi
    a = math.asin(0.2)
    band = Level(0, (a, -a), math.pi)  # sin^2 x = 0.04
    assert band.crossed(0.0, 0.3) == a
    assert band.crossed(0.0, -0.3) == -a
    assert band.crossed(math.pi - 0.01, math.pi - 0.3) == pytest.approx(math.pi - a, abs=1e-15)
    assert REST.crossed(0.5, -0.5) == REST.crossed(-0.5, 0.5) == 0.0


@pytest.mark.parametrize("s0,t0,t_limit,first", [
    ((math.pi + 0.5, 2.2), 0.0, 8.0, 3.0 * math.pi), ((0.0, 2.5), 5.0, -5.0, -math.pi),
], ids=["forward", "backward"])
def test_pendulum_arc_locates_the_crossed_level_of_a_periodic_family(s0, t0, t_limit, first):
    # A rotation crosses the section x = pi (mod 2 pi) at one level after
    # another: forward in time across 3 pi, 5 pi, ..., and backward in time
    # across -pi, -3 pi, ...  Each event sits on its level.
    events = [_section()]
    got = pendulum_arc(0.0, s0, t0, t_limit, events)
    want = integrate(pendulum_rhs(0.0), s0, t0, t_limit, events, TIGHT)
    assert len(got.events) == len(want.events) >= 2
    step = 2.0 * math.pi if t_limit > t0 else -2.0 * math.pi
    for k, (a, b) in enumerate(zip(got.events, want.events)):
        assert a.t == pytest.approx(b.t, abs=1e-9)
        assert a.state[0] == pytest.approx(first + k * step, abs=1e-12)
        assert a.residual <= EVENT_TOL


def test_pendulum_arc_rejects_an_event_without_a_level():
    with pytest.raises(ValueError, match="^event 'y0' is not a level of x or y: pendulum_arc locates "
                                         r"its events on the step polynomial \(EventSpec.at_level\)$"):
        pendulum_arc(0.0, (1.0, 0.0), 0.0, 1.0, [EventSpec(lambda t, s: s[1], ANY, True, "y0")])
    with pytest.raises(ValueError, match="^event 'z' is not a level of x or y"):
        pendulum_arc(0.0, (1.0, 0.0), 0.0, 1.0, [EventSpec.at_level(Level(2, (0.0,)), label="z")])


@pytest.mark.parametrize("values,period,message", [
    ((), None, "a level event needs at least one level"),
    ((0.0,), 0.0, "the period of a level event must be positive and finite, got 0.0"),
    ((0.0,), math.inf, "the period of a level event must be positive and finite, got inf"),
    ((0.0,), math.nan, "the period of a level event must be positive and finite, got nan"),
], ids=["no-level", "period0", "period-inf", "period-nan"])
def test_level_rejects_no_levels_and_a_bad_period(values, period, message):
    with pytest.raises(ValueError) as exc:
        Level(0, values, period)
    assert str(exc.value) == message


# id: (pull, s0, t0, t_limit, events); each runs to its time limit or a rest.
ARC_CASES = {
    "coast": (0.0, (1.0, 0.5), 0.0, 30.0, [_rest(ANY, False)]),
    "coast-backward": (0.0, (2.0, -1.0), 5.0, -25.0, [_rest(FALLING, False)]),
    "dry-to-rest": (-0.05, (-2.5, 0.0), 0.0, 50.0, [_rest(ANY, True)]),
    "rotation-with-sections": (
        -0.05, (math.pi, 2.5), 0.0, 200.0,
        [_rest(ANY, True), _section()]),
}


@pytest.mark.parametrize("case", sorted(ARC_CASES))
def test_pendulum_arc_matches_tight_dp5(case):
    pull, s0, t0, t_limit, events = ARC_CASES[case]
    got = pendulum_arc(pull, s0, t0, t_limit, events)
    want = integrate(pendulum_rhs(pull), s0, t0, t_limit, events, TIGHT)
    assert got.stop_reason == want.stop_reason
    assert got.t_end == pytest.approx(want.t_end, abs=1e-9)
    assert got.end_state == pytest.approx(want.end_state, abs=1e-9)
    assert [r.label for r in got.events] == [r.label for r in want.events]
    assert got.events
    for a, b in zip(got.events, want.events):
        assert a.t == pytest.approx(b.t, abs=1e-9)
        assert a.residual <= EVENT_TOL
    # Taylor steps are long: several times fewer samples than the reference.
    assert 4 * len(got.times) < len(want.times)


def test_pendulum_arc_rebrackets_events_before_a_terminal_event():
    # In one Taylor step this arc crosses the section x = pi at speed 4.4e-4,
    # comes to rest just beyond it, and is back across the section by the
    # step's end.  The section is found on the part of the step before the rest.
    events = [_rest(ANY, True), _section()]
    s0, pull = (3.1408305954792013, 0.00198425228459135), -0.002072739411558288
    got = pendulum_arc(pull, s0, 0.0, 50.0, events)
    want = integrate(pendulum_rhs(pull), s0, 0.0, 50.0, events, TIGHT)
    assert len(got.times) == 2  # the case needs both crossings in one step
    assert [r.label for r in got.events] == [r.label for r in want.events] == ["section", "rest"]
    for a, b in zip(got.events, want.events):
        assert a.t == pytest.approx(b.t, abs=1e-9)


def test_pendulum_arc_steps_and_limits():
    # No step of this arc drifts off the first integral, so every step is the
    # one of Jorba and Zou's rule at its start, but the last, which is cut to
    # end on the time limit.
    pull = 0.1
    seg = pendulum_arc(pull, (0.5, 0.0), 0.0, 10.0)
    assert seg.stop_reason == STOP_TIME_LIMIT and seg.t_end == 10.0
    series = _taylor()
    rhos = [series(x, y, pull, math.cos(x))[2] for x, y in seg.states[:-1]]
    steps = [b - a for a, b in zip(seg.times, seg.times[1:])]
    assert len(steps) > 5
    assert steps[:-1] == pytest.approx(rhos[:-1], rel=1e-12)
    assert 0.0 < steps[-1] <= rhos[-1]
    assert seg.events == [] and seg.event_residual == 0.0
    with pytest.raises(ValueError, match="t_limit must differ from t0"):
        pendulum_arc(0.0, (1.0, 0.0), 1.0, 1.0)
    with pytest.raises(ValueError, match="non-finite initial state"):
        pendulum_arc(0.0, (math.inf, 0.0), 0.0, 1.0)


@pytest.mark.parametrize("speed", [1e200, 1e300])
def test_pendulum_arc_overflow_is_a_step_failure(speed):
    # The products in the coefficient recurrences overflow.
    seg = pendulum_arc(0.0, (0.0, speed), 0.0, 1.0)
    assert seg.stop_reason == STOP_STEP_FAILURE
    assert seg.detail == "Taylor series overflowed at t=0.0"
    assert seg.times == [0.0]


@pytest.mark.parametrize("d", [0.0, 1e-12, 1e-7, 1e-4])
def test_pendulum_arc_halves_a_step_that_drifts_off_the_first_integral(d):
    # From rest at x = pi/2 - d the orders 15 and 16 that Jorba and Zou's
    # rule reads almost vanish, and its step is too long (at d = 0 it
    # lands at x = 42.9).  The first integral's drift rejects that step,
    # and each halving sums the same series again.  The step taken is the
    # rule's step halved, and its end lies at the TAYLOR_TOL scale from the
    # same span crossed in 2,000 substeps.
    pull, x0 = 0.1, math.pi / 2 - d
    series = _taylor()
    rho = series(x0, 0.0, pull, math.cos(x0))[2]
    seg = pendulum_arc(pull, (x0, 0.0), 0.0, 50.0)
    step = seg.times[1] - seg.times[0]
    halvings = math.log2(rho / step)
    assert halvings >= 1.0 and halvings == int(halvings)
    x, y = x0, 0.0
    for _ in range(2000):
        xs, ys, _ = series(x, y, pull, math.cos(x))
        x, y = _horner(xs, step / 2000), _horner(ys, step / 2000)
    assert seg.states[1] == pytest.approx((x, y), rel=0.0, abs=10.0 * TAYLOR_TOL)


def test_pendulum_arc_at_rest_point_takes_one_step():
    # At the equilibrium sin x = pull every coefficient past the first is zero,
    # so the step rule bounds nothing and one step reaches the limit.
    pull = 0.5
    seg = pendulum_arc(pull, (math.asin(pull), 0.0), 0.0, 100.0)
    assert len(seg.times) == 2
    assert seg.end_state == pytest.approx((math.asin(pull), 0.0), abs=1e-15)


# brentq is a port of scipy's C brentq: on every input it must return scipy's
# float, or raise scipy's exception with scipy's message.
BRENTQ_TOLS = [(1e-14, 8.9e-16), (1e-12, 8.9e-16)]  # the (xtol, rtol) pairs the package uses


def _root_or_error(solver, f, a, b, **kw):
    try:
        x = solver(f, a, b, **kw)
    except (ValueError, RuntimeError) as exc:
        return type(exc), str(exc)
    return x, math.copysign(1.0, x)  # the sign bit tells -0.0 from 0.0


def _random_smooth(rng):
    c0, c1, c2, c3 = (rng.uniform(-2.0, 2.0) for _ in range(4))
    kind = rng.randrange(4)
    if kind == 0:
        return lambda x: c0 + c1 * x + c2 * x * x + c3 * x ** 3
    if kind == 1:
        return lambda x: math.sin(c0 * x + c1) + 0.3 * c2
    if kind == 2:
        return lambda x: math.exp(c0 * x) - 1.5 + c1
    scale = 10.0 ** rng.uniform(-200.0, 200.0)
    return lambda x: scale * (math.tanh(c0 * (x - c1)) + 0.1 * c2)


def test_brentq_equals_scipy_on_random_brackets():
    rng = random.Random(20240613)
    roots = 0
    for _ in range(1500):
        f = _random_smooth(rng)
        a, b = rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0)
        for xtol, rtol in BRENTQ_TOLS:
            for lo, hi in ((a, b), (b, a)):
                want = _root_or_error(scipy_brentq, f, lo, hi, xtol=xtol, rtol=rtol)
                assert _root_or_error(brentq, f, lo, hi, xtol=xtol, rtol=rtol) == want
                roots += isinstance(want[0], float)
    assert roots > 2000  # most brackets hold a root; the rest check the sign error


def _flat_cubic(x):
    return (x - 1.0 / 3.0) ** 3


@pytest.mark.parametrize("f,a,b,maxiter", [
    (lambda x: x, 0.0, 2.0, 100),  # root at a
    (lambda x: x - 2.0, 0.0, 2.0, 100),  # root at b
    (lambda x: x, -0.0, 1.0, 100),  # signed zero: returns -0.0
    (lambda x: -x, 1.0, -0.0, 100),
    (lambda x: 1e-200 * (x - 0.3), 0.0, 1.0, 100),  # f(a) * f(b) underflows to -0
    # here the extrapolation's denominator underflows to 0: C bisects on the
    # non-finite trial step, the port on ZeroDivisionError
    (lambda x: 1e-200 * (x ** 3 - 0.2), 0.0, 1.0, 100),
    # the flat cubic takes 119-139 iterations (100 do not converge, below)
    (_flat_cubic, 0.0, 1.0, 200),
    (_flat_cubic, 1.0, -2.0, 200),
], ids=["root-at-a", "root-at-b", "signed-zero", "signed-zero-at-b", "underflow-product",
        "underflow-denominator", "flat-cubic", "flat-cubic-reversed"])
@pytest.mark.parametrize("xtol,rtol", BRENTQ_TOLS)
def test_brentq_equals_scipy_on_edge_cases(f, a, b, maxiter, xtol, rtol):
    want = _root_or_error(scipy_brentq, f, a, b, xtol=xtol, rtol=rtol, maxiter=maxiter)
    assert isinstance(want[0], float)
    assert _root_or_error(brentq, f, a, b, xtol=xtol, rtol=rtol, maxiter=maxiter) == want


@pytest.mark.parametrize("f,a,b,kw,message", [
    (lambda x: x * x + 1.0, -1.0, 2.0, {}, "must have different signs"),
    (lambda x: math.nan, 0.0, 1.0, {}, r"value at x=0\.0 is NaN"),
    (lambda x: x - 0.5 if x != 1.0 else math.nan, 0.0, 1.0, {}, r"value at x=1\.0 is NaN"),
    (lambda x: math.nan if 0.4 < x < 0.6 else x - 0.5, 0.0, 1.0, {}, "is NaN"),  # mid-iteration
    (lambda x: math.cos(x) - x, 0.0, 1.0, {"maxiter": 3}, "Failed to converge after 3 iterations"),
    (_flat_cubic, 0.0, 1.0, {"xtol": 1e-14, "rtol": 8.9e-16}, "Failed to converge after 100 "),
    (lambda x: math.cos(x) - x, 0.0, 1.0, {"xtol": 0.0}, r"xtol too small \(0 <= 0\)"),
    (lambda x: math.cos(x) - x, 0.0, 1.0, {"xtol": -1e-3}, "xtol too small"),
    (lambda x: math.cos(x) - x, 0.0, 1.0, {"rtol": 1e-16}, r"rtol too small \(1e-16 < 8\.88178e-16\)"),
    (lambda x: math.cos(x) - x, 0.0, 1.0, {"maxiter": -1}, "maxiter must be >= 0"),
], ids=["no-sign-change", "nan-at-a", "nan-at-b", "nan-inside", "maxiter", "flat-cubic", "xtol-zero",
        "xtol-negative", "rtol-too-small", "maxiter-negative"])
def test_brentq_errors_equal_scipy(f, a, b, kw, message):
    want = _root_or_error(scipy_brentq, f, a, b, **kw)
    got = _root_or_error(brentq, f, a, b, **kw)
    assert got == want
    assert got[0] in (ValueError, RuntimeError)
    assert re.search(message, got[1])
