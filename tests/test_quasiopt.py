import math

import numpy as np
import pytest

from pendamp import quasiopt
from pendamp.dynamics import ZONE_FACTOR, Params, PhaseState, energy_xy, pendulum_rhs
from pendamp.integrator import (EVENT_TOL, STOP_TIME_LIMIT, StepControl, TrajectorySegment, integrate,
                                pendulum_arc)
from pendamp.limits import (
    RegimeExit, StandstillCapture, poincare_high, poincare_iterates, poincare_low,
)
from pendamp.quasiopt import (
    MODE_CAPTURE,
    MODE_COAST,
    MODE_DRY,
    MODE_UPPER,
    STOP_ARC_LIMIT,
    STOP_BUDGET,
    STOP_STALL,
    STOP_STEP_FAILURE,
    CapturePolicy,
    DampingNonConvergence,
    simulate_damping,
    sweep_scaling,
)
from oracles import oracle_pendulum_arc


K_CAP_BOUND = "k_cap must be finite and >= 1/(1 + sqrt(1 - eps^2)) = 0.501256 at eps=0.1"
ARC_LIMIT_OVERFLOW = "is too large: the arc limit 8 budget / pi overflows"


def no_integration(*args, **kw):
    raise AssertionError("an arc was integrated")


class TestDryFrictionControl:
    def test_signs(self):
        # Inside every dry-friction arc the control is the steepest descent
        # -sign(y), checked on a fixed time grid (every 0.05 time units, as
        # far as 0.025 from the arc's ends) rather than at the step ends.
        eps = 0.1
        res = simulate_damping(PhaseState(1.0, 2.0), Params(eps))
        inside = 0
        for e in res.phase_log:
            if e.mode == MODE_DRY:
                for t in np.arange(e.t_start + 0.025, e.t_end - 0.025, 0.05):
                    y = pendulum_arc(eps * e.control, e.start, e.t_start, float(t)).end_state[1]
                    inside += 1
                    assert e.control * y < 0.0
        assert inside > 100


class TestSimulateDamping:
    def test_origin_is_immediate_capture(self):
        res = simulate_damping(PhaseState(0.0, 0.0), Params(0.1))
        assert res.damping_time == 0.0
        assert res.switch_count == 0
        assert res.phase_log[-1].mode == MODE_CAPTURE

    def test_rejects_large_epsilon(self):
        with pytest.raises(ValueError, match="quasioptimal regime needs eps < 0.5, got 0.8"):
            simulate_damping(PhaseState(1.0, 0.0), Params(0.8))

    def test_rejects_merged_standstill_zones(self, monkeypatch):
        # At eps = 0.5 the zones |sin x|, |y| < 2 eps touch; the run is
        # rejected before any integration.
        def no_integration(*args, **kw):
            raise AssertionError("integrated before rejecting eps")

        monkeypatch.setattr(quasiopt, "pendulum_arc", no_integration)
        with pytest.raises(ValueError, match=r"needs eps < 0\.5, got 0\.5: the standstill zones "
                                             r"\|sin x\|, \|y\| < 2\.0 eps are not disjoint"):
            simulate_damping(PhaseState(-2.5, 0.0), Params(0.5))

    def test_universal_lower_bound(self):
        for eps, p0 in ((0.2, PhaseState(-3.0, 0.0)), (0.1, PhaseState(-2.0, 0.0)),
                        (0.1, PhaseState(math.pi, 1.0))):
            res = simulate_damping(p0, Params(eps), keep_samples=False)
            assert res.damping_time >= math.sqrt(2.0 * energy_xy(p0.x, p0.y)) / eps

    def test_energy_monotone_on_dry_arcs(self):
        res = simulate_damping(PhaseState(-3.0, 0.0), Params(0.1), keep_samples=False)
        for entry in res.phase_log:
            if entry.mode == MODE_DRY:
                e0 = energy_xy(*entry.start)
                e1 = energy_xy(*entry.end)
                assert e1 <= e0 + 1e-9

    def test_rest_point_energy_drop_relation(self):
        # E(p) - E(p') = eps (x + x') between consecutive rest amplitudes.
        eps = 0.1
        res = simulate_damping(PhaseState(-2.8, 0.0), Params(eps), keep_samples=False)
        amps = [a for _, a in res.rest_amplitudes]
        assert len(amps) >= 4
        for a, b in zip(amps, amps[1:]):
            assert abs(math.cos(b) - math.cos(a) - eps * (a + b)) <= 1e-7

    def test_rest_sequence_matches_low_map(self):
        eps = 0.05
        p = Params(eps)
        res = simulate_damping(PhaseState(-3.0, 0.0), p, keep_samples=False)
        amps = [a for _, a in res.rest_amplitudes]
        x = amps[0]
        worst = 0.0
        for obs in amps[1:]:
            try:
                x = poincare_low(x, p)
            except StandstillCapture:
                break
            worst = max(worst, abs(x - obs))
        assert worst <= 1e-4

    def test_section_speeds_match_high_map(self):
        eps = 0.05
        p = Params(eps)
        res = simulate_damping(PhaseState(math.pi, 3.0), p, keep_samples=False)
        assert len(res.section_speeds) >= 2
        y = 3.0
        worst = 0.0
        for _, obs in res.section_speeds:
            try:
                y = poincare_high(y, p)
            except RegimeExit:
                break
            worst = max(worst, abs(abs(y) - abs(obs)))
        assert worst <= 5e-3

    def test_energy_drop_rate_constant(self):
        # E(p) - E(p') >= c eps sqrt(E(p)) with a uniform measured constant.
        eps = 0.08
        res = simulate_damping(PhaseState(-3.0, 0.0), Params(eps), keep_samples=False)
        amps = [a for _, a in res.rest_amplitudes]
        cs = []
        for a, b in zip(amps, amps[1:]):
            e_a = 1.0 - math.cos(a)
            drop = (1.0 - math.cos(a)) - (1.0 - math.cos(b))
            cs.append(drop / (eps * math.sqrt(e_a)))
        assert min(cs) >= 2.0

    def test_switch_count_matches_rest_structure(self):
        res = simulate_damping(PhaseState(-2.0, 0.0), Params(0.1), keep_samples=False)
        # one switching per interior rest point of the dry descent
        assert res.switch_count == len(res.rest_amplitudes) - 1

    def test_nonconvergence_reported_with_log(self):
        with pytest.raises(DampingNonConvergence) as exc:
            simulate_damping(PhaseState(-3.0, 0.0), Params(0.05),
                             CapturePolicy(budget_factor=1.0), keep_samples=False)
        assert exc.value.result is not None
        assert exc.value.result.phase_log

    def test_budget_stop_names_the_budget(self):
        with pytest.raises(DampingNonConvergence) as exc:
            simulate_damping(PhaseState(-2.8, 0.0), Params(0.2), CapturePolicy(budget_factor=1.0))
        assert exc.value.reason == STOP_BUDGET
        assert str(exc.value) == "no capture within budget 5.0 at eps=0.2"
        res = exc.value.result
        assert res.damping_time >= 5.0
        assert res.trajectory.stop_reason == STOP_BUDGET

    def test_stall_outside_a_narrow_zone_is_named(self):
        # Below eps = 5e-10 the rest test |y| < 1e-9 is wider than the zone
        # |y| < 2 eps: this start counts as at rest, outside the zones, where
        # |sin x| <= eps and dry friction holds it.
        with pytest.raises(DampingNonConvergence) as exc:
            simulate_damping(PhaseState(5e-11, 5e-10), Params(1e-10))
        assert exc.value.reason == STOP_STALL
        assert str(exc.value).startswith("stalled at rest at x=5e-11, outside the zones")
        assert "at t=0.0 of budget" in str(exc.value)
        res = exc.value.result
        assert res.damping_time == 0.0
        assert res.terminal_state == PhaseState(5e-11, 5e-10)
        assert res.phase_log == []
        assert res.trajectory.stop_reason == STOP_STALL

    def test_step_failure_stops_the_run(self):
        # The first Taylor series from speed 1e200 overflows.  The run stops
        # on that arc and says so, instead of repeating it up to the arc limit.
        with pytest.raises(DampingNonConvergence) as exc:
            simulate_damping(PhaseState(0.0, 1e200), Params(0.1))
        assert exc.value.reason == STOP_STEP_FAILURE
        assert str(exc.value) == "step failure: Taylor series overflowed at t=0.0 at eps=0.1"
        res = exc.value.result
        assert res.stats.arcs == 1 and res.stats.steps == 0
        assert res.terminal_state == PhaseState(0.0, 1e200)
        assert res.trajectory.stop_reason == STOP_STEP_FAILURE

    def test_a_failed_coast_is_logged_as_a_coast(self, monkeypatch):
        # The coast from (0, 1e200) to the section fails at its first step, at
        # the bottom and far above the zones: a coast, not an upper-zone
        # maneuver.
        with pytest.raises(DampingNonConvergence) as exc:
            simulate_damping(PhaseState(0.0, 1e200), Params(0.1))
        assert [(e.mode, e.control, e.start, e.end) for e in exc.value.result.phase_log] == [
            (MODE_COAST, 0.0, (0.0, 1e200), (0.0, 1e200))]

        # A coast that runs out of its budget before the section is one.
        def creeping_arc(pull, s0, t0, t_limit, events=()):
            return TrajectorySegment([t0, t_limit], [tuple(s0)] * 2, [], STOP_TIME_LIMIT)

        monkeypatch.setattr(quasiopt, "pendulum_arc", creeping_arc)
        with pytest.raises(DampingNonConvergence) as exc:
            simulate_damping(PhaseState(0.0, 3.0), Params(0.1))
        assert exc.value.reason == STOP_BUDGET
        assert {e.mode for e in exc.value.result.phase_log} == {MODE_UPPER}

    @pytest.mark.parametrize("start,arcs", [((-2.5, 0.0), 89), ((math.pi - 0.01, 0.0), 90)],
                             ids=["dry-arcs", "coast-and-push"])
    def test_arc_limit_counts_arcs(self, monkeypatch, start, arcs):
        # Arcs that end at once, short of every event, never reach the budget.
        # At budget 10 the limit is int(8 * 10 / pi) + 64 = 89 arcs.  From
        # rest outside the zones each pass runs one dry arc.  From rest near
        # the saddle each pass runs a coast and a push, so the limit, checked
        # between passes, stops the run at 90.
        def creeping_arc(pull, s0, t0, t_limit, events=()):
            return TrajectorySegment([t0, t0 + 1e-9], [tuple(s0)] * 2, [], STOP_TIME_LIMIT)

        monkeypatch.setattr(quasiopt, "pendulum_arc", creeping_arc)
        with pytest.raises(DampingNonConvergence) as exc:
            simulate_damping(PhaseState(*start), Params(0.1), CapturePolicy(budget_factor=1.0))
        assert exc.value.reason == STOP_ARC_LIMIT
        res = exc.value.result
        assert res.stats.arcs == len(res.phase_log) == arcs
        assert str(exc.value) == (f"no capture after {res.stats.arcs} arcs, at t=0.0 of budget 10.0"
                                  " at eps=0.1")

    def test_failed_upper_coast_makes_no_push(self, monkeypatch):
        # At rest near the saddle the coast is followed by a push arc only
        # when it stalls, not when its step fails.
        arcs = []

        def failing_arc(pull, s0, t0, t_limit, events=()):
            arcs.append(pull)
            return TrajectorySegment([t0], [tuple(s0)], [], STOP_STEP_FAILURE, "no step")

        monkeypatch.setattr(quasiopt, "pendulum_arc", failing_arc)
        with pytest.raises(DampingNonConvergence, match="^step failure: no step at eps=0.1$"):
            simulate_damping(PhaseState(math.pi - 0.01, 0.0), Params(0.1))
        assert arcs == [0.0]

    @pytest.mark.parametrize("policy,message", [
        (CapturePolicy(budget_factor=math.nan), "budget_factor must be positive and finite, got nan"),
        (CapturePolicy(budget_factor=math.inf), "budget_factor must be positive and finite, got inf"),
        (CapturePolicy(budget_factor=-1.0), "budget_factor must be positive and finite, got -1.0"),
        (CapturePolicy(budget_factor=0.0), "budget_factor must be positive and finite, got 0.0"),
        (CapturePolicy(budget_factor=1e308), f"budget budget_factor / eps = inf at eps=0.1 "
                                             f"{ARC_LIMIT_OVERFLOW}"),
        (CapturePolicy(budget_factor=1e307), f"budget budget_factor / eps = 1e+308 at eps=0.1 "
                                             f"{ARC_LIMIT_OVERFLOW}"),
        (CapturePolicy(k_cap=-1.0), f"{K_CAP_BOUND}, got -1.0"),
        (CapturePolicy(k_cap=math.nan), f"{K_CAP_BOUND}, got nan"),
        (CapturePolicy(k_cap=math.inf), f"{K_CAP_BOUND}, got inf"),
        (CapturePolicy(k_cap=0.5), f"{K_CAP_BOUND}, got 0.5"),
    ], ids=["budget-nan", "budget-inf", "budget-1", "budget0", "budget-overflow", "arc-limit-overflow",
            "k-1", "k-nan", "k-inf", "k0.5"])
    def test_capture_policy_is_checked_before_any_integration(self, monkeypatch, policy,
                                                                message):
        monkeypatch.setattr(quasiopt, "pendulum_arc", no_integration)
        with pytest.raises(ValueError) as exc:
            simulate_damping(PhaseState(-2.5, 0.0), Params(0.1), policy)
        assert str(exc.value) == message

    def test_k_cap_at_its_bound_is_accepted(self, monkeypatch):
        # A rest at sin x = eps has energy eps^2 / (1 + sqrt(1 - eps^2)).
        eps = 0.1
        k_min = 1.0 / (1.0 + math.sqrt(1.0 - eps * eps))
        assert energy_xy(math.asin(eps), 0.0) == pytest.approx(k_min * eps * eps, rel=1e-12)
        monkeypatch.setattr(quasiopt, "pendulum_arc", no_integration)
        with pytest.raises(AssertionError, match="an arc was integrated"):
            simulate_damping(PhaseState(-2.5, 0.0), Params(eps), CapturePolicy(k_cap=k_min))

    def test_trajectory_samples_kept(self):
        res = simulate_damping(PhaseState(-2.0, 0.0), Params(0.1), keep_samples=True)
        ts = res.trajectory.times
        assert len(ts) > 50
        assert all(a <= b for a, b in zip(ts, ts[1:]))


class TestSweepScaling:
    def test_requires_decreasing_eps(self):
        with pytest.raises(ValueError):
            sweep_scaling(PhaseState(-2.0, 0.0), [0.1, 0.2])

    def test_rows_and_extrapolation(self):
        tab = sweep_scaling(PhaseState(-2.5, 0.0), [0.2, 0.1, 0.05])
        assert [r.epsilon for r in tab.rows] == [0.2, 0.1, 0.05]
        for r in tab.rows:
            assert r.eps_T == pytest.approx(r.epsilon * r.damping_time, abs=1e-12)
            assert r.eps_N == r.epsilon * r.switch_count
        assert tab.extrapolated_eps_T > 0.0
        # scaled quantities approach their limits monotonically from below:
        # captures shave an O(eps) tail off both T and N
        devs = [abs(r.eps_N - tab.extrapolated_eps_N) for r in tab.rows]
        assert devs[0] >= devs[-1]

    def test_csv_export(self, tmp_path):
        # The sweep's CSV export carries the table's rows exactly.
        from pendamp.cli import main
        tab = sweep_scaling(PhaseState(-2.0, 0.0), [0.2, 0.1])
        path = tmp_path / "scaling.csv"
        assert main(["sweep", "--x0", "-2.0", "--y0", "0.0", "--eps-list", "0.2,0.1",
                     "--format", "csv", "--out", str(path)]) == 0
        lines = path.read_text().splitlines()
        assert lines[0] == "epsilon,T,N,epsT,epsN"
        assert len(lines) == 3
        for line, r in zip(lines[1:], tab.rows):
            eps, t, n, eps_t, eps_n = line.split(",")
            assert (float(eps), float(t), int(n), float(eps_t), float(eps_n)) == (
                r.epsilon, r.damping_time, r.switch_count, r.eps_T, r.eps_N)


def test_phase_log_controls():
    res = simulate_damping(PhaseState(math.pi, 2.4), Params(0.1), keep_samples=False)
    modes = {e.mode for e in res.phase_log}
    assert MODE_DRY in modes and MODE_CAPTURE in modes
    for e in res.phase_log:
        if e.mode == MODE_DRY:
            assert e.control in (-1.0, 1.0, -1, 1)
        if e.mode == MODE_CAPTURE:
            assert e.control == 0.0
    assert res.control_at(res.phase_log[0].t_start) == res.phase_log[0].control


def test_saddle_start_uses_push_maneuver():
    # Exactly at the unstable equilibrium the free coast never leaves, so the
    # budgeted push arc must fire and the damping still completes.
    res = simulate_damping(PhaseState(math.pi, 0.0), Params(0.1), keep_samples=False)
    pushes = [e for e in res.phase_log if e.mode == MODE_UPPER and e.control != 0.0]
    assert pushes
    assert res.phase_log[-1].mode == MODE_CAPTURE
    assert res.damping_time >= math.sqrt(2.0 * 2.0) / 0.1 - 1.0


def test_rotating_start_with_negative_speed():
    # Mirror symmetry of the mode machine: clockwise rotation damps too.
    res = simulate_damping(PhaseState(-math.pi, -2.5), Params(0.1), keep_samples=False)
    assert res.phase_log[-1].mode == MODE_CAPTURE


def test_scaled_time_near_separatrix_start():
    # From rest at amplitude 3 the scaled damping time lands within 10% of
    # the quadrature limit already at eps = 0.02.
    from pendamp.limits import tau_minus
    e0 = 1.0 - math.cos(3.0)
    target = tau_minus(e0, 1e-9).value
    tab = sweep_scaling(PhaseState(-3.0, 0.0), [0.2, 0.1, 0.05, 0.02])
    assert abs(tab.rows[-1].eps_T - target) / target <= 0.10


# Rests at and near the quarter turns x = +-pi/2, where cos x = 0: from
# there the two orders that the Taylor step rule reads almost vanish, and
# only the first-integral check of pendulum_arc keeps the first step short.
QUARTER = math.pi / 2
QUARTER_STARTS = ([QUARTER, -QUARTER, math.nextafter(QUARTER, 0.0), math.nextafter(QUARTER, 4.0)]
                  + [QUARTER + s * d for d in (1e-12, 1e-7, 1e-4) for s in (1.0, -1.0)])


@pytest.mark.parametrize("eps,T", [(0.2, 7.91615), (0.1, 19.15150), (0.05, 42.03807)])
def test_rest_at_a_quarter_turn_is_captured(eps, T):
    times = [simulate_damping(PhaseState(x0, 0.0), Params(eps), keep_samples=False).damping_time
             for x0 in QUARTER_STARTS]
    T0 = times[0]
    assert T0 == pytest.approx(T, abs=1e-5)
    assert times[1] == pytest.approx(T0, abs=1e-9)  # the mirror start
    # T is continuous in x0: it moves by less than 20 |x0 - pi/2| there.
    for x0, t in zip(QUARTER_STARTS[2:], times[2:]):
        assert abs(t - T0) <= 20.0 * abs(x0 - QUARTER) + 1e-9


def test_capture_energy_below_threshold():
    # The terminal state of a captured run sits inside the lower zone with
    # energy at most k_cap * eps^2.
    for eps in (0.2, 0.1, 0.05):
        res = simulate_damping(PhaseState(-2.5, 0.0), Params(eps), keep_samples=False)
        assert energy_xy(res.terminal_state.x, res.terminal_state.y) <= 4.0 * eps * eps + 1e-12


# ------------------------------------------------- Taylor arcs and capture

SEPARATRIX_START = ((math.pi, 2.4529194207252676), 0.002072739411558288)


def _capture_gap(s, eps, k_cap=4.0):
    """max(|y| - thr, |sin x| - thr, E - k_cap eps^2, -cos x): <= 0 exactly in
    the capture set."""
    x, y = s
    thr = ZONE_FACTOR * eps
    return max(abs(y) - thr, abs(math.sin(x)) - thr, energy_xy(x, y) - k_cap * eps * eps,
               -math.cos(x))


def _recording_arcs(monkeypatch):
    segs = []
    arc = quasiopt.pendulum_arc

    def recording(*args, **kw):
        segs.append(arc(*args, **kw))
        return segs[-1]

    monkeypatch.setattr(quasiopt, "pendulum_arc", recording)
    return segs


def test_every_event_vanishes_and_changes_sign_at_each_of_its_levels(monkeypatch):
    # The events of the mode machine are levels of x or y, and their event
    # functions are derived from the levels: each vanishes at every level
    # (within rounding of the level's value) and changes sign across it.
    events = {}
    arc = quasiopt.pendulum_arc

    def recording(pull, s0, t0, t_limit, evs=()):
        for ev in evs:
            events.setdefault((ev.label, ev.terminal, ev.level), ev)
        return arc(pull, s0, t0, t_limit, evs)

    monkeypatch.setattr(quasiopt, "pendulum_arc", recording)
    for start in ((math.pi, 0.0), (0.0, 3.0), (-2.5, 0.0)):  # saddle, rotation, rest
        simulate_damping(PhaseState(*start), Params(0.1), keep_samples=False)
    assert {label for label, _, _ in events} == {"rest", "section", "bottom", "off-saddle", "capture"}
    for ev in events.values():
        lv = ev.level
        shifts = [k * lv.period for k in range(-2, 3)] if lv.period else [0.0]
        for level in (v + shift for v in lv.values for shift in shifts):
            def g(delta):
                state = [0.3, 0.3]
                state[lv.component] = level + delta
                return ev.fn(0.0, tuple(state))

            assert abs(g(0.0)) <= 1e-14, (ev.label, level)
            assert g(-1e-7) * g(1e-7) < 0.0, (ev.label, level)


def test_capture_is_the_located_entry_mid_arc(monkeypatch):
    segs = _recording_arcs(monkeypatch)
    res = simulate_damping(PhaseState(-3.0, 0.0), Params(0.05), keep_samples=False)
    last = segs[-1].events[-1]
    assert last.label == "capture"
    assert res.damping_time == last.t
    assert (res.terminal_state.x, res.terminal_state.y) == last.state
    assert last.residual <= EVENT_TOL
    assert abs(_capture_gap(last.state, 0.05)) <= EVENT_TOL
    # Mid-arc: moving, and past the arc's last step end.
    assert abs(last.state[1]) > 1e-3
    assert segs[-1].times[-2] < last.t
    assert res.stats.arcs == len(segs) == len(res.phase_log) - 1
    assert res.stats.steps == sum(len(seg.times) - 1 for seg in segs)
    assert res.stats.events == sum(len(seg.events) for seg in segs)
    assert res.stats.event_residual_max == max(seg.event_residual for seg in segs)


# Damping benchmark starts (seed 6, passes 5 and 7) whose capture set is
# first entered for less than 0.012 time units.  A capture looked for at
# step ends 1/64 apart misses that entry in both and comes 1.48 time units
# late.
SHORT_ENTRY_STARTS = {
    "high": ((math.pi, 1.6779606498755952), 0.0019062248170982755),
    "low": ((-2.8978204905114415, 0.0), 0.0030978953059120342),
}


@pytest.mark.parametrize("case", sorted(SHORT_ENTRY_STARTS))
def test_capture_is_the_first_entry(monkeypatch, case):
    # The arcs that end at or below the capture energy, the only ones that can
    # enter the capture set, are run again on DP5 without the capture and
    # sampled every 1/4096 time units: the first sample inside the set is
    # within one spacing after T.
    start, eps = SHORT_ENTRY_STARTS[case]
    runs = []
    arc = quasiopt.pendulum_arc

    def recording(pull, s0, t0, t_limit, events=()):
        seg = arc(pull, s0, t0, t_limit, events)
        runs.append((pull, s0, t0, t_limit, [ev for ev in events if ev.label != "capture"], seg))
        return seg

    monkeypatch.setattr(quasiopt, "pendulum_arc", recording)
    res = simulate_damping(PhaseState(*start), Params(eps), keep_samples=False)
    spacing = 1.0 / 4096.0
    dense = StepControl(rtol=1e-13, atol=1e-15, max_step=spacing)
    inside = []
    for pull, s0, t0, t_limit, events, seg in runs:
        if energy_xy(*seg.end_state) <= 4.0 * eps * eps:
            ref = integrate(pendulum_rhs(pull), s0, t0, t_limit, events, dense)
            inside += [t for t, s in zip(ref.times, ref.states) if _capture_gap(s, eps) <= 0.0]
    assert res.damping_time <= min(inside) <= res.damping_time + spacing


@pytest.mark.parametrize("start,eps", [
    SEPARATRIX_START, ((-2.9, 0.0), 0.003), ((math.pi, 3.0), 0.005), ((-3.0, 0.0), 0.05),
], ids=["separatrix", "low", "high", "low-0.05"])
def test_damping_matches_tight_dp5_arcs(monkeypatch, start, eps):
    # The same mode machine with every arc on DP5 at rtol 1e-13, atol 1e-15.
    res = simulate_damping(PhaseState(*start), Params(eps), keep_samples=False)
    monkeypatch.setattr(quasiopt, "pendulum_arc", oracle_pendulum_arc)
    ref = simulate_damping(PhaseState(*start), Params(eps), keep_samples=False)
    assert res.switch_count == ref.switch_count
    assert res.damping_time == pytest.approx(ref.damping_time, rel=1e-6)
    assert len(res.rest_amplitudes) == len(ref.rest_amplitudes)
    for (_, a), (_, b) in zip(res.rest_amplitudes, ref.rest_amplitudes):
        assert a == pytest.approx(b, abs=1e-8)
    assert len(res.section_speeds) == len(ref.section_speeds)
    for (_, a), (_, b) in zip(res.section_speeds, ref.section_speeds):
        # Not met: 1e-8 on every section.  The separatrix start's last
        # section (speed 4.4e-4) is 7.7e-8 from this reference, where
        # y_end = sqrt(y^2 - 4 pi eps) amplifies errors 400-fold.  It is the
        # reference that is off there: 7.9e-8 from the exact speed, against
        # 1.5e-9 for the Taylor run (test_section_speeds_are_the_exact_energy_drop).
        assert a == pytest.approx(b, abs=1e-8 if abs(b) > 1e-2 else 1e-6)


@pytest.mark.parametrize("start,eps", [SEPARATRIX_START, ((math.pi, 3.0), 0.005)],
                         ids=["separatrix", "high"])
def test_section_speeds_are_the_exact_energy_drop(start, eps):
    # Each turn through the rotation regime under dry friction loses exactly
    # 2 pi eps of energy, so the k-th section speed is sqrt(y0^2 - 4 pi eps k).
    res = simulate_damping(PhaseState(*start), Params(eps), keep_samples=False)
    y0 = start[1]
    assert len(res.section_speeds) > 100
    for k, (_, y) in enumerate(res.section_speeds, start=1):
        assert abs(y) == pytest.approx(math.sqrt(y0 * y0 - 4.0 * math.pi * eps * k), abs=1e-8)


def test_section_times_match_poincare_iterates_near_the_separatrix():
    # The start of the damping benchmark's seed 28, pass 2: its last turn ends
    # within 1e-3 of the separatrix.  At rtol 1e-10 the DP5 arcs were 3.2e-3
    # (relative) off the exact map's step times there.
    (x0, y0), eps = SEPARATRIX_START
    p = Params(eps)
    res = simulate_damping(PhaseState(x0, y0), p, keep_samples=False)
    it = poincare_iterates("high", y0, p)
    ts = [0.0] + [t for t, _ in res.section_speeds]
    simulated = [b - a for a, b in zip(ts, ts[1:])]
    assert len(simulated) == len(it.times) == 231
    assert max(abs(a - b) / b for a, b in zip(it.times, simulated)) <= 1e-4
