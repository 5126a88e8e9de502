import math

import pytest

from pendamp import quasiopt
from pendamp.dynamics import Params, PhaseState, energy
from pendamp.limits import poincare_high, poincare_low, RegimeExit, StandstillCapture
from pendamp.quasiopt import (
    MODE_CAPTURE,
    MODE_DRY,
    STOP_BUDGET,
    STOP_STALL,
    CapturePolicy,
    DampingNonConvergence,
    simulate_damping,
    sweep_scaling,
)


K_CAP_BOUND = "k_cap must be finite and >= 1/(1 + sqrt(1 - eps^2)) = 0.501256 at eps=0.1"


def no_integration(*args, **kw):
    raise AssertionError("integrate was called")


class TestDryFrictionControl:
    def test_signs(self):
        # Inside every dry-friction arc the control is the steepest descent -sign(y).
        res = simulate_damping(PhaseState(1.0, 2.0), Params(0.1))
        inside = 0
        for e in res.phase_log:
            if e.mode == MODE_DRY:
                for t, (x, y) in zip(res.trajectory.times, res.trajectory.states):
                    if e.t_start < t < e.t_end:
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

        monkeypatch.setattr(quasiopt, "integrate", no_integration)
        with pytest.raises(ValueError, match=r"needs eps < 0\.5, got 0\.5: the standstill zones "
                                             r"\|sin x\|, \|y\| < 2\.0 eps are not disjoint"):
            simulate_damping(PhaseState(-2.5, 0.0), Params(0.5))

    def test_universal_lower_bound(self):
        for eps, p0 in ((0.2, PhaseState(-3.0, 0.0)), (0.1, PhaseState(-2.0, 0.0)),
                        (0.1, PhaseState(math.pi, 1.0))):
            res = simulate_damping(p0, Params(eps), keep_samples=False)
            assert res.damping_time >= math.sqrt(2.0 * energy(p0)) / eps

    def test_energy_monotone_on_dry_arcs(self):
        res = simulate_damping(PhaseState(-3.0, 0.0), Params(0.1), keep_samples=False)
        for entry in res.phase_log:
            if entry.mode == MODE_DRY:
                e0 = energy(PhaseState(*entry.start))
                e1 = energy(PhaseState(*entry.end))
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

    @pytest.mark.parametrize("policy,message", [
        (CapturePolicy(budget_factor=math.nan), "budget_factor must be positive and finite, got nan"),
        (CapturePolicy(budget_factor=math.inf), "budget_factor must be positive and finite, got inf"),
        (CapturePolicy(budget_factor=-1.0), "budget_factor must be positive and finite, got -1.0"),
        (CapturePolicy(budget_factor=0.0), "budget_factor must be positive and finite, got 0.0"),
        (CapturePolicy(k_cap=-1.0), f"{K_CAP_BOUND}, got -1.0"),
        (CapturePolicy(k_cap=math.nan), f"{K_CAP_BOUND}, got nan"),
        (CapturePolicy(k_cap=math.inf), f"{K_CAP_BOUND}, got inf"),
        (CapturePolicy(k_cap=0.5), f"{K_CAP_BOUND}, got 0.5"),
    ], ids=["budget-nan", "budget-inf", "budget-1", "budget0", "k-1", "k-nan", "k-inf", "k0.5"])
    def test_capture_policy_is_checked_before_any_integration(self, monkeypatch, policy,
                                                                message):
        monkeypatch.setattr(quasiopt, "integrate", no_integration)
        with pytest.raises(ValueError) as exc:
            simulate_damping(PhaseState(-2.5, 0.0), Params(0.1), policy)
        assert str(exc.value) == message

    def test_k_cap_at_its_bound_is_accepted(self, monkeypatch):
        # A rest at sin x = eps has energy eps^2 / (1 + sqrt(1 - eps^2)).
        eps = 0.1
        k_min = 1.0 / (1.0 + math.sqrt(1.0 - eps * eps))
        assert energy(PhaseState(math.asin(eps), 0.0)) == pytest.approx(k_min * eps * eps, rel=1e-12)
        monkeypatch.setattr(quasiopt, "integrate", no_integration)
        with pytest.raises(AssertionError, match="integrate was called"):
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
    from pendamp.quasiopt import MODE_UPPER
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


def test_capture_energy_below_threshold():
    # The terminal state of a captured run sits inside the lower zone with
    # energy at most k_cap * eps^2.
    for eps in (0.2, 0.1, 0.05):
        res = simulate_damping(PhaseState(-2.5, 0.0), Params(eps), keep_samples=False)
        assert energy(res.terminal_state) <= 4.0 * eps * eps + 1e-12
