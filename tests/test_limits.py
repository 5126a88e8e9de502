import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import ellipk as scipy_ellipk
from scipy.special import sici

from pendamp.dynamics import Params
from pendamp import limits
from pendamp.limits import (
    QuadratureError,
    RegimeExit,
    StandstillCapture,
    amplitude_from_energy,
    constant_D,
    ellipk,
    euler_convergence,
    full_turn_time,
    limit_ode_solve,
    period_integral,
    poincare_high,
    poincare_iterates,
    poincare_low,
    swing_progress,
    switching_integrand,
    tau,
    tau_minus,
    tau_plus,
)
from oracles import (
    oracle_cost_functional,
    oracle_free_oscillation_period,
    oracle_half_swing_time,
    oracle_low_step_time,
)

D_PAPER = 0.925968526


class TestConstantD:
    def test_reference_value(self):
        q = constant_D(1e-10)
        assert abs(q.value - D_PAPER) <= 1e-8
        assert q.error_estimate <= 1e-10
        assert q.evaluations > 0

    def test_against_sine_integral(self):
        # Independent route: half the sine integral at pi.
        assert constant_D(1e-10).value == pytest.approx(0.5 * float(sici(math.pi)[0]), abs=1e-12)

    def test_integrand_endpoints(self):
        assert switching_integrand(0.0) == 0.5
        assert switching_integrand(math.pi) == pytest.approx(0.0, abs=1e-16)

    def test_tolerance_floor(self):
        with pytest.raises(ValueError):
            constant_D(1e-13)


class TestPendulumTimes:
    def test_half_swing_matches_theta_quadrature(self):
        # Raw endpoint-singular integral via the sin(phi/2) substitution.
        for x in (0.5, 1.5, 2.9):
            m = math.sin(0.5 * x) ** 2
            val = quad(lambda th: math.sqrt(2.0) / math.sqrt(1.0 - m * math.sin(th) ** 2),
                       0.0, 0.5 * math.pi, epsabs=1e-13, epsrel=1e-13)[0]
            assert oracle_half_swing_time(x) == pytest.approx(val, abs=1e-10)

    def test_free_period_matches_elliptic(self):
        for e in (0.1, 1.0, 1.9):
            a = amplitude_from_energy(e)
            per = oracle_free_oscillation_period(e).value
            assert per == pytest.approx(4.0 * oracle_half_swing_time(a) / math.sqrt(2.0), abs=1e-9)

    def test_small_oscillation_period(self):
        assert oracle_free_oscillation_period(1e-8).value == pytest.approx(2.0 * math.pi, rel=1e-8)


class TestTauMinus:
    def test_linear_oscillator_limit(self):
        e = 1e-4
        ratio = tau_minus(e, 1e-12).value / (math.pi * math.sqrt(e / 2.0))
        assert abs(ratio - 1.0) <= 1e-2

    def test_strictly_increasing(self):
        vals = [tau_minus(e).value for e in (0.5, 1.0, 1.5, 1.9, 2.0)]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_separatrix_value_by_extrapolation(self):
        # Richardson-style oracle: fit a + b*d*log(1/d) + c*d on d = 10^-k.
        ks = (4, 5, 6)
        a_mat = np.array([[1.0, 10.0 ** -k * math.log(10.0 ** k), 10.0 ** -k] for k in ks])
        rhs = np.array([tau_minus(2.0 - 10.0 ** -k, 1e-10).value for k in ks])
        coef, *_ = np.linalg.lstsq(a_mat, rhs, rcond=None)
        assert tau_minus(2.0, 1e-10).value == pytest.approx(coef[0], abs=1e-4)

    def test_energy_below_float_resolution_is_the_empty_integral(self):
        # 1 - E rounds to 1 below E = 5.6e-17, so Phi = 0.
        assert tau_minus(5e-17) == limits.QuadratureResult(0.0, 0.0, 0)
        assert tau_minus(1.2e-16).value > 0.0

    def test_domain(self):
        with pytest.raises(ValueError):
            tau_minus(0.0)
        with pytest.raises(ValueError):
            tau_minus(2.0 + 1e-12)


class TestTauPlus:
    def test_zero_at_separatrix(self):
        q = tau_plus(2.0)
        assert q.value == 0.0

    def test_strictly_increasing(self):
        vals = [tau_plus(e).value for e in (2.5, 3.0, 4.0, 8.0)]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_large_energy_turn_time(self):
        e = 200.0
        assert full_turn_time(e) == pytest.approx(2.0 * math.pi / math.sqrt(2.0 * e), rel=0.02)

    def test_domain(self):
        with pytest.raises(ValueError):
            tau_plus(1.9)


class TestTau:
    def test_branch_selection(self):
        assert tau(1.0).value == tau_minus(1.0).value
        assert tau(3.0).value == pytest.approx(
            tau_plus(3.0).value + tau_minus(2.0).value, abs=1e-12)

    def test_continuity_at_separatrix(self):
        t2 = tau(2.0).value
        assert tau(2.0 + 1e-8).value == pytest.approx(t2, abs=1e-6)
        assert tau(2.0 - 1e-8).value == pytest.approx(t2, abs=1e-6)

    def test_domain(self):
        with pytest.raises(ValueError):
            tau(0.0)


class TestPeriodIntegral:
    def test_log_growth_band(self):
        ratios = [period_integral(h, 1e-9).value / math.log(1.0 / h)
                  for h in (1e-2, 1e-4, 1e-6, 1e-8)]
        assert all(r <= 6.0 for r in ratios)
        # the bounded part shrinks relative to the log: ratios decrease
        assert all(a >= b for a, b in zip(ratios, ratios[1:]))

    def test_h_one_bounds(self):
        v = period_integral(1.0, 1e-10).value
        assert 2.0 * math.pi / math.sqrt(3.0) <= v <= 2.0 * math.pi

    def test_symmetry_about_pi(self):
        h = 1e-2

        def f(s):
            return abs(math.cos(s) + 1.0 + h) ** -0.5

        left = quad(f, 0.0, math.pi, points=[math.pi * 0.999], limit=200)[0]
        right = quad(f, math.pi, 2.0 * math.pi, points=[math.pi * 1.001], limit=200)[0]
        assert left == pytest.approx(right, abs=1e-10)

    def test_negative_h_has_integrable_zeros(self):
        v = period_integral(-0.5, 1e-9).value
        assert math.isfinite(v) and v > 0.0

    def test_negative_h_certifies_close_to_the_separatrix(self):
        # The substitution s = s0 -+ u^2 leaves a smooth integrand for every
        # h < 0 whose zeros the floats resolve; closer to 0 they round to pi.
        ratios = [period_integral(h, 1e-9).value / math.log(1.0 / -h)
                  for h in (-1e-2, -1e-4, -1e-8, -1e-15)]
        assert all(a >= b for a, b in zip(ratios, ratios[1:]))
        with pytest.raises(QuadratureError, match="rounds the zeros of cos s \\+ 1 \\+ h to pi"):
            period_integral(-1e-17)

    def test_domain(self):
        with pytest.raises(ValueError):
            period_integral(0.0)
        with pytest.raises(ValueError):
            period_integral(1.5)


class TestPoincareMaps:
    def test_high_map_closed_form(self):
        p = Params(0.1)
        assert poincare_high(3.0, p) == pytest.approx(math.sqrt(9.0 - 0.4 * math.pi), abs=1e-12)
        assert poincare_high(-3.0, p) == pytest.approx(-math.sqrt(9.0 - 0.4 * math.pi), abs=1e-12)

    def test_high_map_regime_exit(self):
        with pytest.raises(RegimeExit):
            poincare_high(1.0, Params(0.1))

    def test_low_map_fixed_point_limit(self):
        x = 2.0
        assert poincare_low(x, Params(1e-7)) == pytest.approx(x, abs=1e-5)

    def test_low_map_linearized_step(self):
        x, eps = 2.0, 1e-3
        xp = poincare_low(x, Params(eps))
        assert 0.0 < xp < x
        lin = 2.0 * eps * x / math.sin(x)
        assert (x - xp) == pytest.approx(lin, rel=0.05)

    def test_low_map_residual(self):
        x, eps = 2.4, 0.05
        xp = poincare_low(x, Params(eps))
        assert abs(math.cos(xp) - math.cos(x) - eps * (x + xp)) <= 1e-11

    @pytest.mark.parametrize("eps", [1e-2, 1e-4, 1e-6])
    def test_low_map_root_to_a_few_ulps(self, eps):
        # The root errors of the map add up over the ~0.92/eps iterates of an
        # orbit, so each root must be as good as the double allows: within 4
        # ulps of itself after Newton polishing on cos(x') - cos(x) = eps (x + x').
        for x in np.linspace(1.0, 3.0, 41):
            x = float(x)
            xp = ref = poincare_low(x, Params(eps))
            for _ in range(3):
                ref -= (math.cos(ref) - math.cos(x) - eps * (x + ref)) / (-math.sin(ref) - eps)
            assert abs(xp - ref) <= 4 * math.ulp(ref), x

    def test_iterate_count_vs_quadrature(self):
        eps, x0 = 1e-3, 3.0
        count = euler_convergence(x0, [eps])[0].n_iterates - 1
        target = swing_progress(x0) / eps
        assert count == pytest.approx(target, rel=0.05)

    def test_capture_signal(self):
        with pytest.raises(StandstillCapture):
            poincare_low(0.0015, Params(1e-3))

    def test_domain(self):
        with pytest.raises(ValueError):
            poincare_low(math.pi, Params(0.1))
        # at rest next to the saddle with sin x <= eps, dry friction holds the
        # pendulum: no half-swing exists
        with pytest.raises(ValueError, match=r"low-zone start 3\.14 sticks at rest at eps=0\.01"):
            poincare_low(3.14, Params(0.01))


class TestLimitOde:
    def test_low_zone_full_descent_time_is_D(self):
        path = limit_ode_solve("low", math.pi, [(-1.0, None)])
        assert abs(path.total_time - constant_D(1e-11).value) <= 1e-10
        assert path.pieces[-1].v_end == 0.0
        assert path.value_at(path.total_time) == 0.0
        assert path.value_at(0.0) == math.pi

    def test_high_zone_closed_form(self):
        path = limit_ode_solve("high", 2.0, [(-1.0, None)])
        assert path.total_time == pytest.approx(1.0 / math.pi, abs=1e-12)
        # Y^2 = 4 - 4 pi t under U = -1
        assert path.value_at(0.1) == pytest.approx(math.sqrt(4.0 - 0.4 * math.pi), rel=1e-14)

    def test_zero_control_is_constant(self):
        path = limit_ode_solve("low", 1.0, [(0.0, 2.0)])
        assert [(pc.v_start, pc.v_end) for pc in path.pieces] == [(1.0, 1.0)]
        assert all(path.value_at(t) == 1.0 for t in (-1.0, 0.0, 0.7, 2.0, 3.0))

    def test_piece_ends_are_the_closed_form(self):
        # Each piece starts where the previous one ends, and value_at meets
        # both ends of every piece.
        path = limit_ode_solve("low", 2.8, [(-1.0, 0.3), (0.0, 0.2), (-0.5, 0.4)])
        assert [pc.u for pc in path.pieces] == [-1.0, 0.0, -0.5]
        assert path.pieces[0].v_start == 2.8
        for a, b in zip(path.pieces, path.pieces[1:]):
            assert b.v_start == a.v_end and b.t_start == a.t_end
        for pc in path.pieces:
            assert path.value_at(pc.t_start) == pytest.approx(pc.v_start, rel=1e-15)
            assert path.value_at(pc.t_end) == pytest.approx(pc.v_end, rel=1e-15)
        assert path.total_time == pytest.approx(0.9, abs=1e-15)

    def test_control_bound(self):
        with pytest.raises(ValueError):
            limit_ode_solve("low", 1.0, [(1.5, 1.0)])

    def test_domain(self):
        for zone, init, profile, message in [
            ("low", 4.0, [(-1.0, None)], "low-zone amplitude 4.0 outside"),
            ("high", -1.0, [(-1.0, None)], "high-zone speed -1.0 must be positive"),
            ("sideways", 1.0, [(-1.0, None)], "unknown zone 'sideways'"),
            ("low", 1.0, [(0.0, None)], "open-ended piece needs a negative control"),
            ("high", 1.0, [(0.5, None)], "open-ended piece needs a negative control"),
            ("low", 1.0, [(-1.0, -0.1)], "piece duration must be nonnegative"),
            ("low", 1.0, [(1.0, 5.0)], "drives the amplitude out of"),
            ("low", 1.0, [(-1.0, 5.0)], "drives the amplitude out of"),
            ("high", 1.0, [(-1.0, 1.0)], "drives the speed below 0"),
            ("low", 1.0, [], "empty control profile"),
        ]:
            with pytest.raises(ValueError, match=message):
                limit_ode_solve(zone, init, profile)

    def test_integral_identity_along_path(self):
        # cos X(s) - cos X(t) = 2 * integral_s^t X U dsigma on a mixed profile.
        path = limit_ode_solve("low", 2.8, [(-1.0, 0.3), (0.0, 0.2), (-0.5, 0.4)])

        def control_at(sg):
            return next(pc.u for pc in path.pieces if sg <= pc.t_end)

        for s, t in ((0.0, 0.25), (0.1, 0.62), (0.35, 0.9)):
            lhs = math.cos(path.value_at(s)) - math.cos(path.value_at(t))
            rhs = 2.0 * quad(lambda sg: path.value_at(sg) * control_at(sg),
                             s, t, epsabs=1e-11, epsrel=1e-11, limit=200)[0]
            assert lhs == pytest.approx(rhs, abs=1e-8)


class TestCostFunctionals:
    def test_zero_length_path(self):
        path = limit_ode_solve("low", 1.0, [(0.0, 0.0)])
        assert oracle_cost_functional(path).value == 0.0

    def test_low_normalization_against_tau_minus(self):
        # dt = (sin X / 2X) dX under U = -1 gives J- = tau_minus(E)/sqrt(2).
        for e in (0.8, 1.5, 1.999):
            x0 = amplitude_from_energy(e)
            path = limit_ode_solve("low", x0, [(-1.0, None)])
            j = oracle_cost_functional(path, 1e-10).value
            assert j * math.sqrt(2.0) == pytest.approx(tau_minus(e, 1e-10).value, rel=1e-8)

    def test_high_normalization_against_tau_plus(self):
        for e in (3.0, 5.0):
            y0 = math.sqrt(2.0 * (e - 2.0))
            path = limit_ode_solve("high", y0, [(-1.0, None)])
            j = oracle_cost_functional(path, 1e-10).value
            assert j == pytest.approx(math.sqrt(2.0) * tau_plus(e, 1e-10).value, rel=1e-8)

    def test_monotone_in_path_length(self):
        short = limit_ode_solve("low", 2.0, [(-1.0, 0.2)])
        longer = limit_ode_solve("low", 2.0, [(-1.0, 0.4)])
        assert oracle_cost_functional(longer).value > oracle_cost_functional(short).value


class TestEulerConvergence:
    def test_first_order_ratios(self):
        rows = euler_convergence(3.0, [0.02, 0.01, 0.005, 0.0025])
        for row in rows[1:]:
            assert row.ratio_vs_previous is not None
            assert row.ratio_vs_previous <= 0.75
        sups = [r.sup_error for r in rows]
        assert all(a > b for a, b in zip(sups, sups[1:]))
        assert sups[-1] < 0.02

    def test_small_amplitude_errors_vanish(self):
        rows = euler_convergence(0.05, [0.005, 0.0025])
        assert all(r.sup_error < 1e-6 for r in rows)

    def test_domain(self):
        with pytest.raises(ValueError):
            euler_convergence(3.5, [0.01])
        with pytest.raises(ValueError, match=r"low-zone start 3\.14 sticks at rest at eps=0\.01"):
            euler_convergence(3.14, [0.01, 0.005])

    def test_orbit_cut_by_the_cap_is_an_error(self, monkeypatch):
        # From 3.0 at eps 0.02 the orbit is captured after 46 images.
        monkeypatch.setattr(limits, "EULER_MAX_ITERATES", 47)
        assert euler_convergence(3.0, [0.02])[0].n_iterates == 47
        monkeypatch.setattr(limits, "EULER_MAX_ITERATES", 46)
        with pytest.raises(RuntimeError, match=r"orbit from 3\.0 at eps=0\.02 reached the cap "
                                               r"of 46 iterates before capture"):
            euler_convergence(3.0, [0.02])

    def test_orbit_longer_than_the_cap_is_rejected_before_any_step(self, monkeypatch):
        # From 3.0 at eps 0.02 the estimate swing_progress(3.0) / 0.02 is 46.2
        # iterates: past 1.05 times a cap of 44, within it at 45.
        def no_step(x, p):
            raise AssertionError("the map ran")

        monkeypatch.setattr(limits, "poincare_low", no_step)
        monkeypatch.setattr(limits, "EULER_MAX_ITERATES", 44)
        with pytest.raises(RuntimeError, match=r"orbit from 3\.0 at eps=0\.02 lives about 46\.2163 "
                                               r"iterates, more than 5% over the cap of 44 iterates"):
            euler_convergence(3.0, [0.1, 0.02])
        monkeypatch.setattr(limits, "EULER_MAX_ITERATES", 45)
        with pytest.raises(AssertionError, match="the map ran"):
            euler_convergence(3.0, [0.02])


class TestRiemannSumBound:
    def test_log_riemann_bound_on_high_iterates(self):
        # Reduced energies h_n from the exact high-zone map, step 2 pi eps.
        eps = 0.01
        p = Params(eps)
        y = 3.0
        hs = [0.5 * y * y]  # h = E - 2 and E = y^2/2 + 2 on the section x = pi
        while True:
            try:
                y = poincare_high(y, p)
            except RegimeExit:
                break
            hs.append(0.5 * y * y)
        total = 0.0
        for a, b in zip(hs, hs[1:]):
            if a <= 1.0:
                step = (a - b) * math.log(1.0 / a)
                exact = quad(lambda x: math.log(1.0 / x), b, a)[0]
                assert step <= exact + 1e-12
                total += step
        assert total <= 1.0 + 2.0 * math.pi * eps * math.log(1.0 / min(hs))


def low_orbit(x, p):
    """Rest amplitudes of the low-zone map down to capture, by a plain loop."""
    xs = [x]
    while True:
        try:
            x = poincare_low(x, p)
        except StandstillCapture:
            return xs
        xs.append(x)


class TestPoincareIterates:
    def test_low_zone_orbit_with_times(self):
        from pendamp.limits import poincare_iterates
        eps = 0.1
        it = poincare_iterates("low", 2.8, Params(eps))
        assert it.zone == "low"
        assert len(it.times) == len(it.values) - 1
        # rest amplitudes in (0, pi), hence energies 1 - cos x, strictly decrease
        assert all(a > b for a, b in zip(it.values, it.values[1:]))
        assert it.values == tuple(low_orbit(2.8, Params(eps)))

    def test_orbit_truncated_at_max_steps(self, monkeypatch):
        from pendamp.limits import poincare_iterates
        for zone, start in (("low", 2.8), ("high", 3.0)):
            full = poincare_iterates(zone, start, Params(0.05))
            with monkeypatch.context() as m:
                m.setattr(limits, "POINCARE_MAX_STEPS", 2)
                cut = poincare_iterates(zone, start, Params(0.05))
            assert len(full.values) > 3
            assert cut.values == full.values[:3]
            assert cut.times == full.times[:2]

    def test_low_step_times_match_simulation(self):
        # Independent route: the closed-loop integrator's rest-to-rest times.
        from pendamp.limits import poincare_iterates
        from pendamp.quasiopt import simulate_damping
        from pendamp.dynamics import PhaseState
        eps = 0.1
        it = poincare_iterates("low", 2.8, Params(eps))
        res = simulate_damping(PhaseState(-2.8, 0.0), Params(eps), keep_samples=False)
        sim_times = [b - a for (a, _), (b, _) in zip(res.rest_amplitudes,
                                                     res.rest_amplitudes[1:])]
        for quad_t, sim_t in zip(it.times, sim_times):
            assert quad_t == pytest.approx(sim_t, abs=1e-6)

    @pytest.mark.parametrize("x0,eps", [
        (2.5, 0.005),
        (math.acos(-1.0 + 1e-3), 0.002),   # near-separatrix start, E0 = 2 - 1e-3
    ], ids=["x2.5-eps0.005", "separatrix-eps0.002"])
    def test_low_step_times_in_small_eps_regime(self, monkeypatch, x0, eps):
        # The regime of the damping benchmark: hundreds of half-swings, each
        # timed against the closed-loop integrator's rest-to-rest times.
        from pendamp.limits import poincare_iterates
        from pendamp.quasiopt import simulate_damping
        from pendamp.dynamics import PhaseState
        it = poincare_iterates("low", x0, Params(eps))
        assert it.values == tuple(low_orbit(x0, Params(eps)))
        assert len(it.times) == len(it.values) - 1
        res = simulate_damping(PhaseState(-x0, 0.0), Params(eps), keep_samples=False)
        sim_times = [b - a for (a, _), (b, _) in zip(res.rest_amplitudes,
                                                     res.rest_amplitudes[1:])]
        assert len(sim_times) >= len(it.times) - 1
        for quad_t, sim_t in zip(it.times, sim_times):
            assert quad_t == pytest.approx(sim_t, rel=1e-4)
        # discretisation check: a 100x tighter quadrature tolerance moves no step time
        monkeypatch.setattr(limits, "POINCARE_TOL", 1e-12)
        fine = poincare_iterates("low", x0, Params(eps))
        assert fine.values == it.values
        for t10, t12 in zip(it.times, fine.times):
            assert t10 == pytest.approx(t12, rel=1e-9)

    def test_low_step_time_matches_oracle(self):
        # The oracle integrates straight across both rest-point singularities
        # and fails to certify on part of each orbit; every step must still
        # certify here, and agree with the oracle wherever it certifies.
        cases = [(2.5, 0.2), (2.5, 0.05), (2.5, 0.005), (2.5, 0.002),
                 (math.acos(-1.0 + 1e-3), 0.002), (0.3, 0.01)]
        for x0, eps in cases:
            xs = low_orbit(x0, Params(eps))
            compared = 0
            for x, x_next in zip(xs, xs[1:]):
                new = limits._low_step_time(x, x_next, eps, 1e-10).value
                try:
                    ref = oracle_low_step_time(x, x_next, eps, 1e-10)
                except QuadratureError:
                    continue
                assert new == pytest.approx(ref, rel=1e-9), (x0, eps, x)
                compared += 1
            assert compared >= len(xs) // 2, (x0, eps, compared)

    def test_high_zone_orbit_with_times(self):
        from pendamp.limits import poincare_iterates
        from pendamp.quasiopt import simulate_damping
        from pendamp.dynamics import PhaseState
        eps = 0.05
        it = poincare_iterates("high", 3.0, Params(eps))
        assert len(it.values) >= 3
        assert all(a > b for a, b in zip(it.values, it.values[1:]))
        # turn times against the simulated section-crossing instants
        res = simulate_damping(PhaseState(math.pi, 3.0), Params(eps), keep_samples=False)
        crossings = [t for t, _ in res.section_speeds]
        sim_times = [crossings[0]] + [b - a for a, b in zip(crossings, crossings[1:])]
        for quad_t, sim_t in zip(it.times, sim_times):
            assert quad_t == pytest.approx(sim_t, abs=1e-6)

    def test_domain(self):
        from pendamp.limits import poincare_iterates
        with pytest.raises(ValueError):
            poincare_iterates("sideways", 1.0, Params(0.1))
        with pytest.raises(ValueError):
            poincare_iterates("high", -1.0, Params(0.1))
        # at rest next to the saddle with sin x <= eps, dry friction holds the
        # pendulum: no half-swing exists
        with pytest.raises(ValueError, match=r"low-zone start 3\.14017\d* sticks at rest at eps=0\.003"):
            poincare_iterates("low", math.acos(-1.0 + 1e-6), Params(0.003))


@pytest.mark.parametrize("call,message", [
    (lambda: swing_progress(-0.1), "amplitude -0.1 must be nonnegative"),
    (lambda: amplitude_from_energy(-0.1), "energy -0.1 outside the oscillation range"),
    (lambda: amplitude_from_energy(2.5), "energy 2.5 outside the oscillation range"),
    (lambda: full_turn_time(2.0), "energy 2.0 not in the rotation regime"),
    (lambda: full_turn_time(1.0), "energy 1.0 not in the rotation regime"),
    (lambda: tau(math.nan), "energy must be positive and finite, got nan"),
    (lambda: tau(math.inf), "energy must be positive and finite, got inf"),
    (lambda: tau_plus(math.nan), "energy must be finite, got nan"),
    (lambda: tau_plus(math.inf), "energy must be finite, got inf"),
], ids=["swing_progress", "amplitude-below", "amplitude-above", "turn-at-2", "turn-below",
        "tau-nan", "tau-inf", "tau_plus-nan", "tau_plus-inf"])
def test_rejects_arguments_outside_domain(call, message):
    with pytest.raises(ValueError, match=message):
        call()


@pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1e-9])
def test_quadrature_tol_must_be_positive_and_finite(monkeypatch, tol):
    # _quad is the one certificate: a tol that is not positive and finite is
    # rejected before any integrand is evaluated.
    def no_quad(*args, **kw):
        raise AssertionError("integrated before rejecting tol")

    monkeypatch.setattr(limits, "quad", no_quad)
    monkeypatch.setattr(limits, "POINCARE_TOL", tol)
    message = f"tol must be positive and finite, got {tol}"
    for call in (lambda: tau(1.0, tol), lambda: tau(3.0, tol), lambda: period_integral(0.1, tol),
                 lambda: poincare_iterates("high", 3.0, Params(0.1))):
        with pytest.raises(ValueError, match=message):
            call()
    if not tol < 1e-12:  # constant_D's 1e-12 floor rejects 0 and -1e-9 first
        with pytest.raises(ValueError, match=message):
            constant_D(tol)


def _orbit_at_tol(zone, start):
    """poincare_iterates(zone, start, Params(0.1)) with POINCARE_TOL set to tol."""
    def call(tol):
        with pytest.MonkeyPatch.context() as m:
            m.setattr(limits, "POINCARE_TOL", tol)
            return poincare_iterates(zone, start, Params(0.1))

    return call


@pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1e-9])
@pytest.mark.parametrize("call", [
    _orbit_at_tol("high", 0.5),
    _orbit_at_tol("low", 0.05),
    lambda tol: tau_plus(2.0, tol),
], ids=["high-no-full-turn", "low-below-capture", "tau-plus-at-separatrix"])
def test_tol_checked_before_an_orbit_without_quadrature(monkeypatch, call, tol):
    # Each call returns without any quadrature (a one-value orbit, or the
    # tau_plus(2) = 0 shortcut), so only an up-front check rejects the tol.
    def no_quad(*args, **kw):
        raise AssertionError("integrated before rejecting tol")

    monkeypatch.setattr(limits, "quad", no_quad)
    with pytest.raises(ValueError, match=f"^tol must be positive and finite, got {tol}$"):
        call(tol)
    assert call(1e-10) is not None  # the same call with a good tol runs no quadrature


def test_quadrature_never_certifies_a_non_finite_estimate():
    # NaN compares false with the tolerance, so only an explicit check keeps
    # a NaN value or error estimate from passing as certified.
    with pytest.raises(QuadratureError, match="estimate nan with error estimate nan is not finite"):
        limits._quad(lambda x: math.nan, 0.0, 1.0, 1e-9)


@pytest.mark.parametrize("call,message", [
    (lambda: poincare_iterates("high", math.nan, Params(0.1)), "start must be finite, got nan"),
    (lambda: poincare_iterates("high", math.inf, Params(0.1)), "start must be finite, got inf"),
    (lambda: limit_ode_solve("high", math.inf, [(-1.0, None)]), "initial state must be finite, got inf"),
    (lambda: limit_ode_solve("high", math.nan, [(-1.0, None)]), "initial state must be finite, got nan"),
    (lambda: limit_ode_solve("low", 1.0, [(-1.0, 0.1), (-1.0, math.nan)]),
     "piece duration must be nonnegative and finite, got nan"),
    (lambda: limit_ode_solve("low", 1.0, [(-1.0, math.inf)]),
     "piece duration must be nonnegative and finite, got inf"),
    (lambda: limit_ode_solve("low", 1.0, [(math.nan, 0.1)]), r"control nan outside \[-1, 1\]"),
    (lambda: full_turn_time(math.nan), "energy must be finite, got nan"),
    (lambda: full_turn_time(math.inf), "energy must be finite, got inf"),
    (lambda: period_integral(math.nan), "h must be finite, got nan"),
], ids=["iterates-nan", "iterates-inf", "limit-ode-inf", "limit-ode-nan", "duration-nan",
        "duration-inf", "control-nan", "turn-nan", "turn-inf", "period-nan"])
def test_rejects_non_finite_inputs_before_any_work(monkeypatch, call, message):
    def no_work(*args, **kw):
        raise AssertionError("worked on a non-finite input")

    for name in ("quad", "poincare_high", "swing_progress", "_advance"):
        monkeypatch.setattr(limits, name, no_work)
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


def test_values_above_100_are_certified_to_the_absolute_tol(monkeypatch):
    # tau_plus(1e6) is about 1413: the relative request tol/100 stops the
    # first quadrature with an estimate near 3e-9, above tol = 1e-9, so
    # _quad asks again for tol itself; both quadratures count.
    calls = recorded_quadratures(monkeypatch, lambda: tau_plus(1e6, 1e-9))
    assert [kw["epsrel"] for _, _, _, kw in calls] == [1e-9 / 100.0, 0.0]
    q = tau_plus(1e6, 1e-9)
    assert q.error_estimate <= 1e-9
    assert q.evaluations == sum(limits.quad(f, a, b, **kw)[2]["neval"] for f, a, b, kw in calls)
    ref = quad(lambda e: full_turn_time(e) / (2.0 * math.pi), 2.0, 1e6, epsabs=1e-11, epsrel=1e-11,
               limit=400)[0]
    assert q.value == pytest.approx(ref, abs=1e-9)


@pytest.mark.parametrize("E", [5000.0, 1e5])
def test_tol_below_the_roundoff_floor_is_certified_at_the_floor(monkeypatch, E):
    # tau_plus(E) is 99 and 446 here, so GK21's roundoff floor, 50 eps times
    # the integral, is above tol = 1e-12: the first quadrature's estimate,
    # within twice the floor, is certified, and none asks for less.
    calls = recorded_quadratures(monkeypatch, lambda: tau_plus(E, 1e-12))
    assert len(calls) == 1
    q = tau_plus(E, 1e-12)
    assert 1e-12 < q.error_estimate <= 2.0 * limits.ROUNDOFF * q.value * (1.0 + 1e-12)
    ref = quad(lambda e: full_turn_time(e) / (2.0 * math.pi), 2.0, E, epsabs=1e-12, epsrel=1e-13,
               limit=400)[0]
    assert q.value == pytest.approx(ref, rel=1e-14, abs=0.0)
    assert tau(E, 1e-12).value == q.value + tau_minus(2.0, 1e-12).value


def test_unreachable_tolerance_raises_quadrature_error():
    # QUADPACK's error estimate for tau_minus(1) stays near 2.5e-14, and a tol
    # of 1e-16 is below the rounding of the sum, eps tau_minus(1) = 5.0e-16.
    with pytest.raises(QuadratureError, match="^the rounding of the sum, eps times the integral of "
                                              r"\|f\|, is 5.019e-16: error estimate 2.5\d\de-14 "
                                              "above tolerance 1.000e-16$"):
        tau(1.0, 1e-16)


def test_tau_strictly_increasing_across_branches():
    vals = [tau(e).value for e in (0.5, 1.0, 1.999, 2.0, 2.3, 3.0, 5.0)]
    assert all(a < b for a, b in zip(vals, vals[1:]))


def test_full_speed_profile_minimizes_cost():
    # U = -1 beats slower admissible profiles for the same descent (the
    # integrand is positive and pointwise identical along the same path).
    x0 = 2.5
    fast = oracle_cost_functional(limit_ode_solve("low", x0, [(-1.0, None)])).value
    slow = oracle_cost_functional(limit_ode_solve("low", x0, [(-0.5, None)])).value
    mixed = oracle_cost_functional(limit_ode_solve("low", x0, [(0.0, 0.5), (-1.0, None)])).value
    assert fast < slow
    assert fast < mixed


# ------------------------------------------------------- scipy as the oracle

# One call per integrand of the module, and per regime of it: each records
# the quadratures it makes.
INTEGRAND_CALLS = {
    "constant_D": lambda: constant_D(1e-10),
    "tau_minus-small": lambda: tau_minus(1e-4, 1e-12),
    "tau_minus-1": lambda: tau_minus(1.0),
    "tau_minus-near-2": lambda: tau_minus(1.999),
    "tau_minus-2": lambda: tau_minus(2.0),
    "tau_plus-near-2": lambda: tau_plus(2.0 + 1e-8),
    "tau_plus-3": lambda: tau_plus(3.0),
    "tau_plus-6.5": lambda: tau_plus(6.5),
    "period-h-1": lambda: period_integral(1.0),
    "period-h-1e-8": lambda: period_integral(1e-8),
    "period-h-minus-1": lambda: period_integral(-1.0),
    "period-h-minus-1e-4": lambda: period_integral(-1e-4),
    "high-step-times": lambda: poincare_iterates("high", 3.0, Params(0.05)),
}


def recorded_quadratures(monkeypatch, call):
    """The (f, a, b, keywords) of every quadrature that ``call`` makes."""
    seen = []
    own = limits.quad

    def recorder(f, a, b, **kw):
        seen.append((f, a, b, kw))
        return own(f, a, b, **kw)

    monkeypatch.setattr(limits, "quad", recorder)
    call()
    monkeypatch.undo()
    return seen


@pytest.mark.parametrize("name", list(INTEGRAND_CALLS))
def test_quad_matches_scipy_on_the_package_integrands(monkeypatch, name):
    # Every integrand the module hands to quad is smooth, so QUADPACK's
    # extrapolation never changes scipy's path: both bisect the same panels,
    # and the values agree within the error estimate.
    seen = recorded_quadratures(monkeypatch, INTEGRAND_CALLS[name])
    assert seen
    for f, a, b, kw in seen:
        val, err, info = limits.quad(f, a, b, **kw)
        ref, ref_err, ref_info = quad(f, a, b, **kw)[:3]
        assert info["neval"] == ref_info["neval"], (a, b)
        assert abs(val - ref) <= err, (a, b, val, ref, err)


def half_swing_integrand(x, x_next):
    """The theta integrand of _low_step_time, 1 / sqrt(-2 cos[-x, s, x_next])
    with s = c + r sin(theta), each first divided difference of cos written
    as -sin((a + b)/2) sin(d)/d, d = (b - a)/2."""
    c, r = 0.5 * (x_next - x), 0.5 * (x + x_next)

    def first(a, b):
        d = 0.5 * (b - a)
        return -math.sin(a) if d == 0.0 else -math.sin(0.5 * (a + b)) * math.sin(d) / d

    def f(theta):
        s = c + r * math.sin(theta)
        return 1.0 / math.sqrt(-2.0 * (first(s, x_next) - first(-x, s)) / (x + x_next))

    return f


@pytest.mark.parametrize("start,eps", [
    (2.8, 0.1),
    (math.acos(-1.0 + 1e-3), 0.01),   # E0 = 2 - 1e-3, next to the separatrix
    (1e-3, 1e-5),                     # a tiny amplitude, about 50 swings to capture
], ids=["x2.8-eps0.1", "separatrix-eps0.01", "tiny-eps1e-5"])
def test_half_swing_trapezoid_matches_scipy(start, eps):
    # Every step time of the orbit lies within the error estimate of scipy's
    # quad of the same integrand over [-pi/2, pi/2], and so does the rule's
    # own estimate of it.
    it = poincare_iterates("low", start, Params(eps))
    assert len(it.times) >= 9
    for x, x_next, t in zip(it.values, it.values[1:], it.times):
        ref, ref_err = quad(half_swing_integrand(x, x_next), -0.5 * math.pi, 0.5 * math.pi,
                            epsabs=1e-13, epsrel=1e-13, limit=limits.QUAD_LIMIT)
        assert abs(t - ref) <= ref_err, (x, x_next, t, ref, ref_err)
        q = limits._low_step_time(x, x_next, eps, limits.POINCARE_TOL)
        assert q.value == t and q.error_estimate <= 1e-12


def test_half_swing_tol_at_the_roundoff_floor_or_below_the_rounding():
    # A tol under 2 ROUNDOFF T but above eps T is certified at that floor; one
    # below eps T, finer than the rounding of the sum, is met by no floor.
    x, x_next = 2.8, poincare_low(2.8, Params(0.1))
    q = limits._low_step_time(x, x_next, 0.1, 1e-14)
    assert 1e-14 < 2.0 * limits.ROUNDOFF * q.value
    assert q.error_estimate <= 2.0 * limits.ROUNDOFF * q.value
    assert q.value == pytest.approx(limits._low_step_time(x, x_next, 0.1, 1e-10).value, rel=1e-15)
    with pytest.raises(QuadratureError, match=rf"^half-swing from rest at -2\.8 to {x_next!r} at "
                                              r"eps=0\.1: trapezoid estimate 5\.\d+ with error "
                                              r"estimate .* at \d+ nodes, tolerance 1\.000e-16; "
                                              r"the rounding of the sum, eps times the estimate, is 1\.\d+e-15$"):
        limits._low_step_time(x, x_next, 0.1, 1e-16)


def test_half_swing_raises_past_the_node_cap(monkeypatch):
    # The near-separatrix step needs 33 nodes; under a cap of 17 its last
    # estimate, at 17 nodes, is still above the tolerance.
    x = math.acos(-1.0 + 1e-3)
    x_next = poincare_low(x, Params(0.01))
    assert limits._low_step_time(x, x_next, 0.01, 1e-10).evaluations > 17
    monkeypatch.setattr(limits, "TRAPEZOID_MAX_NODES", 17)
    with pytest.raises(QuadratureError, match=rf"^half-swing from rest at -{x!r} to {x_next!r} at "
                                              r"eps=0\.01: trapezoid estimate .* at 17 nodes, "
                                              r"tolerance 1\.000e-10; "):
        poincare_iterates("low", x, Params(0.01))


@pytest.mark.parametrize("zone,start,step_time", [
    ("low", 2.8, lambda it, k, eps: limits._low_step_time(it.values[k], it.values[k + 1], eps,
                                                          limits.POINCARE_TOL)),
    ("high", 3.0, lambda it, k, eps: limits._high_step_time(it.values[k], eps, limits.POINCARE_TOL)),
], ids=["low", "high"])
def test_poincare_iterates_counts_the_evaluations_of_its_step_times(zone, start, step_time):
    eps = 0.05
    it = poincare_iterates(zone, start, Params(eps))
    steps = [step_time(it, k, eps) for k in range(len(it.times))]
    assert it.times == tuple(q.value for q in steps)
    assert it.evaluations == sum(q.evaluations for q in steps) > 0


@pytest.mark.parametrize("f,a,b", [
    (lambda x: math.sin(20.0 * x), 0.0, 1.0),
    (lambda x: 1.0 / (1.0 + 25.0 * x * x), -1.0, 1.0),
    (math.sqrt, 0.0, 1.0),
    (lambda x: abs(x - 0.3), 0.0, 1.0),
    (math.cos, 0.0, 1.0),          # the estimate is the 50 eps roundoff floor
    (math.sin, 0.0, -2.0),         # a reversed interval
], ids=["oscillating", "runge", "sqrt", "kink", "floor", "reversed"])
def test_gk21_panel_is_quadpacks_dqk21(f, a, b):
    # scipy's quad with limit=1 returns one dqk21 panel: its value and its
    # error estimate, which the scaled |Kronrod - Gauss| difference sets.
    ref, ref_err, info = quad(f, a, b, limit=1, full_output=True)[:3]
    val, err, _ = limits._gk21(f, a, b)
    assert info["neval"] == 21
    assert val == pytest.approx(ref, rel=1e-15, abs=0.0)
    assert err == pytest.approx(ref_err, rel=1e-11, abs=0.0)


def test_quad_points_split_the_first_panels():
    # Breakpoints make the first panels; the kink of |x - 0.3| at a point costs
    # one panel per side and no bisection.
    def f(x):
        return abs(x - 0.3)

    val, err, info = limits.quad(f, 0.0, 1.0, points=[0.3], full_output=True)
    assert info["neval"] == 42
    assert val == pytest.approx(0.29, abs=1e-15)
    assert quad(f, 0.0, 1.0, points=[0.3], full_output=True)[2]["neval"] == 42
    assert limits.quad(f, 0.0, 1.0, full_output=True)[2]["neval"] > 42


def test_quad_ends_at_a_non_finite_panel():
    # A NaN value ends the quadrature at once, and _quad refuses it.
    val, err, info = limits.quad(lambda x: math.nan, 0.0, 1.0, full_output=True)
    assert math.isnan(val) and math.isnan(err) and info["neval"] == 21
    with pytest.raises(QuadratureError, match="not finite"):
        limits._quad(lambda x: math.nan if x > 0.9 else 1.0, 0.0, 1.0, 1e-9)


def test_quad_stops_at_the_panel_limit(monkeypatch):
    # period_integral(1e-8) bisects to 29 panels; at a limit of 5 the
    # estimate cannot reach the tolerance, and the error says so.
    _, _, info = limits.quad(lambda s: (math.cos(s) + 1.0 + 1e-8) ** -0.5, 0.0, 2.0 * math.pi,
                             epsabs=1e-11, epsrel=1e-11, limit=5, points=[math.pi],
                             full_output=True)
    assert info["neval"] == 2 * 21 + 3 * 42
    monkeypatch.setattr(limits, "QUAD_LIMIT", 5)
    with pytest.raises(QuadratureError, match="above tolerance 1.000e-09"):
        period_integral(1e-8)


def test_ellipk_matches_scipy():
    ms = [float(m) for m in np.linspace(0.0, 1.0, 1001)[:-1]]
    ms += [1.0 - 10.0 ** -k for k in range(1, 17)] + [-1.0, -10.0]
    for m in ms:
        assert ellipk(m) == pytest.approx(float(scipy_ellipk(m)), rel=1e-15, abs=0.0), m
    assert ellipk(1.0) == math.inf


@pytest.mark.parametrize("m", [1.5, math.nan], ids=["above-1", "nan"])
def test_ellipk_rejects_a_modulus_outside_its_range(m):
    with pytest.raises(ValueError, match=f"^modulus m must be at most 1, got {m}$"):
        ellipk(m)


def test_sine_integral_matches_scipy():
    xs = [float(x) for x in np.linspace(0.0, math.pi, 1001)] + [1e-300, 1e-8]
    for x in xs:
        assert 2.0 * swing_progress(x) == pytest.approx(float(sici(x)[0]), rel=1e-15, abs=0.0), x


@pytest.mark.parametrize("call,message", [
    (lambda: poincare_high(math.nan, Params(0.1)), "section speed must be finite, got nan"),
    (lambda: poincare_high(math.inf, Params(0.1)), "section speed must be finite, got inf"),
    (lambda: poincare_high(-math.inf, Params(0.1)), "section speed must be finite, got -inf"),
    (lambda: swing_progress(math.nan), "amplitude must be finite, got nan"),
    (lambda: swing_progress(math.inf), "amplitude must be finite, got inf"),
    (lambda: swing_progress(3.5), "amplitude 3.5 above pi"),
], ids=["high-nan", "high-inf", "high-minus-inf", "progress-nan", "progress-inf", "progress-above-pi"])
def test_section_map_and_progress_reject_non_finite_values(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()
