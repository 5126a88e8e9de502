import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import sici

from pendamp.dynamics import Params
from pendamp import limits
from pendamp.limits import (
    QuadratureError,
    RegimeExit,
    StandstillCapture,
    amplitude_from_energy,
    constant_D,
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

    def test_orbit_truncated_at_max_steps(self):
        from pendamp.limits import poincare_iterates
        for zone, start in (("low", 2.8), ("high", 3.0)):
            full = poincare_iterates(zone, start, Params(0.05))
            cut = poincare_iterates(zone, start, Params(0.05), max_steps=2)
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
    def test_low_step_times_in_small_eps_regime(self, x0, eps):
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
        fine = poincare_iterates("low", x0, Params(eps), tol=1e-12)
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
                new = limits._low_step_time(x, x_next, eps, 1e-10)
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
    message = f"tol must be positive and finite, got {tol}"
    for call in (lambda: tau(1.0, tol), lambda: tau(3.0, tol), lambda: period_integral(0.1, tol),
                 lambda: poincare_iterates("high", 3.0, Params(0.1), tol=tol)):
        with pytest.raises(ValueError, match=message):
            call()
    if not tol < 1e-12:  # constant_D's 1e-12 floor rejects 0 and -1e-9 first
        with pytest.raises(ValueError, match=message):
            constant_D(tol)


@pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1e-9])
@pytest.mark.parametrize("call", [
    lambda tol: poincare_iterates("high", 0.5, Params(0.1), tol=tol),
    lambda tol: poincare_iterates("low", 0.05, Params(0.1), tol=tol),
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


def test_unreachable_tolerance_raises_quadrature_error():
    # QUADPACK's error estimate for tau_minus(1) stays near 2.5e-14.
    with pytest.raises(QuadratureError, match="above tolerance 1.000e-16"):
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
