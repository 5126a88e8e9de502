import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.optimize import minimize_scalar

from pendamp.linosc import (
    LinState,
    curve_height,
    lin_feedback,
    lin_simulate,
    lin_support,
    phi0_constant,
    support_deviation,
)

PHI0_PAPER = 0.2105


class TestSwitchingCurve:
    def test_curve_heights(self):
        assert curve_height(1.0) == -1.0
        assert curve_height(2.0) == 0.0
        assert curve_height(4.0) == 0.0
        assert curve_height(5.0) == -1.0
        assert curve_height(-1.0) == 1.0  # odd symmetry
        assert curve_height(0.0) == 0.0


@pytest.mark.parametrize("x,y", [(math.nan, 0.0), (0.0, math.inf), (-math.inf, 1.0)])
def test_state_rejects_non_finite(x, y):
    with pytest.raises(ValueError, match="non-finite state"):
        LinState(x, y)


class TestFeedback:
    def test_terminal_semicircle_says_plus(self):
        for beta in (0.3, 1.0, 2.5):
            s = LinState(1.0 - math.cos(beta), -math.sin(beta))
            assert lin_feedback(s) == 1

    def test_anchor_at_two_zero(self):
        # Junction point: forward +1 rides the terminal arc into the origin.
        assert lin_feedback(LinState(2.0, 0.0)) == 1
        res = lin_simulate(LinState(2.0, 0.0))
        assert res.damping_time == pytest.approx(math.pi, abs=1e-12)
        assert res.switch_count == 0

    def test_regions(self):
        assert lin_feedback(LinState(0.0, 3.0)) == -1   # far above
        assert lin_feedback(LinState(0.0, -3.0)) == 1   # far below
        assert lin_feedback(LinState(5.0, -2.0)) == 1   # below the curve

    def test_origin_rejected(self):
        with pytest.raises(ValueError):
            lin_feedback(LinState(0.0, 0.0))

    @settings(max_examples=80, deadline=None)
    @given(x=st.floats(-12, 12), y=st.floats(-12, 12))
    @example(x=0.0, y=1e-300)
    @example(x=-0.0, y=1e-300)
    def test_antisymmetry(self, x, y):
        if x == 0.0 and y == 0.0:
            return
        assert lin_feedback(LinState(-x, -y)) == -lin_feedback(LinState(x, y))


class TestSimulate:
    def test_terminal_arc_time_equals_angle(self):
        for beta in (0.5, 1.0, 2.0, math.pi):
            p0 = LinState(1.0 - math.cos(beta), -math.sin(beta))
            res = lin_simulate(p0)
            assert res.damping_time == pytest.approx(beta, abs=1e-9)
            assert res.switch_count == 0

    def test_damping_time_law(self):
        e = 50.0
        res = lin_simulate(LinState(0.0, math.sqrt(2.0 * e)))
        assert abs(res.damping_time - math.pi * math.sqrt(e / 2.0)) <= 4.0

    def test_remainder_bounded_and_nongrowing(self):
        rema = []
        for e in (10.0, 50.0, 100.0, 200.0, 400.0):
            res = lin_simulate(LinState(0.0, math.sqrt(2.0 * e)))
            rema.append(abs(res.damping_time - math.pi * math.sqrt(e / 2.0)))
        assert max(rema) <= 0.5  # measured desk constant
        assert rema[-1] <= max(rema[:-1]) + 1e-9

    def test_switch_count_scaling(self):
        for e in (10.0, 50.0, 100.0, 400.0):
            res = lin_simulate(LinState(0.0, math.sqrt(2.0 * e)))
            assert abs(res.switch_count - math.sqrt(e / 2.0)) <= 2.5

    def test_switch_points_on_curve(self):
        res = lin_simulate(LinState(0.3, math.sqrt(200.0)))
        assert res.switch_count >= 5
        for sx, sy in res.switch_points:
            assert abs(sy - curve_height(sx)) <= 1e-8

    def test_origin_start(self):
        res = lin_simulate(LinState(0.0, 0.0))
        assert res.damping_time == 0.0

    def test_arc_budget_exhausted(self):
        with pytest.raises(RuntimeError, match="arc budget exhausted after 1 arcs"):
            lin_simulate(LinState(0.0, 20.0), max_arcs=1)


class TestSupportFunction:
    def test_paper_value_over_one_period(self):
        assert lin_support((0.0, 1.0), math.pi) == pytest.approx(2.0, abs=1e-12)

    def test_matches_direct_quadrature(self):
        for xi, T in (((0.3, 1.2), 2.7), ((-1.0, 0.4), 9.3), ((0.0, 2.0), 0.7)):
            alpha = math.atan2(xi[0], xi[1])
            kinks = []
            k = -8
            while k < 8:
                t_k = alpha + 0.5 * math.pi + k * math.pi
                if 0.0 < t_k < T:
                    kinks.append(t_k)
                k += 1
            direct = quad(lambda t: abs(xi[0] * math.sin(t) + xi[1] * math.cos(t)),
                          0.0, T, points=kinks or None, limit=200)[0]
            assert lin_support(xi, T) == pytest.approx(direct, abs=1e-10)

    @settings(max_examples=60, deadline=None)
    @given(c=st.floats(1e-3, 1e3), t=st.floats(0.0, 20.0))
    def test_homogeneity(self, c, t):
        base = lin_support((0.6, -0.8), t)
        assert lin_support((0.6 * c, -0.8 * c), t) == pytest.approx(c * base, rel=1e-12)

    def test_deviation_is_pi_periodic(self):
        for t in (0.2, 1.0, 2.8):
            assert support_deviation(t + math.pi) == pytest.approx(support_deviation(t), abs=1e-12)

    def test_max_deviation_equals_two_phi0(self):
        best = 0.0
        n = 400
        for i in range(n + 1):
            alpha = math.pi * i / n
            xi = (math.sin(alpha), math.cos(alpha))
            for j in range(1200):
                t = 4.0 * math.pi * (j + 1) / 1200
                best = max(best, abs(lin_support(xi, t) - 2.0 * t / math.pi))
        assert best == pytest.approx(2.0 * phi0_constant(), abs=1e-3)

    def test_rejects_negative_horizon(self):
        with pytest.raises(ValueError):
            lin_support((1.0, 0.0), -1.0)


class TestPhi0:
    def test_paper_value(self):
        assert abs(phi0_constant() - PHI0_PAPER) <= 5e-5

    def test_is_the_maximum_of_the_deviation(self):
        res = minimize_scalar(lambda t: -support_deviation(t), bounds=(0.0, 0.5 * math.pi),
                              method="bounded", options={"xatol": 1e-12})
        t_star = res.x
        assert t_star == pytest.approx(math.acos(2.0 / math.pi), abs=1e-6)
        assert -res.fun == pytest.approx(phi0_constant(), abs=1e-12)

    def test_zero_at_period_ends(self):
        assert support_deviation(0.0) == 0.0
        assert support_deviation(math.pi) == pytest.approx(0.0, abs=1e-12)
