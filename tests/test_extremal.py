import math
from dataclasses import replace
from types import SimpleNamespace

import pytest
import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from pendamp import extremal
from pendamp.dynamics import Params
from pendamp.extremal import (
    STOP_ENERGY_EXIT,
    BracketError,
    ExtremalRun,
    SweepPolicy,
    _rhs_lanes,
    bifurcation_table,
    find_bifurcation,
    max_switchings,
    run_diagnostics,
    trace_extremal,
)
from pendamp import limits
from pendamp.limits import constant_D
from oracles import oracle_trace_extremal

D = 0.925968526


def small_sweep(eps, grid=96):
    return max_switchings(Params(eps), SweepPolicy(grid_points=grid))


def canonical_rhs(x, y, phi, psi, u, eps):
    """The canonical right-hand side that the sweeps run, on one lane."""
    return tuple(_rhs_lanes(np.array([[x], [y], [phi], [psi]]), np.array([u * eps]),
                            np.empty((4, 1)))[:, 0])


class TestCanonicalField:
    def test_values_at_origin(self):
        f = canonical_rhs(0.0, 0.0, 0.7, 2.0, 1, 0.3)
        assert f == pytest.approx((0.0, 0.3, 2.0, -0.7), abs=1e-15)

    def test_value_with_negative_psi(self):
        f = canonical_rhs(math.pi, 1.0, 2.0, -3.0, -1, 0.1)
        assert f[0] == 1.0
        assert f[1] == pytest.approx(-0.1, abs=1e-15)
        assert f[2] == pytest.approx(3.0, abs=1e-15)
        assert f[3] == pytest.approx(-2.0, abs=1e-15)

    @settings(max_examples=60, deadline=None)
    @given(x=st.floats(-10, 10), y=st.floats(-5, 5),
           phi=st.floats(-20, 20), psi=st.floats(-20, 20))
    def test_odd_symmetry(self, x, y, phi, psi):
        f = canonical_rhs(x, y, phi, psi, 1, 0.2)
        g = canonical_rhs(-x, -y, -phi, -psi, -1, 0.2)
        for a, b in zip(f, g):
            assert b == pytest.approx(-a, abs=1e-11)


class TestTerminalCostate:
    def test_examples(self):
        # A trace starts at the origin with covector (phi_T, s/eps).
        for phi_T, s, eps, start in ((0.0, 1, 0.5, (0.0, 0.0, 0.0, 2.0)),
                                     (3.0, -1, 0.1, (0.0, 0.0, 3.0, -10.0))):
            run = oracle_trace_extremal(phi_T, s, Params(eps))
            assert run.trajectory.states[0] == pytest.approx(start, abs=1e-14)

    def test_rejects_bad_sign(self):
        with pytest.raises(ValueError, match="s must be"):
            trace_extremal(0.0, 2, Params(0.3))


class TestHamiltonianResidual:
    def test_switch_point_identity(self):
        # At a switching psi = 0, so the zero-Hamiltonian identity forces y*phi = 1.
        run = trace_extremal(0.5 / 0.2, 1, Params(0.2))
        assert run.switch_count >= 3
        for x, y, phi, psi in run.switch_states:
            assert y * phi == pytest.approx(1.0, abs=1e-7)


class TestTraceExtremal:
    def test_residual_stays_small(self):
        p = Params(0.2)
        run = trace_extremal(0.5 / p.epsilon, 1, p)
        assert run.max_hamiltonian_residual <= 1e-7

    def test_family_symmetry(self):
        p = Params(0.25)
        a = trace_extremal(1.7 / p.epsilon, 1, p)
        b = trace_extremal(-1.7 / p.epsilon, -1, p)
        assert a.switch_count == b.switch_count
        assert a.stop_reason == b.stop_reason
        assert a.duration == pytest.approx(b.duration, rel=1e-9)

    def test_trajectory_kept_on_request(self):
        # Only the scalar oracle keeps samples; the kernel's runs have none.
        p = Params(0.3)
        run = oracle_trace_extremal(1.0 / p.epsilon, 1, p, keep_samples=True)
        assert run.trajectory is not None
        assert run.trajectory.states[0] == (0.0, 0.0, 1.0 / p.epsilon, 1.0 / p.epsilon)
        assert oracle_trace_extremal(1.0 / p.epsilon, 1, p, keep_samples=False).trajectory is None
        assert trace_extremal(1.0 / p.epsilon, 1, p).switch_count == run.switch_count
        with pytest.raises(ValueError, match="keep no samples"):
            trace_extremal(1.0 / p.epsilon, 1, p, keep_samples=True)

    def test_adjoint_nondegeneracy(self):
        p = Params(0.2)
        run = oracle_trace_extremal(0.8 / p.epsilon, 1, p, keep_samples=True)
        norms = [s[2] ** 2 + s[3] ** 2 for s in run.trajectory.states]
        terminal = norms[0]
        assert min(norms) > 1e-6 * terminal

    def test_large_amplitude_single_switching(self):
        # At eps = 5 every run exits almost immediately: at most one switching.
        p = Params(5.0)
        res = max_switchings(p, SweepPolicy(grid_points=128))
        assert res.max_raw <= 1


class TestSturmProperties:
    def test_gap_and_interleaving_on_sweep(self):
        res = small_sweep(0.2, grid=128)
        for diag in res.runs:
            if diag.min_gap is not None:
                assert diag.min_gap >= math.pi - 1e-6
            assert diag.interleaving_ok
            assert diag.lemma_bound_ok

    def test_degenerate_run_passes(self):
        p = Params(5.0)
        run = trace_extremal(0.0, 1, p)
        assert run.switch_count <= 1
        d = run_diagnostics(run)
        assert d.min_gap is None
        assert d.spacing_ok and d.interleaving_ok

    def test_report_structure(self):
        p = Params(0.15)
        run = trace_extremal(0.5 / p.epsilon, 1, p)
        ts = run.switch_times
        assert len(ts) >= 3
        zone_free = 0
        for k in range(len(ts) - 1):
            assert ts[k] - ts[k + 1] > 0.0
            if not run.arc_zone_touched[k + 1]:
                zone_free += 1
                assert run.switch_states[k][1] * run.switch_states[k + 1][1] < 0.0
                assert sum(ts[k + 1] < tz < ts[k] for tz in run.y_zero_times) == 1
        assert zone_free
        d = run_diagnostics(run)
        assert d.min_gap == min(a - b for a, b in zip(ts, ts[1:]))
        assert d.spacing_ok and d.interleaving_ok

    def test_violations_are_flagged(self):
        # Switchings 1.5 apart, same velocity sign, no y zero between them.
        state = (0.1, 0.5, 2.0, 0.0)
        run = ExtremalRun(
            phi_T=0.0, sign=1, epsilon=0.2, switch_times=(-1.0, -2.5),
            switch_states=(state, state), switch_in_zone=(False, False), y_zero_times=(),
            arc_zone_touched=(False, False, False), stop_reason=STOP_ENERGY_EXIT,
            duration=3.0, max_hamiltonian_residual=0.0)
        d = run_diagnostics(run)
        assert d.min_gap == 1.5
        assert not d.spacing_ok and not d.interleaving_ok
        # An arc that touches the standstill zone exempts its pair from interleaving.
        d = run_diagnostics(replace(run, arc_zone_touched=(False, True, False)))
        assert d.interleaving_ok and not d.spacing_ok


class TestMaxSwitchings:
    def test_monotone_in_eps(self):
        n_08 = small_sweep(0.8).max_allowed
        n_04 = small_sweep(0.4).max_allowed
        n_02 = small_sweep(0.2).max_allowed
        assert n_08 <= n_04 <= n_02

    def test_sign_family_symmetry(self):
        p = Params(0.3)
        plus = max_switchings(p, SweepPolicy(grid_points=64, signs=(1,)))
        minus = max_switchings(p, SweepPolicy(grid_points=64, signs=(-1,)))
        assert plus.max_allowed == minus.max_allowed
        assert plus.max_raw == minus.max_raw

    def test_scaled_count_band_at_02(self):
        res = small_sweep(0.2, grid=128)
        assert 0.5 * D <= 0.2 * res.max_allowed <= 1.5 * D
        # regression anchor, stable across grid sizes 128..512
        assert res.max_allowed == 5

    def test_early_exit_witness_is_consistent(self):
        p = Params(0.3)
        pol = SweepPolicy(grid_points=96)
        full = max_switchings(p, pol)
        probe = max_switchings(p, pol, stop_at=3)
        assert (full.max_allowed >= 3) == (probe.max_allowed >= 3)

    def test_unresolved_flag_on_zero_budget(self):
        pol = SweepPolicy(grid_points=48, max_extra_runs=0)
        res = max_switchings(Params(0.3), pol)
        assert res.unresolved_transitions

    def test_runs_sorted_and_counted(self):
        res = small_sweep(0.5, grid=48)
        assert res.n_runs >= 96
        keys = [(d.sign, d.phi_T) for d in res.runs]
        assert keys == sorted(keys)


@pytest.fixture(scope="module")
def table_grid_64():
    return bifurcation_table(4, tol=1e-2, policy=SweepPolicy(grid_points=64))


class TestBifurcation:
    def test_first_value_regression(self):
        row = find_bifurcation(1, bracket=(8.0, 11.0), tol=0.02,
                               policy=SweepPolicy(grid_points=96))
        assert row.epsilon_n == pytest.approx(9.22, abs=0.05)
        assert row.bracket_width <= 0.02

    def test_product_near_D_at_n5(self):
        row = find_bifurcation(5, bracket=(0.6 * D / 5, 1.6 * D / 5), tol=2e-3,
                               policy=SweepPolicy(grid_points=96))
        assert abs(row.product - D) / D <= 0.05

    def test_bracket_violation_reported(self):
        with pytest.raises(BracketError):
            find_bifurcation(1, bracket=(0.3, 0.5), tol=1e-2,
                             policy=SweepPolicy(grid_points=48))

    @pytest.mark.parametrize("call,message", [
        (lambda: find_bifurcation(0), "n must be >= 1, got 0"),
        (lambda: bifurcation_table(0), "n_max must be >= 1, got 0"),
        (lambda: SweepPolicy(grid_points=1), "grid_points must be >= 2, got 1"),
        (lambda: find_bifurcation(1, tol=0.0), "tol must be positive and finite, got 0.0"),
        (lambda: find_bifurcation(1, (1.0, 2.0), tol=-1.0),
         "tol must be positive and finite, got -1.0"),
        (lambda: bifurcation_table(1, tol=math.nan), "tol must be positive and finite, got nan"),
        (lambda: SweepPolicy(phi_max_scaled=math.nan),
         "phi_max_scaled must be positive and finite, got nan"),
        (lambda: SweepPolicy(phi_max_scaled=0.0),
         "phi_max_scaled must be positive and finite, got 0.0"),
        (lambda: SweepPolicy(refine_tol=math.inf), "refine_tol must be positive and finite, got inf"),
        (lambda: SweepPolicy(refine_tol=-1e-3), "refine_tol must be positive and finite, got -0.001"),
        (lambda: trace_extremal(math.nan, 1, Params(0.5)), "non-finite g = eps \\* phi_T: nan"),
        (lambda: extremal.trace_lanes([0.0, math.inf], [1, -1], Params(0.5)),
         "non-finite g = eps \\* phi_T: inf"),
    ], ids=["find_bifurcation", "bifurcation_table", "SweepPolicy", "find-tol0", "find-tol-1",
            "table-tol-nan", "phi_max-nan", "phi_max0", "refine_tol-inf", "refine_tol-neg",
            "trace_extremal-nan", "trace_lanes-inf"])
    def test_rejects_degenerate_sizes(self, monkeypatch, call, message):
        def no_scan(*args, **kw):
            raise AssertionError("scanned before rejecting the arguments")

        monkeypatch.setattr(extremal, "max_switchings", no_scan)
        with pytest.raises(ValueError, match=message):
            call()

    def test_table_rows_pinned_at_grid_64(self, table_grid_64):
        rows = table_grid_64.rows
        assert [r.epsilon_n for r in rows] == [
            9.222134765625, 0.649296864083968, 0.36129468151801447, 0.24876743661706974]
        assert [r.bracket_width for r in rows] == [
            0.008542968749999602, 0.009912929222656075, 0.005274374912671742,
            0.0074258936303603085]

    def test_table_rows_grid_converged(self, table_grid_64):
        # A 4x finer phi_T grid finds the same eps_n rows (grid 128 does too).
        fine = bifurcation_table(4, tol=1e-2, policy=SweepPolicy(grid_points=256))
        assert [r.epsilon_n for r in fine.rows] == [r.epsilon_n for r in table_grid_64.rows]

    def test_threads_other_than_one_rejected(self):
        with pytest.raises(ValueError, match="one process"):
            max_switchings(Params(0.5), SweepPolicy(grid_points=16), threads=2)
        with pytest.raises(ValueError, match="one process"):
            find_bifurcation(1, threads=0)


def stub_counts(monkeypatch, count):
    """Replace the sweep behind the bifurcation search by max_allowed = count(eps).

    Returns the list that records each scan as (eps, stop_at), in call order.
    """
    calls = []

    def fake(p, policy=None, stop_at=None):
        calls.append((p.epsilon, stop_at))
        return SimpleNamespace(max_allowed=count(p.epsilon))

    monkeypatch.setattr(extremal, "max_switchings", fake)
    return calls


def staircase(eps):
    """A maximal count that reaches n + 1 exactly for eps <= D/n."""
    return 1 + int(D / eps)


class TestSharedSearch:
    def test_table_scans_no_pair_twice(self, monkeypatch):
        calls = stub_counts(monkeypatch, staircase)
        bifurcation_table(4)
        assert len(calls) == len(set(calls))

    def test_table_rows_pinned(self, monkeypatch):
        stub_counts(monkeypatch, staircase)
        rows = [(r.n, r.epsilon_n, r.product, r.bracket_width)
                for r in bifurcation_table(4).rows]
        assert rows == [
            (1, 0.925875, 0.925875, 0.0007500000000000284),
            (2, 0.46306674999999997, 0.9261334999999999, 0.000741500000000006),
            (3, 0.30889443046875, 0.9266832914062499, 0.0005800834374999897),
            (4, 0.2312587187373047, 0.9250348749492188, 0.0007747360761718725),
        ]

    def test_find_matches_first_table_row(self, monkeypatch):
        stub_counts(monkeypatch, staircase)
        assert find_bifurcation(1) == bifurcation_table(1).rows[0]

    def test_explicit_bracket_ends_are_scanned(self, monkeypatch):
        calls = stub_counts(monkeypatch, staircase)
        row = find_bifurcation(2, bracket=(0.4, 0.5), tol=0.01)
        assert calls[:2] == [(0.4, 3), (0.5, 3)]
        assert len(calls) == len(set(calls))
        assert row.epsilon_n == pytest.approx(D / 2, abs=0.005)


class TestBracketErrors:
    @pytest.mark.parametrize("bracket,count,message", [
        ((0.5, 0.3), lambda e: 2, "need eps_lo < eps_hi"),
        ((0.3, 0.5), lambda e: 1, "count below 2 at eps_lo"),
        ((0.3, 0.5), lambda e: 2, "count already >= 2 at eps_hi"),
        (None, lambda e: 2, "count >= 2 persists up to eps"),
        (None, lambda e: 1, "count never reaches 2 down to eps"),
    ])
    def test_find_bifurcation(self, monkeypatch, bracket, count, message):
        stub_counts(monkeypatch, count)
        with pytest.raises(BracketError, match=message):
            find_bifurcation(1, bracket=bracket)

    def test_find_bifurcation_auto_bracket_succeeds(self, monkeypatch):
        stub_counts(monkeypatch, lambda e: 2 if e < 0.7 else 1)
        row = find_bifurcation(1, tol=1e-4)
        assert row.epsilon_n == pytest.approx(0.7, abs=1e-4)

    def test_table_count_persists(self, monkeypatch):
        stub_counts(monkeypatch, lambda e: 2)
        with pytest.raises(BracketError, match="count >= 2 persists"):
            bifurcation_table(2)

    def test_table_count_never_reaches(self, monkeypatch):
        stub_counts(monkeypatch, lambda e: 3 if e < 0.5 else 1)
        with pytest.raises(BracketError, match="count never reaches 4 down to eps"):
            bifurcation_table(3)


class TestStopPolicy:
    def test_exit_runs_reach_threshold(self):
        p = Params(0.2)
        res = small_sweep(0.2, grid=64)
        exits = [d for d in res.runs if d.stop_reason == STOP_ENERGY_EXIT]
        assert exits  # the family always contains escaping runs
        for d in exits[:5]:
            run = oracle_trace_extremal(d.phi_T, d.sign, p, keep_samples=True)
            y_end = abs(run.trajectory.states[-1][1])
            assert y_end == pytest.approx(math.sqrt(5.0), abs=1e-6)


def test_run_diagnostics_fields():
    p = Params(0.25)
    run = trace_extremal(1.2 / p.epsilon, 1, p)
    d = run_diagnostics(run)
    assert d.switch_count == run.switch_count
    assert d.allowed_count in (run.switch_count, run.switch_count + 1)
    assert d.as_dict()["stop_reason"] == run.stop_reason


def test_sweep_wide_hamiltonian_residual():
    res = max_switchings(Params(0.25), SweepPolicy(grid_points=96))
    worst = max(d.max_h_residual for d in res.runs)
    assert worst <= 1e-7


def test_tau_values_are_tau_at_the_knots():
    # The table is written out as literals; QUADPACK's last bits may differ
    # between scipy versions, so the check is relative, not bitwise.
    knots, values = extremal._TAU_KNOTS, extremal._TAU_VALUES
    assert len(knots) == len(values) == 65
    assert knots[0] == values[0] == 0.0
    for e, v in zip(knots[1:], values[1:]):
        assert v == pytest.approx(limits.tau(e, 1e-9).value, rel=1e-12, abs=0.0)
