"""Tests of the Taylor lane kernel trace_lanes, differential against the DP5 oracle."""

import functools
import math
import random
import time
from dataclasses import replace

import numpy as np
import pytest

from pendamp import extremal, integrator
from pendamp.acceptance import EXTREMAL_EPS_LIST
from pendamp.dynamics import ZONE_FACTOR, Params
from pendamp.extremal import (
    OPTIMALITY_SLACK,
    SPEED_EXIT,
    STOP_ENERGY_EXIT,
    STOP_OPTIMALITY,
    STOP_STANDSTILL,
    STOP_TIME_BUDGET,
    LaneWork,
    SweepPolicy,
    _horner,
    _horner_lanes,
    _poly_root,
    _root,
    _XYPQ,
    _SeriesBlock,
    _step_rule,
    _tau_bound,
    _tau_bound_at,
    max_switchings,
    phi_grid,
    run_diagnostics,
    trace_lanes,
)
from pendamp.integrator import (EVENT_TOL, RISING, STOP_STEP_FAILURE, TAYLOR_ORDER, EventSpec,
                                StepControl, _taylor, brentq, integrate)
from oracles import oracle_canonical_series, oracle_lane_series, oracle_trace_extremal

GRID = 48


def grid_jobs(grid, gmax=4.0):
    return [(g, s) for s in (1, -1) for g in phi_grid(grid, gmax)]


def mirrored(run):
    """The run from (-phi_T, -s): every state negated, times and counts kept."""
    return replace(run, phi_T=-run.phi_T, sign=-run.sign,
                   switch_states=tuple(tuple(-v for v in st) for st in run.switch_states),
                   end_state=tuple(-v for v in run.end_state))


def assert_mirror_pairs(jobs, runs):
    """The lane from (-g, -s) is, field by field, the mirror of the lane from (g, s)."""
    by_job = dict(zip(jobs, runs))
    for (g, s), run in by_job.items():
        assert by_job[(-g, -s)] == mirrored(run), (g, s)


@pytest.mark.parametrize("n", [2, 3, 47, 48, 128, 512])
def test_phi_grid_is_antisymmetric(n):
    g = phi_grid(n, 4.0)
    assert len(g) == n and g[0] == -4.0 and g[-1] == 4.0
    assert all(g[n - 1 - i] == -g[i] for i in range(n))
    # The g <= 0 half is the uniform formula the sweeps have always used.
    old = [(-4.0 + 2.0 * 4.0 * i / (n - 1)) for i in range(n)]
    assert [v.hex() for v in g[:(n + 1) // 2]] == [v.hex() for v in old[:(n + 1) // 2]]


def lanes(jobs, eps, **kw):
    return trace_lanes([g for g, _ in jobs], [s for _, s in jobs], Params(eps), **kw)


def oracle_sweep(p, policy, stop_at=None):
    """max_switchings as a one-run-at-a-time scan over the scalar oracle.

    The refinement reads extremal.REFINE_TOL and extremal.MAX_EXTRA_RUNS at
    the call, so that a test may patch them.
    """
    eps = p.epsilon
    table = {}

    def diag(g, s):
        return run_diagnostics(oracle_trace_extremal(g / eps, s, p, keep_samples=False))

    def found(d):
        return stop_at is not None and d.allowed_count >= stop_at

    def key(d):
        return (d.allowed_count, d.stop_reason)

    for g, s in grid_jobs(policy.grid_points, policy.phi_max_scaled):
        table[(g, s)] = diag(g, s)
        if found(table[(g, s)]):
            return table, False
    frontier = []
    for s in (1, -1):
        gs = sorted(g for (g, sg) in table if sg == s)
        frontier += [(a, b, s) for a, b in zip(gs, gs[1:])
                     if key(table[(a, s)]) != key(table[(b, s)])]
    extra = 0
    while frontier:
        frontier.sort()
        a, b, s = frontier.pop(0)
        if b - a <= extremal.REFINE_TOL:
            continue
        if extra >= extremal.MAX_EXTRA_RUNS:
            return table, True
        m = 0.5 * (a + b)
        d = table[(m, s)] = diag(m, s)
        extra += 1
        if found(d):
            break
        if key(d) != key(table[(a, s)]):
            frontier.append((a, m, s))
        if key(d) != key(table[(b, s)]):
            frontier.append((m, b, s))
    return table, False


def assert_matches_oracle(run, ref):
    """Same fate, switch times within 1e-8, end within 1e-6, as the DP5 oracle."""
    assert run.phi_T == ref.phi_T and run.sign == ref.sign
    assert (run.allowed_count, run.stop_reason) == (ref.allowed_count, ref.stop_reason), run.phi_T
    assert len(run.switch_times) == len(ref.switch_times)
    assert run.switch_times == pytest.approx(ref.switch_times, abs=1e-8)
    assert run.arc_zone_touched == ref.arc_zone_touched
    assert run.duration == pytest.approx(ref.duration, abs=1e-6)


@pytest.mark.parametrize("eps", EXTREMAL_EPS_LIST)
def test_every_grid_lane_matches_oracle(eps):
    p = Params(eps)
    jobs = grid_jobs(GRID)
    runs = lanes(jobs, eps)
    for (g, s), run in zip(jobs, runs):
        assert_matches_oracle(run, oracle_trace_extremal(g / eps, s, p, keep_samples=False))
    assert_mirror_pairs(jobs, runs)


@pytest.mark.parametrize("eps", [0.3, 0.12])
def test_fate_table_matches_oracle(eps):
    # The g < 0 half of phi_grid(256, 4), sign +1: the lanes whose fates moved
    # with the DP5 kernel's tolerance when the cuts were tested at samples.
    p = Params(eps)
    g = phi_grid(256, 4.0)[:128]
    for gi, run in zip(g, trace_lanes(g, [1] * len(g), p)):
        assert_matches_oracle(run, oracle_trace_extremal(gi / eps, 1, p, keep_samples=False))


def test_zone_pass_shorter_than_a_step_ends_the_lane():
    # After its second switch this lane crosses a corner of the standstill
    # zone in 0.006 time units, under a Taylor step of 0.26 there: step ends
    # alone would step over the pass.
    eps, g = 0.3, -0.5176470588235293
    thr = ZONE_FACTOR * eps
    (run,) = trace_lanes([g], [1], Params(eps))
    assert run.stop_reason == STOP_STANDSTILL and run.switch_count == 2
    x, y, phi, psi = run.end_state
    assert max(abs(y), abs(math.sin(x))) == pytest.approx(thr, abs=EVENT_TOL)
    u = 1.0  # the third arc, as the first: u = s
    # One lane, doubled as trace_lanes runs it: a block holds two lanes.
    z = np.repeat(np.array([[x], [y], [eps * phi], [eps * psi]]), 2, axis=1)
    step = _step_rule(_SeriesBlock(2, 1.0)(z, np.repeat(u * eps, 2)))[0]
    leave = EventSpec(lambda t, s: max(abs(s[1]), abs(math.sin(s[0]))) - thr, RISING, True)
    seg = integrate(lambda t, s: (s[1], u * eps - math.sin(s[0])), (x, y), -run.duration,
                    -run.duration - 1.0, [leave], StepControl(rtol=1e-13, atol=1e-15, max_step=1e-4))
    inside = run.duration + seg.t_end
    assert 0.0 < -inside < 0.01 and step > 0.2


@pytest.mark.parametrize("eps", [0.3, 0.12])
def test_cuts_and_exits_are_located(eps):
    # Each run ends on its event: the budget line, the zone boundary or the
    # speed exit, to the event tolerance.
    p = Params(eps)
    thr = ZONE_FACTOR * eps
    work = LaneWork()
    g = phi_grid(256, 4.0)[:128]
    runs = trace_lanes(g, [1] * len(g), p, work=work)
    reasons = set()
    for run in runs:
        x, y, _, _ = run.end_state
        if run.stop_reason == STOP_OPTIMALITY:
            energy = 0.5 * y * y + 1.0 - math.cos(x)
            gap = float(_tau_bound(energy)) / eps + OPTIMALITY_SLACK - run.duration
            assert abs(gap) <= EVENT_TOL
        elif run.stop_reason == STOP_STANDSTILL:
            assert max(abs(y), abs(math.sin(x))) == pytest.approx(thr, abs=EVENT_TOL)
        elif run.stop_reason == STOP_ENERGY_EXIT:
            assert y * y == pytest.approx(SPEED_EXIT ** 2, abs=EVENT_TOL)
        reasons.add(run.stop_reason)
    assert {STOP_OPTIMALITY, STOP_STANDSTILL} <= reasons
    assert 0.0 < work.event_residual_max <= EVENT_TOL


def test_scalar_tau_bound_is_the_vector_bound_bit_for_bit():
    # The scalar location and the vector screen read one table: on each
    # energy, as on its neighbouring floats, they give the same float.
    knots = extremal._TAU_KNOTS
    energies = np.concatenate([
        knots, np.nextafter(knots, -np.inf), np.nextafter(knots, np.inf),
        [0.0, -0.0, -1e-300, -1e-12, -0.5, -3.0, 6.5, 1e3, 1e300],
        np.linspace(-0.5, knots[-1] + 0.5, 20001),
    ])
    scalar = [_tau_bound_at(E) for E in energies.tolist()]
    vector = _tau_bound(energies).tolist()
    assert [a.hex() for a in scalar] == [b.hex() for b in vector]


def test_segment_lines_meet_the_tau_values_at_both_knots():
    # The kernel's bound, which the DP5 oracle also reads, against the
    # written-out table: segment i's line takes the table's value at knot i
    # and at knot i + 1, and past the last knot it is flat at the last value.
    knots, values = extremal._TAU_KNOTS, extremal._TAU_VALUES
    seg = np.arange(knots.size - 1)
    for at in (seg, seg + 1):
        lines = _tau_bound(knots[at], seg).tolist()
        for i, line, want in zip(seg.tolist(), lines, values[at].tolist()):
            assert abs(line - want) <= 4 * math.ulp(want), (i, line, want)
    last = knots.size - 1
    assert _tau_bound(np.array([knots[-1], 2.0 * knots[-1]]), last).tolist() == [values[-1]] * 2


def test_first_order_coefficients_are_the_field():
    rng = np.random.default_rng(11)
    m = 2000
    z = np.vstack([rng.uniform(-10, 10, m), rng.uniform(-3, 3, m), rng.uniform(-5, 5, m),
                   rng.uniform(-5, 5, m)])
    ueps = rng.choice([-1.0, 1.0], m) * rng.uniform(0.01, 1.0, m)
    cf = _SeriesBlock(m, 1.0)(z, ueps)[:, _XYPQ]
    x, y, phi, psi = z
    assert (cf[0] == z).all()
    field = np.array([y, ueps - np.sin(x), np.cos(x) * psi, -phi])
    assert (cf[1] == field).all()


def test_series_unit_is_per_lane():
    # A block of lanes with one unit each gives, bit for bit, each lane's
    # coefficients in a block of its own unit.
    rng = np.random.default_rng(6)
    units = np.array([1.0, 0.5, 1 / 3, 1 / 9.5, 1 / 11.0, 1.0])
    m = units.size
    z = np.vstack([rng.uniform(-7, 7, m), rng.uniform(-2.3, 2.3, m), rng.uniform(-4, 4, m),
                   rng.uniform(-1.5, 1.5, m)])
    ueps = rng.choice([-1.0, 1.0], m) / units
    cf = _SeriesBlock(m, units)(z, ueps)[:, _XYPQ]
    for k, unit in enumerate(units.tolist()):
        alone = _SeriesBlock(m, unit)(z, ueps)[:, _XYPQ]
        assert [v.hex() for v in cf[:, :, k].ravel().tolist()] == \
            [v.hex() for v in alone[:, :, k].ravel().tolist()]


def test_series_matches_the_textbook_recurrences():
    rng = np.random.default_rng(4)
    z = np.vstack([rng.uniform(-7, 7, 40), rng.uniform(-2.3, 2.3, 40), rng.uniform(-4, 4, 40),
                   rng.uniform(-1.5, 1.5, 40)])
    ueps = rng.choice([-1.0, 1.0], 40) * rng.uniform(0.05, 1.0, 40)
    cf = _SeriesBlock(40, 1.0)(z, ueps)[:, _XYPQ]
    series = _taylor()
    for k in range(40):
        ref = np.array(oracle_canonical_series(z[:, k], ueps[k], TAYLOR_ORDER))
        assert cf[:, :, k] == pytest.approx(ref, rel=1e-12, abs=1e-15)
        # The x, y rows are the damping arcs' series of x' = y, y' = -sin x + pull.
        xs, ys, _ = series(z[0, k], z[1, k], ueps[k], math.cos(z[0, k]))
        assert cf[:, 0, k] == pytest.approx(xs, rel=1e-12, abs=1e-15)
        assert cf[:, 1, k] == pytest.approx(ys, rel=1e-12, abs=1e-15)


@pytest.mark.parametrize("m", [2, 5, 64, 384])
def test_series_is_the_scalar_recurrences_bit_for_bit(m):
    # Each lane of a block of mixed units is, bit for bit, the scalar
    # recurrences in the kernel's order with that lane's factors H/k.
    rng = np.random.default_rng(m)
    units = rng.choice([1.0, 0.5, 1 / 3, 1 / 9.5, 1 / 11.0, 1e-3], m)
    z = np.vstack([rng.uniform(-9, 9, m), rng.uniform(-3, 3, m), rng.uniform(-5, 5, m),
                   rng.uniform(-2, 2, m)])
    z[:, ::7] = 0.0
    ueps = rng.choice([-1.0, 1.0], m) * rng.uniform(0.01, 1.0, m) / units
    cf = _SeriesBlock(m, units)(z, ueps)[:, _XYPQ]
    for k in range(m):
        ref = oracle_lane_series(z[:, k].tolist(), float(ueps[k]), float(units[k]), TAYLOR_ORDER)
        assert [v.hex() for v in cf[:, :, k].ravel().tolist()] == \
            [v.hex() for row in ref for v in row], k


def test_horner_is_the_lane_block_sum():
    # Events are located on _horner; at the step's ends it must give, bit for
    # bit, the values the block screens saw.
    rng = np.random.default_rng(5)
    cf = rng.normal(size=(TAYLOR_ORDER + 1, 4, 64)) / np.arange(1, TAYLOR_ORDER + 2)[:, None, None]
    tau = rng.uniform(-1.0, 1.0, 64)
    block = _horner_lanes(cf, tau)
    for k in range(64):
        for c in range(4):
            assert _horner(cf[:, c, k].tolist(), float(tau[k])) == block[c, k]
            assert _horner(cf[:, c, k].tolist(), 0.0) == cf[0, c, k]


def test_mirror_lane_is_the_exact_negation():
    eps = 0.17
    jobs = [(g, s) for g in (-2.3, -0.5, 0.0, 0.8, 3.1) for s in (1, -1)]
    jobs += [(-g, -s) for g, s in jobs]
    assert_mirror_pairs(jobs, lanes(jobs, eps))


@pytest.mark.parametrize("eps", [1e13, 1e100, 1e300])
def test_huge_amplitude_lanes_exit(eps):
    # The first arc exits at t ~ -sqrt(5)/eps: no dead band may hide it, and
    # the series, taken in units of 1/eps, stays finite.
    begin = time.perf_counter()
    jobs = grid_jobs(8)
    for run in lanes(jobs, eps):
        assert (run.stop_reason, run.switch_count, run.allowed_count) == (STOP_ENERGY_EXIT, 0, 1)
        assert run.duration * eps == pytest.approx(math.sqrt(5.0), rel=1e-6)
    res = max_switchings(Params(eps), SweepPolicy(grid_points=4))
    assert res.max_allowed == 1
    assert time.perf_counter() - begin < 10.0


def test_work_record_adds_up():
    eps = 0.25
    jobs = grid_jobs(GRID)
    work = LaneWork()
    runs = lanes(jobs, eps, work=work)
    lanes(jobs[:5], eps, work=work)
    assert work.batches == 2 and work.peak_lanes == len(jobs)
    assert 0 < work.batch_steps < work.lane_steps
    assert work.events >= sum(r.switch_count + len(r.y_zero_times) for r in runs)
    assert sum(work.stops.values()) == len(jobs) + 5
    res = max_switchings(Params(eps), SweepPolicy(grid_points=GRID))
    assert res.stats.batches >= 2  # the grid batch and the refinement rounds
    assert sum(res.stats.stops.values()) >= res.n_runs // 2  # one traced lane per mirror pair


# Each stop policy with the stop reasons its runs reach at eps 0.5 and 0.2 on
# grid 16: the time budget factor and the Jorba-Zou tolerance it runs at
# (None: TIME_BUDGET_FACTOR, TAYLOR_TOL).  A NaN tolerance makes every step
# NaN, which is a step failure.
STOP_POLICIES = {
    "default": (None, None, {STOP_ENERGY_EXIT, STOP_OPTIMALITY, STOP_STANDSTILL}),
    "short-budget": (1.0, None, {STOP_TIME_BUDGET}),
    "non-finite-step": (None, math.nan, {STOP_STEP_FAILURE}),
}


def test_stop_policies_reach_every_stop_reason():
    reached = set().union(*(reasons for _, _, reasons in STOP_POLICIES.values()))
    assert reached == {STOP_ENERGY_EXIT, STOP_OPTIMALITY, STOP_STANDSTILL, STOP_TIME_BUDGET,
                       STOP_STEP_FAILURE}


@pytest.mark.parametrize("name", STOP_POLICIES)
def test_every_stop_policy_matches_oracle(name, monkeypatch):
    factor, tol, reasons = STOP_POLICIES[name]
    if factor is not None:  # the oracle reads the patched constant too
        monkeypatch.setattr(extremal, "TIME_BUDGET_FACTOR", factor)
    if tol is not None:
        monkeypatch.setattr(extremal, "TAYLOR_TOL", tol)
    reached = set()
    for eps in (0.5, 0.2):
        p = Params(eps)
        jobs = grid_jobs(16)
        runs = lanes(jobs, eps)
        for (g, s), run in zip(jobs, runs):
            if tol is None:
                assert_matches_oracle(run, oracle_trace_extremal(g / eps, s, p, keep_samples=False))
            else:  # the first step fails: the run ends where it began
                assert (run.switch_count, run.duration) == (0, 0.0)
                assert run.end_state == pytest.approx((0.0, 0.0, g / eps, s / eps), rel=1e-15)
            reached.add(run.stop_reason)
        assert_mirror_pairs(jobs, runs)
    assert reasons <= reached


@pytest.mark.parametrize("eps,policy,max_extra_runs", [
    (0.3, SweepPolicy(grid_points=GRID), None),
    (0.3, SweepPolicy(grid_points=GRID), 5),
    (0.5, SweepPolicy(grid_points=32), None),
    (0.3, SweepPolicy(grid_points=47), None),
], ids=["0.3-policy0", "0.3-policy1", "0.5-policy2", "0.3-policy3"])
def test_sweep_matches_oracle_sweep(eps, policy, max_extra_runs, monkeypatch):
    if max_extra_runs is not None:
        monkeypatch.setattr(extremal, "MAX_EXTRA_RUNS", max_extra_runs)
    p = Params(eps)
    ref, unresolved = oracle_sweep(p, policy)
    res = max_switchings(p, policy)
    assert res.max_allowed == max(d.allowed_count for d in ref.values())
    assert res.n_runs == len(ref)
    assert [(d.sign, d.phi_T) for d in res.runs] == sorted((s, g / eps) for g, s in ref)
    order = sorted(ref, key=lambda k: (k[1], k[0]))
    assert [(d.allowed_count, d.stop_reason) for d in res.runs] == \
           [(ref[k].allowed_count, ref[k].stop_reason) for k in order]
    assert res.unresolved_transitions == unresolved


def test_sweep_traces_one_lane_per_mirror_pair(monkeypatch):
    batches = []

    def spy(g, signs, *args, **kw):
        batches.append(list(zip(g, signs)))
        return trace_lanes(g, signs, *args, **kw)

    monkeypatch.setattr(extremal, "trace_lanes", spy)
    max_switchings(Params(0.3), SweepPolicy(grid_points=GRID))
    assert len(batches[0]) == GRID
    assert len(batches) > 1  # the refinement rounds ran
    traced = set()
    for batch in batches:
        for g, s in batch:
            assert (-g, -s) not in traced
            traced.add((g, s))


@pytest.mark.parametrize("grid,stop_at", [(32, 3), (32, 4), (32, 5), (3, 4)])
def test_early_exit_answer_matches_oracle(grid, stop_at):
    # At grid 3 the grid holds no run with count 4; the refinement finds one.
    p = Params(0.3)
    policy = SweepPolicy(grid_points=grid)
    ref, _ = oracle_sweep(p, policy, stop_at)
    reached = max(d.allowed_count for d in ref.values()) >= stop_at
    res = max_switchings(p, policy, stop_at=stop_at)
    assert (res.max_allowed >= stop_at) == reached
    if grid == 3:
        assert reached and res.n_runs == len(ref)


def test_lane_is_bit_identical_in_any_batch(monkeypatch):
    eps = 0.2
    jobs = grid_jobs(24)
    batch = lanes(jobs, eps)
    shuffled = jobs[:]
    random.Random(7).shuffle(shuffled)
    by_job = dict(zip(shuffled, lanes(shuffled, eps)))
    for job, run in zip(jobs, batch):
        assert by_job[job] == run
    for job in jobs[::7]:
        assert lanes([job], eps) == [by_job[job]]

    # Most lanes finish early and a few long ones run on: the finished lanes
    # ride masked in the block until it is compacted, and the long ones go on
    # in the compacted block.
    widths = []

    class Block(extremal._SeriesBlock):
        def __init__(self, width, unit):
            widths.append(width)
            super().__init__(width, unit)

    monkeypatch.setattr(extremal, "_SeriesBlock", Block)
    by_length = sorted(jobs, key=lambda job: by_job[job].duration)
    mixed = by_length[:20] + by_length[-3:]
    random.Random(8).shuffle(mixed)
    widths.clear()
    for job, run in zip(mixed, lanes(mixed, eps)):
        assert run == by_job[job]
    assert widths[0] == len(mixed) and min(widths) < len(mixed) // 2

    # A stop_at batch ends once a witness run ends; the block has been
    # compacted on the way, as its other lanes ended.
    eps = 0.3
    widths.clear()
    witness = lanes(jobs, eps, stop_at=4)
    assert widths[-1] < widths[0] and any(r is not None and r.allowed_count >= 4 for r in witness)
    for job, run in zip(jobs, witness):
        if run is not None:
            assert lanes([job], eps) == [run]


def test_budget_screen_holds_on_steps_with_a_zero_of_y(monkeypatch):
    # At coarse Taylor tolerances one step of these lanes holds a zero of y
    # and passes the budget line between its ends: the energy falls after
    # the zero, and with it the gap, faster than the clock.  The screen must
    # send that step to the budget scan, so that the run ends on the budget
    # as the DP5 oracle's does, not later in the standstill zone.
    eps = 0.27755822909343125
    g = phi_grid(128, 4.0)
    jobs = [(g[i], 1) for i in (25, 32, 37)]  # phi_T = -8.7376..., -7.1490..., -6.0142...
    refs = [oracle_trace_extremal(gi / eps, s, Params(eps), keep_samples=False) for gi, s in jobs]
    assert {(r.allowed_count, r.stop_reason) for r in refs} == {(1, STOP_OPTIMALITY)}
    for tol in (1e-10, 1e-9, 1e-8):
        monkeypatch.setattr(extremal, "TAYLOR_TOL", tol)
        for run, ref in zip(lanes(jobs, eps), refs):
            assert (run.allowed_count, run.stop_reason) == (ref.allowed_count, ref.stop_reason), tol
            assert run.duration == pytest.approx(ref.duration, abs=1e-6)


def test_newton_roots_match_brentq(monkeypatch):
    # Every polynomial root of real batches: the switch, the zeros of y and
    # the maps from the first integral's w back to the step variable.
    calls = []
    root = extremal._poly_root

    def spy(*args):
        calls.append(args)
        return root(*args)

    monkeypatch.setattr(extremal, "_poly_root", spy)
    for eps in (0.3, 0.15):
        lanes(grid_jobs(GRID), eps)
    bracketed = 0
    for c, level, a, b, fa, fb in calls:
        # The ends' values are the ones the block holds.
        assert (fa, fb) == (_horner(c, a) - level, _horner(c, b) - level)
        s = root(c, level, a, b, fa, fb)
        assert min(a, b) <= s <= max(a, b)
        if fa * fb < 0.0:
            bracketed += 1
            ref = brentq(lambda v: _horner(c, v) - level, a, b, xtol=1e-14, rtol=8.9e-16)
            assert abs(s - ref) <= 1e-14
            assert abs(_horner(c, s) - level) <= EVENT_TOL
    assert bracketed >= 1000


def test_newton_root_falls_back_to_bisection_and_keeps_the_one_sign_rule(monkeypatch):
    c = [0.0] * (TAYLOR_ORDER + 1)
    c[0], c[15] = -0.5, 1.0  # s^15 - 1/2 on [0, 1]: the secant point 1/2 sends Newton to 544
    seen = []
    pair = integrator._horner_pair

    def spy(c, s):
        seen.append(s)
        return pair(c, s)

    monkeypatch.setattr(integrator, "_horner_pair", spy)
    s = _poly_root(c, 0.0, 0.0, 1.0, -0.5, 0.5)
    assert seen[:2] == [0.5, 0.75]  # the Newton step left [0.5, 1]: bisection instead
    assert s == pytest.approx(0.5 ** (1.0 / 15.0), abs=1e-15)
    c = [0.0] * (TAYLOR_ORDER + 1)
    c[0], c[2] = -0.25, 1.0  # s^2 - 1/4
    seen.clear()
    # One sign at both ends: the end where the value is least, a on a tie.
    assert _poly_root(c, 0.0, -1.0, 2.0, 0.75, 3.75) == -1.0
    assert _poly_root(c, 0.0, 2.0, -1.0, 3.75, 0.75) == -1.0
    assert _poly_root(c, 0.0, 1.0, -1.0, 0.75, 0.75) == 1.0
    assert _poly_root(c, 0.0, -1.0, 0.5, 0.75, 0.0) == 0.5  # a zero at an end is that end
    assert seen == []
    assert _poly_root(c, 0.0, 0.0, 1.0, -0.25, 0.75) == pytest.approx(0.5, abs=1e-15)


def test_brentq_root_keeps_the_one_sign_rule():
    # The budget gap is located by _root; where rounding leaves the gap with
    # one sign at both ends, brentq refuses the bracket and the zero is the
    # end where |f| is least, in either order of the ends.
    def f(s):
        return (s - 0.5) ** 2 + 1e-3  # no zero; least at 0.5

    assert _root(f, 0.0, 0.9) == 0.9
    assert _root(f, 0.9, 0.0) == 0.9
    assert _root(lambda s: -f(s), 0.2, 1.0) == 0.2
    assert _root(f, 0.25, 0.75) == 0.25  # a tie: the first end
    assert _root(lambda s: s - 0.3, 0.0, 1.0) == pytest.approx(0.3, abs=1e-15)


def test_large_amplitude_lanes_exit_at_once():
    # At eps = 5 every run exits on speed within its first two arcs.
    eps = 5.0
    jobs = grid_jobs(GRID)
    for (g, s), run in zip(jobs, lanes(jobs, eps)):
        assert run.stop_reason == STOP_ENERGY_EXIT
        assert run.switch_count <= 1
        assert len(run.arc_zone_touched) == run.switch_count + 1
        ref = oracle_trace_extremal(g / eps, s, Params(eps), keep_samples=False)
        assert run.switch_times == pytest.approx(ref.switch_times, abs=1e-8)


def test_stop_at_batch_returns_witness_and_stops():
    jobs = grid_jobs(GRID)
    runs = lanes(jobs, 0.3, stop_at=4)
    done = [r for r in runs if r is not None]
    assert any(r.allowed_count >= 4 for r in done)
    assert len(done) < len(jobs)


@functools.lru_cache(maxsize=None)
def solo_runs(eps):
    """Each lane of grid_jobs(GRID) at eps traced alone: (run, batch steps)."""
    out = []
    for job in grid_jobs(GRID):
        work = LaneWork()
        (run,) = lanes([job], eps, work=work)
        out.append((run, work.batch_steps))
    return out


@pytest.mark.parametrize("eps, stop_at", [(0.3, 3), (0.3, 4), (0.19, 5)])
def test_witness_search_ends_by_one_rule(eps, stop_at):
    # A witness search ends at the step where one of its runs ends with
    # stop_at or more allowed switchings, and no lane is dropped before: lane
    # j comes back exactly when its run alone takes no more steps than the
    # search's block, and then as that run.
    work = LaneWork()
    runs = lanes(grid_jobs(GRID), eps, stop_at=stop_at, work=work)
    assert any(r is not None and r.allowed_count >= stop_at for r in runs)
    for j, (run, (solo, steps)) in enumerate(zip(runs, solo_runs(eps))):
        assert (run is not None) == (steps <= work.batch_steps), j
        assert run in (None, solo), j


def test_single_sign_and_zero_refinement_budget(monkeypatch):
    # Without refinement each single sign keeps exactly its grid runs.
    monkeypatch.setattr(extremal, "MAX_EXTRA_RUNS", 0)
    none = max_switchings(Params(0.3), SweepPolicy(grid_points=GRID))
    assert none.unresolved_transitions
    assert none.n_runs == 2 * GRID
    assert [d.sign for d in none.runs] == [-1] * GRID + [1] * GRID


def test_rejects_bad_signs():
    with pytest.raises(ValueError):
        trace_lanes([0.0, 1.0], [1, 0], Params(0.3))


def test_rejects_a_params_or_stop_at_per_lane_of_another_length():
    with pytest.raises(ValueError, match="one Params and one stop_at per lane"):
        trace_lanes([0.0, 1.0], [1, 1], [Params(0.3)])
    with pytest.raises(ValueError, match="one Params and one stop_at per lane"):
        trace_lanes([0.0, 1.0], [1, 1], Params(0.3), [3, None, 3])


# At 0.6 the zone is off: thr = 1.2 >= 1.  Above eps = 1 each eps has its
# own series time unit 1/eps.
MIXED_EPS = (0.19, 0.2776, 0.45, 0.6, 1.0, 2.0, 3.0, 9.5, 11.0)


def test_mixed_eps_block_is_bit_identical():
    # One block holds lanes at nine eps and five time units, in shuffled
    # order; each lane is its run in a block of its own eps, and the block
    # does the same work.
    jobs = [(eps, g, s) for eps in MIXED_EPS for g, s in grid_jobs(16)]
    random.Random(3).shuffle(jobs)
    alone, single = {}, LaneWork()
    for eps in MIXED_EPS:
        own = [(g, s) for e, g, s in jobs if e == eps]
        alone.update(((eps,) + job, run) for job, run in zip(own, lanes(own, eps, work=single)))
    work = LaneWork()
    runs = trace_lanes([g for _, g, _ in jobs], [s for _, _, s in jobs],
                       [Params(eps) for eps, _, _ in jobs], work=work)
    for job, run in zip(jobs, runs):
        assert run == alone[job], job
    assert {run.epsilon for run in runs} == set(MIXED_EPS)
    assert (work.lane_steps, work.events, work.stops) == (single.lane_steps, single.events,
                                                           single.stops)
    assert work.batches == 1 and work.batch_steps < single.batch_steps


def test_stop_at_group_ends_while_another_runs_on(monkeypatch):
    # A witness search for 3 at 0.3 shares the block with a full batch at 0.19,
    # whose lanes run longer: the search ends at the step where a witness run
    # ends, as in a block of its own, while the other group runs every lane
    # to its end.
    widths = []

    class Block(extremal._SeriesBlock):
        def __init__(self, width, unit):
            widths.append(width)
            super().__init__(width, unit)

    jobs = grid_jobs(GRID)
    full = lanes(jobs, 0.19)
    monkeypatch.setattr(extremal, "_SeriesBlock", Block)
    search = lanes(jobs, 0.3, stop_at=3)
    assert 0 < sum(r is not None for r in search) < len(jobs)
    n = len(jobs)
    widths.clear()
    runs = trace_lanes([g for g, _ in jobs] * 2, [s for _, s in jobs] * 2,
                       [Params(0.3)] * n + [Params(0.19)] * n, [3] * n + [None] * n)
    assert runs[:n] == search and runs[n:] == full
    # The block starts with both groups and is compacted as their lanes end,
    # down past the searching group's width.
    assert widths[0] == 2 * n and widths == sorted(widths, reverse=True) and min(widths) < n


def test_scans_at_any_eps_share_a_block(monkeypatch):
    # Above eps = 1 the series unit is 1/eps, a value of each lane: the two
    # ends of the bracket and its first midpoint start in one block.
    blocks = []

    def spy(g, signs, p, *args, **kw):
        blocks.append(list(dict.fromkeys(q.epsilon for q in p)))
        return trace_lanes(g, signs, p, *args, **kw)

    monkeypatch.setattr(extremal, "trace_lanes", spy)
    row = extremal.find_bifurcation(1, bracket=(8.0, 11.0), tol=0.5,
                                    policy=SweepPolicy(grid_points=16))
    assert blocks[0] == [8.0, 11.0, 9.5]
    assert row.stats.batches == len(blocks)
