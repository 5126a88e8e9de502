"""Differential tests of the batched kernel trace_lanes against the scalar oracle."""

import random
from dataclasses import replace

import pytest

from pendamp import extremal
from pendamp.acceptance import EXTREMAL_EPS_LIST
from pendamp.dynamics import Params
from pendamp.extremal import (
    STOP_ENERGY_EXIT,
    STOP_OPTIMALITY,
    STOP_STANDSTILL,
    STOP_TIME_BUDGET,
    StopPolicy,
    SweepPolicy,
    _dense_component,
    max_switchings,
    phi_grid,
    run_diagnostics,
    trace_lanes,
)
from pendamp.integrator import STOP_STEP_FAILURE, StepControl, _make_dense
from oracles import oracle_trace_extremal

GRID = 48


def grid_jobs(grid, gmax=4.0):
    return [(g, s) for s in (1, -1) for g in phi_grid(grid, gmax)]


def mirrored(run):
    """The run from (-phi_T, -s): every state negated, times and counts kept."""
    return replace(run, phi_T=-run.phi_T, sign=-run.sign,
                   switch_states=tuple(tuple(-v for v in st) for st in run.switch_states))


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
    """max_switchings as a one-run-at-a-time scan over the scalar oracle."""
    eps = p.epsilon
    table = {}

    def diag(g, s):
        return run_diagnostics(oracle_trace_extremal(g / eps, s, p, policy.stop, keep_samples=False))

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
        if b - a <= policy.refine_tol:
            continue
        if extra >= policy.max_extra_runs:
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


@pytest.mark.parametrize("eps", EXTREMAL_EPS_LIST)
def test_every_grid_lane_matches_oracle(eps):
    p = Params(eps)
    jobs = grid_jobs(GRID)
    runs = lanes(jobs, eps)
    for (g, s), run in zip(jobs, runs):
        ref = oracle_trace_extremal(g / eps, s, p, keep_samples=False)
        assert run.phi_T == ref.phi_T and run.sign == ref.sign
        assert (run.allowed_count, run.stop_reason) == (ref.allowed_count, ref.stop_reason), (g, s)
        assert len(run.switch_times) == len(ref.switch_times)
        assert run.switch_times == pytest.approx(ref.switch_times, abs=1e-8)
        assert run.arc_zone_touched == ref.arc_zone_touched
        assert run.duration == pytest.approx(ref.duration, abs=1e-6)
    assert_mirror_pairs(jobs, runs)


def test_dense_component_is_the_integrators_dense_output():
    # The kernel locates its events on _dense_component; it must give, bit
    # for bit, the component of the integrator's dense output.
    rng = random.Random(5)
    for _ in range(2000):
        t_old, h = rng.uniform(-60.0, 0.0), rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-6.0, 0.5)
        y_old = [rng.uniform(-4.0, 4.0) for _ in range(4)]
        stages = [[rng.uniform(-4.0, 4.0) for _ in range(4)] for _ in range(7)]
        dense = _make_dense(t_old, h, y_old, stages)
        times = [t_old, t_old + h] + [t_old + rng.random() * h for _ in range(4)]
        for c in range(4):
            value = _dense_component(t_old, h, y_old[c], [k[c] for k in stages])
            for t in times:
                assert value(t) == dense(t)[c], (t_old, h, c, t)


# Each policy with the stop reasons its runs reach at eps 0.5 and 0.2 on grid 16.
STOP_POLICIES = {
    "default": (StopPolicy(), {STOP_ENERGY_EXIT, STOP_OPTIMALITY, STOP_STANDSTILL}),
    "short-budget": (StopPolicy(time_budget_factor=1.0), {STOP_TIME_BUDGET}),
    "max-steps": (StopPolicy(ctl=StepControl(max_steps=40)), {STOP_STEP_FAILURE}),
    "min-step": (StopPolicy(ctl=StepControl(min_step=0.05, rtol=1e-13, atol=1e-15)),
                 {STOP_STEP_FAILURE}),
}


def test_stop_policies_reach_every_stop_reason():
    reached = set().union(*(reasons for _, reasons in STOP_POLICIES.values()))
    assert reached == {STOP_ENERGY_EXIT, STOP_OPTIMALITY, STOP_STANDSTILL, STOP_TIME_BUDGET,
                       STOP_STEP_FAILURE}


@pytest.mark.parametrize("name", STOP_POLICIES)
def test_every_stop_policy_matches_oracle(name):
    stop, reasons = STOP_POLICIES[name]
    reached = set()
    for eps in (0.5, 0.2):
        p = Params(eps)
        jobs = grid_jobs(16)
        runs = lanes(jobs, eps, stop=stop)
        for (g, s), run in zip(jobs, runs):
            ref = oracle_trace_extremal(g / eps, s, p, stop, keep_samples=False)
            assert run.allowed_count == ref.allowed_count, (g, s)
            assert run.stop_reason == ref.stop_reason, (g, s)
            assert run.switch_times == pytest.approx(ref.switch_times, abs=1e-8)
            assert run.duration == pytest.approx(ref.duration, abs=1e-6)
            reached.add(run.stop_reason)
        assert_mirror_pairs(jobs, runs)
    assert reasons <= reached


@pytest.mark.parametrize("eps,policy", [
    (0.3, SweepPolicy(grid_points=GRID)),
    (0.3, SweepPolicy(grid_points=GRID, max_extra_runs=5)),
    (0.5, SweepPolicy(grid_points=32)),
    (0.3, SweepPolicy(grid_points=47)),
])
def test_sweep_matches_oracle_sweep(eps, policy):
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


def test_lane_is_bit_identical_in_any_batch():
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


def test_single_sign_and_zero_refinement_budget():
    # Without refinement each single sign keeps exactly its grid runs.
    none = max_switchings(Params(0.3), SweepPolicy(grid_points=GRID, max_extra_runs=0))
    assert none.unresolved_transitions
    assert none.n_runs == 2 * GRID
    assert [d.sign for d in none.runs] == [-1] * GRID + [1] * GRID


def test_rejects_bad_signs():
    with pytest.raises(ValueError):
        trace_lanes([0.0, 1.0], [1, 0], Params(0.3))
