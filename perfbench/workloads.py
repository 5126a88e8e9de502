"""The three benchmark workloads: seeded inputs, the calls, the output checks.

Each workload has a pass: a fixed number of calls into pendamp's public API
whose arguments are drawn from ``random.Random(f"{name}:{seed}:{k}")`` for
pass k.
Every call uses ``threads=1`` where it has that argument, the setting that
``pendamp verify`` and the tests run.  The calls go through the module
attributes (``extremal.max_switchings``, ...) so that a tracer installed on
those attributes sees them.

A call is one operation.  An operation fails when it raises or when its
output fails a check; ``KNOWN_DEFECTS`` names the one failure that is a
documented defect of the program rather than a wrong answer.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable

from pendamp import extremal, limits, linosc, quasiopt
from pendamp.dynamics import Params, PhaseState, energy_xy

GRID = 128   # phi_T grid of every scan, the acceptance battery's bifurcation grid
BISECT_TOL = 1e-3

# Bifurcation values eps_n at grid 128 (n-th increment of the maximal
# switching count as eps decreases), located once by find_bifurcation with
# tol=1e-5: each is the midpoint of a final bracket narrower than 1e-5.
PINNED_EPS_N = {
    2: 0.6448795318603515,
    3: 0.35930480957031247,
    4: 0.24752502441406254,
    5: 0.191566162109375,
    6: 0.15774902343750002,
}

# (operation, exception) pairs counted as failures but not as wrong output:
# the low-zone step-time quadrature of poincare_iterates cannot certify its
# default tol=1e-10 at these small eps.  The fix is a later change; until
# then every low-zone start of the damping workload fails here.
KNOWN_DEFECTS = {("poincare_iterates/low", "QuadratureError")}


@dataclass
class Op:
    """One call and its outcome: ``value`` on return, ``error`` on a raise."""

    name: str
    value: object = None
    error: str | None = None


def call(name: str, fn, *args, **kwargs) -> Op:
    try:
        return Op(name, fn(*args, **kwargs))
    except Exception as exc:  # recorded as a failed operation
        return Op(name, error=f"{type(exc).__name__}: {exc}")


# ---------------------------------------------------------------- sweep

SWEEP_WHY = ("Full max_switchings scans at grid 128, where every phi_T lane runs to its fate: the criteria "
             "7-9 path and the target of a batched trace kernel.")
SWEEP_COUNTS = (4, 5)   # one eps inside each interval (eps_n, eps_{n-1}), max_allowed = n


def sweep_inputs(rng: random.Random) -> list[tuple[float, int]]:
    """One eps per interval, drawn from its middle 60% so the count is known."""
    out = []
    for n in SWEEP_COUNTS:
        lo, hi = PINNED_EPS_N[n], PINNED_EPS_N[n - 1]
        out.append((lo + rng.uniform(0.2, 0.8) * (hi - lo), n))
    return out


def sweep_run(inputs) -> list[Op]:
    policy = extremal.SweepPolicy(grid_points=GRID)
    return [call("max_switchings", extremal.max_switchings, Params(eps), policy, threads=1)
            for eps, _ in inputs]


def sweep_check(inputs, ops) -> list[str | None]:
    out = []
    for (eps, expected), op in zip(inputs, ops):
        res = op.value
        if res is None:
            out.append(None)
            continue
        problems = []
        for d in res.runs:
            if d.min_gap is not None and d.min_gap < math.pi - 1e-6:
                problems.append(f"switch gap {d.min_gap} < pi - 1e-6 at phi_T={d.phi_T}")
            if not d.interleaving_ok:
                problems.append(f"interleaving violated at phi_T={d.phi_T}")
            if d.switch_count > d.duration / math.pi + 1.0 + 1e-12:
                problems.append(f"count {d.switch_count} > T/pi + 1 at phi_T={d.phi_T}")
        if res.unresolved_transitions:
            problems.append("unresolved transitions")
        if res.max_allowed != expected:
            problems.append(f"max_allowed {res.max_allowed} != {expected}")
        out.append(f"eps={eps!r}: " + "; ".join(problems[:3]) if problems else None)
    return out


def sweep_fingerprint(ops) -> list:
    return [[op.error] if op.error else
            [op.value.max_allowed, op.value.max_raw, op.value.argmax_phi_T, op.value.argmax_sign,
             op.value.n_runs, [sorted(d.as_dict().items()) for d in op.value.runs]]
            for op in ops]


# ---------------------------------------------------------- bifurcation

BIFURCATION_WHY = ("find_bifurcation(5) early-exit witness searches, whose count-below-n+1 full scans dominate the "
                   "eps_n table (criterion 10); search order and reuse change only this.")
# n = 5 rather than 4: at n = 4 the first phi_T lane of every scan below
# eps_4 already reaches the count, so its early-exit scans stop after one
# trace and the witness search is never exercised.
BISECT_N = 5
BISECT_STEPS = 3                   # midpoints evaluated inside the bracket
BISECT_NO_CELLS = (0b011, 0b101, 0b110)   # eps_n cells with exactly one "no" midpoint


def bifurcation_inputs(rng: random.Random) -> tuple[int, tuple[float, float]]:
    """A bracket around the pinned eps_n that the search halves BISECT_STEPS times.

    The bracket width lies in (4, 8] * tol, and eps_n sits in one of the
    eighths of the bracket whose bisection path holds exactly one "count
    below n+1" midpoint, at least 1/40 of the width from every midpoint.  So
    every search makes two full scans (that midpoint and the upper end) and
    three early-exit scans, whatever the seed.
    """
    width = rng.uniform(0.6, 0.95) * 2 ** BISECT_STEPS * BISECT_TOL
    cell = rng.choice(BISECT_NO_CELLS)
    frac = (cell + rng.uniform(0.2, 0.8)) / 2 ** BISECT_STEPS
    lo = PINNED_EPS_N[BISECT_N] - frac * width
    return BISECT_N, (lo, lo + width)


def bifurcation_run(inputs) -> list[Op]:
    n, bracket = inputs
    policy = extremal.SweepPolicy(grid_points=GRID)
    return [call("find_bifurcation", extremal.find_bifurcation, n, bracket, tol=BISECT_TOL,
                 policy=policy, threads=1)]


def bifurcation_check(inputs, ops) -> list[str | None]:
    n, _ = inputs
    row = ops[0].value
    if row is None:
        return [None]
    dev = abs(row.epsilon_n - PINNED_EPS_N[n])
    if dev > BISECT_TOL or row.bracket_width > BISECT_TOL:
        return [f"eps_{n} = {row.epsilon_n!r}, {dev:.2e} from pinned (tol {BISECT_TOL})"]
    return [None]


def bifurcation_fingerprint(ops) -> list:
    return [[op.error] if op.error else [op.value.n, op.value.epsilon_n, op.value.bracket_width]
            for op in ops]


# -------------------------------------------------------------- damping

DAMPING_WHY = ("Dry-friction damping, Poincare maps, tau and the linear baseline: 2-D long arcs and "
               "rest/section events, no extremal work; holds the known low-zone quadrature defect.")
EPS_STRATA = ((0.0045, 0.005), (0.0028, 0.0032), (0.0019, 0.0021))
LOW_AMPLITUDES = (2.5, math.acos(-1.0 + 1e-3))   # rest amplitude, up to E0 = 2 - 1e-3
HIGH_SPEEDS = (1.0, 3.0)                         # speed on the section x = pi


def damping_inputs(rng: random.Random) -> list[tuple[str, float, float]]:
    """One low-zone and one high-zone start per eps stratum."""
    out = []
    for lo, hi in EPS_STRATA:
        out.append(("low", rng.uniform(*LOW_AMPLITUDES), rng.uniform(lo, hi)))
        out.append(("high", rng.uniform(*HIGH_SPEEDS), rng.uniform(lo, hi)))
    return out


def _start(zone: str, v: float) -> PhaseState:
    return PhaseState(-v, 0.0) if zone == "low" else PhaseState(math.pi, v)


def _lin_start(zone: str, v: float) -> linosc.LinState:
    """Start on the y axis at the linear energy of the pendulum start, where
    criterion 14 states its remainder bound."""
    s = _start(zone, v)
    return linosc.LinState(0.0, math.hypot(s.x, s.y))


def damping_run(inputs) -> list[Op]:
    ops = []
    for zone, v, eps in inputs:
        s = _start(zone, v)
        p = Params(eps)
        ops.append(call("simulate_damping", quasiopt.simulate_damping, s, p, keep_samples=False))
        ops.append(call(f"poincare_iterates/{zone}", limits.poincare_iterates, zone, v, p))
        ops.append(call("tau", limits.tau, energy_xy(s.x, s.y)))
        ops.append(call("lin_simulate", linosc.lin_simulate, _lin_start(zone, v)))
    return ops


def _map_orbit(zone: str, v: float, p: Params, n: int) -> list[float]:
    """Up to n iterates of the exact section map from v, stopping where it ends."""
    step, end = ((limits.poincare_low, limits.StandstillCapture) if zone == "low"
                 else (limits.poincare_high, limits.RegimeExit))
    orbit = [v]
    while len(orbit) < n:
        try:
            orbit.append(step(orbit[-1], p))
        except end:
            break
    return orbit


def _observed(zone: str, v: float, res) -> tuple[list[float], list[float]]:
    """Section values and the times between them, from the simulation."""
    if zone == "low":
        ts = [t for t, _ in res.rest_amplitudes]
        return [a for _, a in res.rest_amplitudes], [b - a for a, b in zip(ts, ts[1:])]
    ts = [0.0] + [t for t, _ in res.section_speeds]
    return [v] + [abs(y) for _, y in res.section_speeds], [b - a for a, b in zip(ts, ts[1:])]


def _check_simulation(zone: str, p: Params, e0: float, res, obs: list[float]) -> str | None:
    """Criterion 6's lower bound on T; criterion 11's section values against the map."""
    eps = p.epsilon
    bound = math.sqrt(2.0 * e0) / eps - 10.0 * eps
    if res.damping_time < bound:
        return f"T = {res.damping_time} below sqrt(2 E0)/eps - 10 eps = {bound}"
    orbit = _map_orbit(zone, obs[0], p, len(obs))
    worst = max((abs(a - b) for a, b in zip(orbit[1:], obs[1:])), default=0.0)
    tol = 1e-4 if zone == "low" else 5e-3
    return f"section values {worst:.2e} from the exact map (tol {tol})" if worst > tol else None


def _check_iterates(zone: str, v: float, p: Params, it, obs_dt: list[float]) -> str | None:
    """The exact map orbit, with step times that match the simulated
    section-to-section times.  Those carry the integrator's error, which grows
    on the turns next to the separatrix (2e-6 relative at rtol 1e-10), hence
    the 1e-4."""
    if list(it.values) != _map_orbit(zone, v, p, len(it.values) + 1):
        return "poincare_iterates orbit differs from the section map"
    if len(it.times) != len(it.values) - 1 or not all(t > 0.0 for t in it.times):
        return f"poincare_iterates times {it.times[:3]}... do not match its orbit"
    dev = max((abs(a - b) / b for a, b in zip(it.times, obs_dt)), default=0.0)
    return f"step times {dev:.2e} from the simulation (rel tol 1e-4)" if dev > 1e-4 else None


def _check_tau(eps: float, e0: float, val: float, res) -> str | None:
    """tau(E0) positive, and the simulated eps*T within criteria 4-5's 10% of it."""
    if not (math.isfinite(val) and val > 0.0):
        return f"tau({e0!r}) = {val!r}"
    if res is not None and abs(eps * res.damping_time - val) > 0.1 * val:
        return f"eps*T = {eps * res.damping_time} vs tau = {val}"
    return None


def _check_linear(start: linosc.LinState, res) -> str | None:
    """Criterion 14's remainder |T - pi sqrt(E/2)| <= 0.5."""
    e_lin = 0.5 * start.y * start.y
    rem = abs(res.damping_time - math.pi * math.sqrt(e_lin / 2.0))
    return f"linear remainder {rem} > 0.5" if rem > 0.5 else None


def damping_check(inputs, ops) -> list[str | None]:
    out = []
    for k, (zone, v, eps) in enumerate(inputs):
        sim, pmap, tq, lin = ops[4 * k: 4 * k + 4]
        p = Params(eps)
        s = _start(zone, v)
        e0 = energy_xy(s.x, s.y)
        res = sim.value
        obs, obs_dt = _observed(zone, v, res) if res is not None else ([], [])
        problems = [
            None if res is None else _check_simulation(zone, p, e0, res, obs),
            None if pmap.value is None else _check_iterates(zone, v, p, pmap.value, obs_dt),
            None if tq.value is None else _check_tau(eps, e0, tq.value.value, res),
            None if lin.value is None else _check_linear(_lin_start(zone, v), lin.value),
        ]
        out.extend(f"{zone} start {v!r} eps={eps!r}: {msg}" if msg else None for msg in problems)
    return out


def damping_fingerprint(ops) -> list:
    fp = []
    for op in ops:
        r = op.value
        if op.error:
            fp.append([op.error])
        elif op.name == "simulate_damping":
            fp.append([r.damping_time, r.switch_count, len(r.phase_log),
                       r.rest_amplitudes, r.section_speeds])
        elif op.name.startswith("poincare_iterates"):
            fp.append([list(r.values), list(r.times)])
        elif op.name == "tau":
            fp.append([r.value, r.error_estimate])
        else:
            fp.append([r.damping_time, r.switch_points])
    return fp


# ------------------------------------------------------------- registry

@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    draw: Callable[[random.Random], object]                 # the inputs of one pass
    run: Callable[[object], list[Op]]                       # one pass
    # Per op, what is wrong with its output, or None; None also for an op
    # that raised, whose exception is its error.
    check: Callable[[object, list[Op]], list[str | None]]
    fingerprint: Callable[[list[Op]], list]                 # every output, for comparison

    def inputs(self, seed: int, k: int):
        """Inputs of pass k; the same seed and k give the same inputs."""
        return self.draw(random.Random(f"{self.name}:{seed}:{k}"))


WORKLOADS = {w.name: w for w in (
    Workload("sweep", SWEEP_WHY, sweep_inputs, sweep_run, sweep_check, sweep_fingerprint),
    Workload("bifurcation", BIFURCATION_WHY, bifurcation_inputs, bifurcation_run,
             bifurcation_check, bifurcation_fingerprint),
    Workload("damping", DAMPING_WHY, damping_inputs, damping_run, damping_check,
             damping_fingerprint),
)}


def warm_up() -> None:
    """Touch every layer once: imports, and the lazy tau table of the
    extremal optimality screen (built by the first trace)."""
    extremal.trace_extremal(0.0, 1, Params(0.25), keep_samples=False)
    quasiopt.simulate_damping(PhaseState(-2.8, 0.0), Params(0.1), keep_samples=False)
    limits.poincare_iterates("high", 3.0, Params(0.1))
    limits.tau(1.0)
    linosc.lin_simulate(linosc.LinState(0.0, 2.0))
