"""Acceptance experiments: one callable per criterion, shared by CLI and tests.

Each criterion returns a CriterionResult with the measured quantities in
``detail``; expensive intermediates (damping sweeps, extremal scans, the
bifurcation table) are shared through a plain dict cache so the full battery
costs one computation of each.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

from . import limits, linosc
from .dynamics import Params, PhaseState, energy_xy
from .extremal import SPACING_TOLERANCE, SweepPolicy, bifurcation_table, max_switchings
from .quasiopt import simulate_damping, sweep_scaling

D_TARGET = 0.925968526
LOW_EPS_LIST = [0.2, 0.1, 0.05, 0.02]
HIGH_EPS_LIST = [0.1, 0.05, 0.02]
EXTREMAL_EPS_LIST = [1.0, 0.5, 0.2, 0.1]
LOW_E0 = 2.0 - 1e-3
HIGH_P0 = (math.pi, 1.5)
BIFURCATION_GRID = 128  # count-transition structure is grid-stable from 128 up


@dataclass(frozen=True)
class CriterionResult:
    cid: int
    name: str
    passed: bool
    detail: str
    runtime: float
    budget: float


def _low_sweep(cache):
    if "low_sweep" not in cache:
        x0 = limits.amplitude_from_energy(LOW_E0)
        cache["low_sweep"] = sweep_scaling(PhaseState(-x0, 0.0), LOW_EPS_LIST)
    return cache["low_sweep"]


def _high_sweep(cache):
    if "high_sweep" not in cache:
        cache["high_sweep"] = sweep_scaling(PhaseState(*HIGH_P0), HIGH_EPS_LIST)
    return cache["high_sweep"]


def _extremal_sweeps(cache):
    if "extremal_sweeps" not in cache:
        cache["extremal_sweeps"] = {
            eps: max_switchings(Params(eps), SweepPolicy()) for eps in EXTREMAL_EPS_LIST
        }
    return cache["extremal_sweeps"]


def _bif_rows(cache):
    if "bif_rows" not in cache:
        cache["bif_rows"] = bifurcation_table(
            8, tol=1e-3, policy=SweepPolicy(grid_points=BIFURCATION_GRID))
    return cache["bif_rows"]


def criterion_01(cache) -> tuple[bool, str]:
    q = limits.constant_D(1e-10)
    dev = abs(q.value - D_TARGET)
    return dev <= 1e-8, f"D = {q.value:.12f}, |D - {D_TARGET}| = {dev:.2e} (tol 1e-8)"


def criterion_02(cache) -> tuple[bool, str]:
    path = limits.limit_ode_solve("low", math.pi, [(-1.0, None)])
    d_quad = limits.constant_D(1e-11).value
    dev = abs(path.total_time - d_quad)
    return dev <= 1e-10, f"ode time = {path.total_time:.12f} vs D = {d_quad:.12f}, diff {dev:.2e} (tol 1e-10)"


def criterion_03(cache) -> tuple[bool, str]:
    tab = _low_sweep(cache)
    x0 = limits.amplitude_from_energy(LOW_E0)
    target = limits.swing_progress(x0)
    rel = abs(tab.extrapolated_eps_N - target) / target
    return rel <= 0.05, (
        f"extrapolated eps*N = {tab.extrapolated_eps_N:.4f} vs integral {target:.4f}, "
        f"rel dev {rel * 100:.2f}% (tol 5%)")


def criterion_04(cache) -> tuple[bool, str]:
    tab = _low_sweep(cache)
    target = limits.tau_minus(LOW_E0, 1e-9).value
    rel = abs(tab.extrapolated_eps_T - target) / target
    return rel <= 0.10, (
        f"extrapolated eps*T = {tab.extrapolated_eps_T:.4f} vs tau_minus({LOW_E0}) = "
        f"{target:.4f}, rel dev {rel * 100:.2f}% (tol 10%)")


def criterion_05(cache) -> tuple[bool, str]:
    tab = _high_sweep(cache)
    e_high = energy_xy(*HIGH_P0)
    target = limits.tau(e_high, 1e-9).value
    rel = abs(tab.extrapolated_eps_T - target) / target
    return rel <= 0.10, (
        f"extrapolated eps*T = {tab.extrapolated_eps_T:.4f} vs tau({e_high:.3f}) = "
        f"{target:.4f}, rel dev {rel * 100:.2f}% (tol 10%)")


def criterion_06(cache) -> tuple[bool, str]:
    worst = math.inf
    n_runs = 0
    for tab, e0 in ((_low_sweep(cache), LOW_E0), (_high_sweep(cache), energy_xy(*HIGH_P0))):
        for row in tab.rows:
            bound = math.sqrt(2.0 * e0) / row.epsilon - 10.0 * row.epsilon
            worst = min(worst, row.damping_time - bound)
            n_runs += 1
    return worst >= 0.0, (
        f"min(T - [sqrt(2 E0)/eps - 10 eps]) = {worst:.3f} over {n_runs} runs (>= 0 required)")


def criterion_07(cache) -> tuple[bool, str]:
    sweeps = _extremal_sweeps(cache)
    min_gap = math.inf
    n_runs = 0
    for res in sweeps.values():
        n_runs += res.n_runs
        for diag in res.runs:
            if diag.min_gap is not None:
                min_gap = min(min_gap, diag.min_gap)
    ok = min_gap >= math.pi - SPACING_TOLERANCE
    return ok, (
        f"min switch gap = {min_gap:.9f} vs pi - 1e-6 = {math.pi - SPACING_TOLERANCE:.9f} "
        f"over {n_runs} runs at eps in {EXTREMAL_EPS_LIST}")


def criterion_08(cache) -> tuple[bool, str]:
    sweeps = _extremal_sweeps(cache)
    bad = sum(0 if d.interleaving_ok else 1 for res in sweeps.values() for d in res.runs)
    total = sum(res.n_runs for res in sweeps.values())
    return bad == 0, f"{bad} interleaving/sign violations over {total} runs (0 allowed)"


def criterion_09(cache) -> tuple[bool, str]:
    sweeps = _extremal_sweeps(cache)
    bad = sum(0 if d.lemma_bound_ok else 1 for res in sweeps.values() for d in res.runs)
    total = sum(res.n_runs for res in sweeps.values())
    return bad == 0, f"{bad} violations of count <= T/pi + 1 over {total} runs (0 allowed)"


def criterion_10(cache) -> tuple[bool, str]:
    rows = _bif_rows(cache)
    eps = [r.epsilon_n for r in rows]
    decreasing = all(a > b for a, b in zip(eps, eps[1:]))
    devs = [abs(r.product - D_TARGET) / D_TARGET for r in rows]
    band_ok = all(dev <= 0.05 for r, dev in zip(rows, devs) if 5 <= r.n <= 8)
    trend_ok = all(a >= b - 1e-12 for a, b in zip(devs, devs[1:]))
    products = " ".join(f"{r.n}:{r.product:.4f}" for r in rows)
    return decreasing and band_ok and trend_ok, (
        f"products n*eps_n = [{products}]; decreasing={decreasing}, "
        f"band(n=5..8)<=5%={band_ok}, |dev| monotone={trend_ok}")


def criterion_11(cache) -> tuple[bool, str]:
    eps = 0.05
    p = Params(eps)
    high = simulate_damping(PhaseState(math.pi, 3.0), p, keep_samples=False)
    speeds = [3.0] + [abs(y) for _, y in high.section_speeds]
    worst_high = 0.0
    y = 3.0
    for obs in speeds[1:]:
        try:
            y = limits.poincare_high(y, p)
        except limits.RegimeExit:
            break
        worst_high = max(worst_high, abs(abs(y) - obs))
    low = simulate_damping(PhaseState(-3.0, 0.0), p, keep_samples=False)
    amps = [a for _, a in low.rest_amplitudes]
    worst_low = 0.0
    x = amps[0]
    for obs in amps[1:]:
        try:
            x = limits.poincare_low(x, p)
        except limits.StandstillCapture:
            break
        worst_low = max(worst_low, abs(x - obs))
    ok = worst_high <= 5e-3 and worst_low <= 1e-4
    return ok, (
        f"high-zone section-speed dev {worst_high:.2e} (tol 5e-3) over {len(speeds) - 1} "
        f"crossings; low-zone amplitude dev {worst_low:.2e} (tol 1e-4) over {len(amps) - 1} rests")


def criterion_12(cache) -> tuple[bool, str]:
    rows = limits.euler_convergence(3.0, [0.02, 0.01, 0.005, 0.0025])
    ratios = [r.ratio_vs_previous for r in rows[1:]]
    ratios_ok = all(r is not None and r <= 0.75 for r in ratios)
    final_ok = rows[-1].sup_error < 0.02
    det = ", ".join(f"{r.epsilon}:{r.sup_error:.2e}" for r in rows)
    return ratios_ok and final_ok, (
        f"sup errors [{det}]; ratios {[f'{r:.2f}' for r in ratios]} (<= 0.75), "
        f"final {rows[-1].sup_error:.2e} (< 0.02)")


def criterion_13(cache) -> tuple[bool, str]:
    hs = [1e-4, 1e-6, 1e-8]
    ratios = [limits.period_integral(h, 1e-9).value / math.log(1.0 / h) for h in hs]
    growth = ratios[-1] / ratios[0]
    ok = growth <= 1.10
    det = ", ".join(f"{h:g}:{r:.4f}" for h, r in zip(hs, ratios))
    return ok, f"value/log(1/h) = [{det}]; growth {growth:.4f} (<= 1.10)"


def criterion_14(cache) -> tuple[bool, str]:
    phi0 = linosc.phi0_constant()
    phi0_ok = abs(phi0 - 0.2105) <= 5e-5
    support = linosc.lin_support((0.0, 1.0), math.pi)
    support_ok = abs(support - 2.0) <= 1e-12
    rema = []
    for e in (10.0, 50.0, 100.0, 200.0, 400.0):
        r = linosc.lin_simulate(linosc.LinState(0.0, math.sqrt(2.0 * e)))
        rema.append(abs(r.damping_time - math.pi * math.sqrt(e / 2.0)))
    bounded_ok = max(rema) <= 0.5
    nongrow_ok = rema[-1] <= max(rema[:-1]) + 1e-9
    ok = phi0_ok and support_ok and bounded_ok and nongrow_ok
    return ok, (
        f"Phi0 = {phi0:.6f} (0.2105 +- 5e-5: {phi0_ok}); int|cos| = {support!r} "
        f"(2 +- 1e-12: {support_ok}); remainders {[f'{v:.3f}' for v in rema]} "
        f"bounded<=0.5 {bounded_ok}, non-growing {nongrow_ok}")


def criterion_15(cache) -> tuple[bool, str]:
    e = 1e-4
    ratio = limits.tau_minus(e, 1e-12).value / (math.pi * math.sqrt(e / 2.0))
    ok = abs(ratio - 1.0) <= 0.01
    return ok, f"tau_minus({e})/(pi sqrt(E/2)) = {ratio:.6f} (1 +- 1%)"


# (id, name, fn, slow, runtime budget in seconds)
CRITERIA = [
    (1, "constant D quadrature", criterion_01, False, 1.0),
    (2, "limit-ODE total time equals D", criterion_02, False, 1.0),
    (3, "quasioptimal switching-count scaling", criterion_03, False, 120.0),
    (4, "quasioptimal time scaling, low zone", criterion_04, False, 120.0),
    (5, "quasioptimal time scaling, high zone", criterion_05, False, 180.0),
    (6, "universal damping-time lower bound", criterion_06, False, 180.0),
    (7, "switch spacing >= pi on extremal sweeps", criterion_07, True, 300.0),
    (8, "opposite-velocity switchings and interleaving", criterion_08, True, 300.0),
    (9, "count <= T/pi + 1 on every run", criterion_09, True, 300.0),
    (10, "bifurcation products approach D", criterion_10, True, 900.0),
    (11, "Poincare map fidelity", criterion_11, False, 60.0),
    (12, "broken-line convergence", criterion_12, False, 60.0),
    (13, "log growth of the period integral", criterion_13, False, 5.0),
    (14, "linear-oscillator baseline", criterion_14, False, 10.0),
    (15, "small-energy linearization bridge", criterion_15, False, 5.0),
]


def run_criterion(cid: int, cache: dict) -> CriterionResult:
    for num, name, fn, _slow, budget in CRITERIA:
        if num == cid:
            t0 = time.perf_counter()
            passed, detail = fn(cache)
            return CriterionResult(cid, name, passed, detail,
                                   time.perf_counter() - t0, budget)
    raise KeyError(f"no criterion {cid}")


def run_all(fast: bool = False, cache: dict | None = None, report=None) -> list[CriterionResult]:
    """Run the acceptance battery; ``fast`` skips the multi-minute criteria.

    ``report`` is an optional callable receiving one line per criterion.
    """
    if cache is None:
        cache = {}
    results = []
    for cid, name, fn, slow, _budget in CRITERIA:
        if fast and slow:
            if report:
                report(f"SKIP  criterion {cid:2d} ({name}): skipped in fast mode")
            continue
        res = run_criterion(cid, cache)
        results.append(res)
        if report:
            status = "PASS" if res.passed else "FAIL"
            report(f"{status}  criterion {cid:2d} ({name}): {res.detail} [{res.runtime:.1f}s]")
    return results
