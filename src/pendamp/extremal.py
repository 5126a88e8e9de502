"""Backward maximum-principle extremals and switching-count asymptotics.

Every time-optimal trajectory into the origin appears, up to the necessary
conditions, in a two-parameter backward family: the canonical system

    x' = y,  y' = -sin x + eps * sign(psi),  phi' = (cos x) psi,  psi' = -phi

traced backward from (x, y) = (0, 0) with terminal covector
(phi, psi) = (phi_T, s/eps), s = +-1, pinned by the zero-Hamiltonian identity
y phi + (-sin x + eps u) psi - 1 = 0.  The module traces that family, counts
control switchings (transversal zeros of psi), scans phi_T for the maximal
count, and locates the control amplitudes where the maximal count increments
(the bifurcation values eps_n, asymptotically D/n).

Internally the covector is traced in the rescaled variables (eps*phi, eps*psi)
so terminal values stay order 1 for small eps; the zero structure and the
control sign are scale invariant.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .dynamics import ZONE_FACTOR, Params, in_zone_xy
from .integrator import (
    _A_ROWS, _B_ROW, _E_ROW, _P,
    STOP_STEP_FAILURE,
    StepControl,
    _make_dense,
    brentq,
    integrate,  # noqa: F401  unused; perfbench/tracing.py wraps extremal.integrate
)

STOP_ENERGY_EXIT = "energy+velocity exit"
STOP_TIME_BUDGET = "time budget"
STOP_STANDSTILL = "standstill entry"
STOP_OPTIMALITY = "optimality budget"

SPACING_TOLERANCE = 1e-6  # slack on the pi lower bound for switch spacing

# A trace stops when |y| rises through SPEED_EXIT, which forces energy
# > 2.5; past the last y-zero at most one further switching can occur, and
# ExtremalRun.allowed_count grants it.
SPEED_EXIT = math.sqrt(5.0)

# The optimality screen separates candidates for optimal trajectories from
# the rest of the extremal family: no admissible control pumps energy faster
# than |dE/dt| = eps |y|, so a backward run that has been alive longer than
# the attainable damping time from its current state, tau(E)/eps plus
# OPTIMALITY_SLACK, is already past any optimal portion and is cut.  Without
# the screen the family maximum is set by non-optimal wandering extremals
# that pump energy up and down indefinitely, and the switching-count
# asymptotics degenerate to the raw time budget.  The established
# maximizer's measured excess over tau(E)/eps stays below 0.2 time units
# across the asymptotic range; 0.7 admits it with a 3x margin while
# rejecting newborn switching branches that slower, still-dominated
# extremals would add.
OPTIMALITY_SLACK = 0.7


@dataclass(frozen=True)
class StopPolicy:
    """Time budget and step control of backward traces.

    A trace stops at the first of: the speed exit (SPEED_EXIT), the time
    budget time_budget_factor / eps, entry into the standstill zone
    (dynamics.ZONE_FACTOR) after first leaving it, the optimality screen
    (OPTIMALITY_SLACK), or a step failure under ``ctl``.  The time budget is
    a safety net: the screen cuts every run by tau(E)/eps + 0.7 <= 5.22/eps
    + 0.7, which is under the default 8/eps for eps < 3.9.
    """

    time_budget_factor: float = 8.0
    ctl: StepControl = field(default_factory=lambda: StepControl(interp_tol=None))


# tau(E) on knots log-dense toward the separatrix E = 2, which resolve the
# -h log h behaviour of tau_minus there.  The values are 0 at E = 0, then
# limits.tau(E, 1e-9).value at each further knot, written with repr.
# Written out, the table costs the first trace no quadrature and no scipy
# import; tests/test_extremal.py checks it against limits.tau.
_TAU_KNOTS = np.array(
    [0.0]
    + [2.0 * (i / 40) ** 1.5 for i in range(1, 41)]  # oscillation branch
    + [2.0 + (i / 24.0) ** 1.5 * 4.0 for i in range(1, 25)]  # rotation branch
)
_TAU_VALUES = np.array((
    0.0, 0.19753890089858295, 0.33228657593368494,
    0.45050067839181585, 0.5591595672422258, 0.6612629314513705,
    0.7584626761661014, 0.8517961569272777, 0.9419713471582934,
    1.0295003208705584, 1.114769803174097, 1.1980818413308851,
    1.279678841780285, 1.359759800943616, 1.438491279853349,
    1.5160150918402922, 1.5924538551276146, 1.6679151148615454,
    1.74249448256433, 1.8162780880601357, 1.8893445448861519,
    1.961766571082733, 2.033612369750167, 2.1049468503285196,
    2.1758327579738213, 2.2463317725139764, 2.3165056396335117,
    2.386417405947071, 2.456132849064982, 2.5257222290634718,
    2.5952625495578086, 2.6648406257336017, 2.7345574560393207,
    2.804534776813519, 2.874925462787794, 2.9459311821613055,
    3.0178350552865294, 3.091069604961359, 3.1663854965823433,
    3.245425135080395, 3.336698639549155, 3.3791229127813227,
    3.4405522139947124, 3.509977547486121, 3.584198795118775,
    3.6615650647729256, 3.7410690666761903, 3.822040758705686,
    3.9040106693258574, 3.986638500438609, 4.069671766867163,
    4.152920028735732, 4.236237958261493, 4.319513753669213,
    4.402660959738492, 4.485612548498103, 4.568316549049839,
    4.650732767706665, 4.732830292487632, 4.814585572274002,
    4.895980923551947, 4.97700335954739, 5.057643665239851,
    5.1378956617899085, 5.21775561818078,
))
_TAU_WIDTH, _TAU_RISE = np.diff(_TAU_KNOTS), np.diff(_TAU_VALUES)


def _tau_bound(E):
    """tau(E) interpolated linearly between the knots, clamped at both ends, elementwise."""
    i = np.searchsorted(_TAU_KNOTS[1:-1], E, side="right")  # knots[i] <= E < knots[i + 1]
    w = (E - _TAU_KNOTS.take(i)) / _TAU_WIDTH.take(i)
    inside = _TAU_VALUES.take(i) + w * _TAU_RISE.take(i)
    return np.where(E <= 0.0, 0.0, np.where(E >= _TAU_KNOTS[-1], _TAU_VALUES[-1], inside))


@dataclass
class ExtremalRun:
    """One backward-traced extremal with its switching structure."""

    phi_T: float
    sign: int
    epsilon: float
    switch_times: tuple[float, ...]
    switch_states: tuple[tuple[float, float, float, float], ...]  # unscaled covector
    switch_in_zone: tuple[bool, ...]
    y_zero_times: tuple[float, ...]
    arc_zone_touched: tuple[bool, ...]
    stop_reason: str
    duration: float
    max_hamiltonian_residual: float

    @property
    def switch_count(self) -> int:
        return len(self.switch_times)

    @property
    def allowed_count(self) -> int:
        """Switch count plus the high-energy tail allowance.

        After the last zero of y the velocity keeps its sign, and adjacent
        psi-zeros need opposite velocity signs, so the untraced tail beyond a
        speed exit can hold at most ONE further switching in total.  The +1 is
        granted only when that single slot is still free, i.e. when no
        switching was already recorded after the last y-zero of the trace.
        """
        if self.stop_reason != STOP_ENERGY_EXIT:
            return self.switch_count
        if self.switch_times:
            t_last_sw = max(abs(t) for t in self.switch_times)
            t_last_y0 = max((abs(t) for t in self.y_zero_times), default=-1.0)
            if t_last_sw > t_last_y0:
                return self.switch_count  # tail slot already used
        return self.switch_count + 1


@dataclass(frozen=True)
class RunDiagnostics:
    """Per-run summary kept by sweeps (full trajectories are discarded)."""

    phi_T: float
    sign: int
    switch_count: int
    allowed_count: int
    stop_reason: str
    duration: float
    min_gap: float | None
    zone_switches: int
    spacing_ok: bool
    interleaving_ok: bool
    lemma_bound_ok: bool
    max_h_residual: float

    def as_dict(self) -> dict:
        return asdict(self)


def run_diagnostics(run: ExtremalRun) -> RunDiagnostics:
    """Summarise a run and check the Sturm properties of its switchings.

    Adjacent switchings lie at least pi apart (less SPACING_TOLERANCE) and,
    across an arc clear of the standstill zone, have velocities of opposite
    sign with exactly one zero of y between them.
    """
    ts, zone = run.switch_times, run.arc_zone_touched
    gaps = [a - b for a, b in zip(ts, ts[1:])]
    min_gap = min(gaps, default=None)
    interleaving_ok = all(
        run.switch_states[k][1] * run.switch_states[k + 1][1] < 0.0
        and sum(ts[k + 1] < tz < ts[k] for tz in run.y_zero_times) == 1
        for k in range(len(gaps))
        if k + 1 < len(zone) and not zone[k + 1]
    )
    return RunDiagnostics(
        phi_T=run.phi_T,
        sign=run.sign,
        switch_count=run.switch_count,
        allowed_count=run.allowed_count,
        stop_reason=run.stop_reason,
        duration=run.duration,
        min_gap=min_gap,
        zone_switches=sum(run.switch_in_zone),
        spacing_ok=min_gap is None or min_gap >= math.pi - SPACING_TOLERANCE,
        interleaving_ok=interleaving_ok,
        lemma_bound_ok=run.switch_count <= run.duration / math.pi + 1.0 + 1e-12,
        max_h_residual=run.max_hamiltonian_residual,
    )


# ------------------------------------------------------------ batched lanes
#
# trace_lanes traces many backward extremals at once, one lane per terminal
# covector, with numpy arithmetic on (4, lanes) blocks.  Every operation is
# elementwise, in the order that integrate uses on one trajectory, so a
# lane's result does not depend on the batch it rides in.


def _rhs_lanes(Y, ueps, out):
    """Canonical right-hand side on a (4, lanes) block; ueps = u * eps per lane."""
    x = Y[0]
    out[0] = Y[1]
    np.subtract(ueps, np.sin(x), out=out[1])
    np.multiply(np.cos(x), Y[3], out=out[2])
    np.negative(Y[2], out=out[3])
    return out


# Powers go through np.float_power, which calls the C library's pow like
# Python's ``**`` does; np.power and a * a differ from it in the last bit.


def _rms4(a):
    """RMS over the 4 state components: the integrator's norm, summed in its order."""
    return np.sqrt(np.add.reduce(np.float_power(a, 2), axis=0) / 4)


def _coefficients(*c):
    return np.array(c)[:, None, None]


# The integrator's tableau rows, for stage sums over a (stages, 4, lanes)
# block.  numpy adds a reduction over the leading axis row by row, in the
# integrator's order; the solution and error sums skip the zero weights, as
# the integrator's generated attempt code does.
_A_LANES = tuple(_coefficients(*row) for row in _A_ROWS)
_B_STAGES = np.array([s for s, w in enumerate(_B_ROW) if w != 0.0])
_E_STAGES = np.array([s for s, w in enumerate(_E_ROW) if w != 0.0])
_B_LANES = _coefficients(*(_B_ROW[s] for s in _B_STAGES))
_E_LANES = _coefficients(*(_E_ROW[s] for s in _E_STAGES))


def _initial_step_lanes(Y, f0, ueps, ctl: StepControl):
    """The integrator's starting-step heuristic per lane, backward in time."""
    sc = ctl.atol + ctl.rtol * np.abs(Y)
    d0 = _rms4(Y / sc)
    d1 = _rms4(f0 / sc)
    with np.errstate(divide="ignore", invalid="ignore"):
        h0 = np.where((d0 < 1e-5) | (d1 < 1e-5), 1e-6, 0.01 * d0 / d1)
        f1 = _rhs_lanes(Y + -h0 * f0, ueps, np.empty_like(Y))
        d2 = _rms4((f1 - f0) / sc) / h0
        dm = np.maximum(d1, d2)
        h1 = np.where(dm <= 1e-15, np.maximum(1e-6, h0 * 1e-3), np.float_power(0.01 / dm, 0.2))
    return -np.minimum(np.minimum(100.0 * h0, h1), ctl.max_step)


def _dense_component(t_old: float, h: float, y_old: float, ks):
    """One component of the integrator's quartic dense output over a step.

    Same arithmetic as ``integrator._make_dense``, restricted to one
    component and to the stages with a dense weight.
    """
    terms = [(p, k) for p, k in zip(_P, ks) if any(p)]

    def value(t: float) -> float:
        th = (t - t_old) / h
        ht = h * th
        out = y_old
        for (p0, p1, p2, p3), k in terms:
            w = ht * (p0 + th * (p1 + th * (p2 + th * p3)))
            if w != 0.0:
                out += w * k
        return out

    return value


_NO_CUT, _CUT_STANDSTILL, _CUT_OPTIMALITY = 0, 1, 2
_CUT_REASON = {_CUT_STANDSTILL: STOP_STANDSTILL, _CUT_OPTIMALITY: STOP_OPTIMALITY}
_SWITCH, _EXIT, _Y0 = 0, 1, 2  # the events; at equal times the first listed wins


def trace_lanes(
    g,
    signs,
    p: Params,
    stop: StopPolicy | None = None,
    stop_at: int | None = None,
) -> list[ExtremalRun | None]:
    """Trace the backward extremals (phi_T, s) = (g / eps, signs) all at once.

    The package's one extremal tracer.  Each lane keeps its own step size,
    control sign, time and arc count, and takes the steps of one
    :func:`integrate` call per arc (the scalar oracle in tests/oracles.py):
    Dormand-Prince 5(4) steps under the same error control; the
    starting-step heuristic and a fresh first stage at every arc start; the
    ``min_step`` dead band after each switch; switch, exit and y0 events
    located by brentq on the quartic dense output; and the standstill and
    optimality cuts on every sample.  Runs keep no samples.  Memory is
    O(lanes): no step history is kept, and finished lanes are compacted away.

    With ``stop_at`` the batch is a witness search.  It ends as soon as a
    finished run reaches that allowed count, and once some lane has made
    that many switchings (so that its run will reach it) only that lane
    runs on.  The lanes dropped or still running come back as None.
    """
    if stop is None:
        stop = StopPolicy()
    eps = p.epsilon
    ctl = stop.ctl
    g = np.asarray(g, dtype=float)
    sgn = np.asarray(signs, dtype=float)
    if not np.all(np.isfinite(g)):
        raise ValueError(f"non-finite g = eps * phi_T: {g[~np.isfinite(g)][0]}")
    if g.shape != sgn.shape or not np.all(np.abs(sgn) == 1.0):
        raise ValueError("need one sign of +-1 per lane")
    n = g.size
    phi_T = g / eps
    y_stop2 = SPEED_EXIT ** 2
    t_budget = stop.time_budget_factor / eps
    t_limit = -t_budget
    thr = ZONE_FACTOR * eps
    zone_on = thr < 1.0
    max_arcs = int(t_budget / math.pi) + 8

    # State of the active lanes; `lane` maps them back to the input order.
    # The event values at the last sample are those of Y: every sample
    # becomes the lane's state, and a rejected step leaves both unchanged.
    lane = np.arange(n)
    Y = np.zeros((4, n))
    Y[2] = eps * phi_T
    Y[3] = sgn
    ueps = sgn * eps
    t = np.zeros(n)
    h = np.zeros(n)
    K1 = np.zeros((4, n))
    t0 = np.zeros(n)  # arc start
    nsteps = np.zeros(n, dtype=int)  # attempted steps in the arc
    arcs = np.zeros(n, dtype=int)
    armed = np.zeros(n, dtype=bool)
    touched = np.zeros(n, dtype=bool)
    maxres = np.zeros(n)

    sw_t = [[] for _ in range(n)]
    sw_s = [[] for _ in range(n)]
    sw_z = [[] for _ in range(n)]
    y0_t = [[] for _ in range(n)]
    arc_z = [[] for _ in range(n)]
    out: list[ExtremalRun | None] = [None] * n

    def check(on):
        """Cuts and Hamiltonian residual on the current samples of lanes in mask on.

        Returns the cut per lane and the standstill-zone mask of the samples.
        """
        x, yv = Y[0], Y[1]
        sx = np.sin(x)
        if zone_on:
            zone = (np.abs(yv) < thr) & (np.abs(sx) < thr) & on
        else:
            zone = np.zeros_like(on)
        cut = np.where(zone & armed, _CUT_STANDSTILL, _NO_CUT)
        touched[...] |= zone
        armed[...] |= on & ~zone
        en = 0.5 * yv * yv + 1.0 - np.cos(x)
        over = (-t > _tau_bound(en) / eps + OPTIMALITY_SLACK) & on
        cut[over & (cut == _NO_CUT)] = _CUT_OPTIMALITY
        r = np.abs(yv * Y[2] - sx * Y[3] + eps * np.abs(Y[3]) - eps)
        np.fmax(maxres, r, out=maxres, where=on & (cut == _NO_CUT))
        return cut, zone

    def start_arcs(j):
        """Begin a new arc on lanes j at their current (t, Y)."""
        y = Y[:, j]
        f0 = _rhs_lanes(y, ueps[j], np.empty_like(y))
        hj = _initial_step_lanes(y, f0, ueps[j], ctl)
        span = t_limit - t[j]
        h[j] = np.where(np.abs(hj) > np.abs(span), span, hj)
        K1[:, j] = f0
        t0[j] = t[j]
        nsteps[j] = 0
        arcs[j] += 1
        touched[j] = False

    def finish(k, reason, close_arc=True) -> bool:
        """Store the run of active lane k, ended at t[k]; True for a stop_at witness."""
        i = lane[k]
        done[k] = True
        if close_arc:
            arc_z[i].append(bool(touched[k]))
        run = out[i] = ExtremalRun(
            phi_T=float(phi_T[i]),
            sign=int(sgn[i]),
            epsilon=eps,
            switch_times=tuple(sw_t[i]),
            switch_states=tuple(sw_s[i]),
            switch_in_zone=tuple(sw_z[i]),
            y_zero_times=tuple(y0_t[i]),
            arc_zone_touched=tuple(arc_z[i]),
            stop_reason=reason,
            duration=abs(float(t[k])),
            max_hamiltonian_residual=float(maxres[k]) / eps,
        )
        return stop_at is not None and run.allowed_count >= stop_at

    def locate(k, ev, t_old, t_new, hk, y_old, stages):
        """Time of event ev on the step of lane k, as integrate finds it."""
        c = 3 if ev == _SWITCH else 1
        g_new = Yn[c, k] * Yn[c, k] - y_stop2 if ev == _EXIT else Yn[c, k]
        if g_new == 0.0:
            return t_new
        f = _dense_component(t_old, hk, y_old[c], stages[c])
        if ev == _EXIT:
            fy = f

            def f(s):
                v = fy(s)
                return v * v - y_stop2

        return brentq(f, t_new, t_old, xtol=1e-14, rtol=8.9e-16)

    done = np.zeros(n, dtype=bool)
    start_arcs(np.arange(n))
    # No cut can fire at t = 0, where the zone is not armed yet and the run
    # is 0.7 below the screen's line; the check still marks the arc as
    # touching the zone, arms lanes outside it and takes the residual.
    check(np.ones(n, dtype=bool))
    witness = False
    attempts = 0
    while not witness:
        if np.count_nonzero(done):
            keep = ~done
            lane, ueps, t, h, t0, nsteps, arcs, armed, touched, maxres = (
                a[keep] for a in (lane, ueps, t, h, t0, nsteps, arcs, armed, touched, maxres))
            Y, K1 = Y[:, keep], K1[:, keep]
        m = lane.size
        if m == 0:
            break
        done = np.zeros(m, dtype=bool)
        attempts += 1
        if attempts > ctl.max_steps:  # no lane can have used up its steps before
            for k in (nsteps >= ctl.max_steps).nonzero()[0]:
                witness |= finish(k, STOP_STEP_FAILURE)
            if np.count_nonzero(done):
                continue
        nsteps += 1

        # One Dormand-Prince attempt on every lane.
        clip = t + h - t_limit < 0.0
        h = np.where(clip, t_limit - t, h)
        KS = np.empty((7, 4, m))
        KS[0] = K1
        for i, a in enumerate(_A_LANES, start=1):
            _rhs_lanes(Y + h * np.add.reduce(a * KS[:i], axis=0), ueps, KS[i])
        Yn = Y + h * np.add.reduce(_B_LANES * KS.take(_B_STAGES, axis=0), axis=0)
        tn = t + h
        _rhs_lanes(Yn, ueps, KS[6])
        e = h * np.add.reduce(_E_LANES * KS.take(_E_STAGES, axis=0), axis=0)
        err = _rms4(e / (ctl.atol + ctl.rtol * np.maximum(np.abs(Y), np.abs(Yn))))

        # Step-size control: max(0.2, .) also sends a non-finite error to 0.2,
        # and min(10, .) a zero error to 10, as in integrate.
        acc = err <= 1.0
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            grow = np.fmax(0.2, 0.9 * np.float_power(err, -0.2))
        h_abs = np.abs(h)
        h_rej = h_abs * grow
        h_acc = np.maximum(np.minimum(ctl.max_step, h_abs * np.minimum(10.0, grow)), ctl.min_step)
        for k in ((h_rej < ctl.min_step) & ~acc).nonzero()[0]:
            witness |= finish(k, STOP_STEP_FAILURE)

        # Event crossings over accepted steps: psi and y change sign (any
        # direction), y^2 - y_stop^2 rises through 0.
        old, new = Y[1::2], Yn[1::2]
        sign_change = ((old < 0.0) & (new >= 0.0)) | ((old > 0.0) & (new <= 0.0))
        exits = (Y[1] * Y[1] - y_stop2 < 0.0) & (Yn[1] * Yn[1] - y_stop2 >= 0.0)
        hit = (sign_change[0] | sign_change[1] | exits) & acc
        crossed = {}
        for k in hit.nonzero()[0]:
            t_old, t_new, hk = float(t[k]), float(tn[k]), float(h[k])
            y_old, stages = Y[:, k].tolist(), KS[:, :, k].T.tolist()
            hits = []
            events = (_SWITCH, sign_change[1, k]), (_EXIT, exits[k]), (_Y0, sign_change[0, k])
            for ev, on in events:
                if on:
                    t_e = locate(k, ev, t_old, t_new, hk, y_old, stages)
                    if abs(t_e - t0[k]) >= ctl.min_step:
                        hits.append((t_e, ev))
            hits.sort(key=lambda q: -q[0])
            y0s, end = [], None
            for t_e, ev in hits:
                if ev == _Y0:
                    y0s.append(t_e)
                else:
                    end = (ev, t_e, _make_dense(t_old, hk, y_old, KS[:, :, k].tolist())(t_e))
                    break
            crossed[k] = (y0s, end)

        # Accepted steps become the lanes' states (event states where a
        # terminal event ended the step), then the cuts run on them.
        np.copyto(t, tn, where=acc)
        np.copyto(Y, Yn, where=acc)
        np.copyto(K1, KS[6], where=acc)
        h = -np.where(acc, h_acc, h_rej)
        ended = {}
        for k, (y0s, end) in crossed.items():
            if end is not None:
                ended[k], t[k], Y[:, k] = end
        cut, zone = check(acc)
        budget = acc & (clip | (tn - t_limit <= 0.0))

        restart, sure = [], []
        for k in sorted(crossed.keys() | set(cut.nonzero()[0]) | set(budget.nonzero()[0])):
            i = lane[k]
            y0s = crossed.get(k, ((), None))[0]
            y0_t[i].extend(y0s if not cut[k] else [v for v in y0s if v > t[k]])
            if cut[k]:
                witness |= finish(k, _CUT_REASON[cut[k]])
            elif ended.get(k) == _EXIT:
                witness |= finish(k, STOP_ENERGY_EXIT)
            elif ended.get(k) == _SWITCH:
                st = Y[:, k].tolist()
                sw_t[i].append(float(t[k]))
                sw_s[i].append((st[0], st[1], st[2] / eps, st[3] / eps))
                sw_z[i].append(zone_on and in_zone_xy(st[0], st[1], thr))
                arc_z[i].append(bool(touched[k]))
                if stop_at is not None and len(sw_t[i]) >= stop_at:
                    sure.append(k)
                if arcs[k] == max_arcs:
                    witness |= finish(k, STOP_TIME_BUDGET, close_arc=False)
                else:
                    restart.append(k)
            elif budget[k]:
                witness |= finish(k, STOP_TIME_BUDGET)
        if restart:
            # The new arc's first sample is the switch state, which has just
            # passed the cuts; it only marks the arc as touching the zone.
            ueps[restart] = -ueps[restart]
            start_arcs(restart)
            touched[restart] = zone[restart]
        if sure:
            done[:] = True
            done[sure] = False
    return out


def trace_extremal(phi_T: float, s: int, p: Params, stop: StopPolicy | None = None,
                   keep_samples: bool = False) -> ExtremalRun:
    """The backward extremal from (phi_T, s): a one-lane :func:`trace_lanes` batch.

    ``keep_samples`` accepts only False, as runs keep no samples; the
    keyword stays while perfbench/ passes it.
    """
    if s not in (-1, 1):
        raise ValueError(f"s must be +-1, got {s}")
    if keep_samples:
        raise ValueError("keep_samples=True: extremal runs keep no samples; "
                         "pass False or leave it out")
    (run,) = trace_lanes([p.epsilon * phi_T], [s], p, stop)
    return replace(run, phi_T=phi_T)


@dataclass(frozen=True)
class SweepPolicy:
    """phi_T scan policy for the switching-count supremum.

    The terminal covector slope is scanned in the rescaled variable
    g = eps * phi_T over [-phi_max_scaled, phi_max_scaled] (so the raw range
    is +-phi_max_scaled/eps), on a uniform grid per control sign, refined by
    bisection around every change of (allowed_count, stop_reason) until the
    scaled spacing drops below refine_tol.
    """

    phi_max_scaled: float = 4.0
    grid_points: int = 512
    refine_tol: float = 1e-3
    max_extra_runs: int = 4096
    signs: tuple[int, ...] = (1, -1)
    stop: StopPolicy = field(default_factory=StopPolicy)

    def __post_init__(self):
        if self.grid_points < 2:
            raise ValueError(f"grid_points must be >= 2, got {self.grid_points}")
        for name in ("phi_max_scaled", "refine_tol"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0.0):
                raise ValueError(f"{name} must be positive and finite, got {value}")


def phi_grid(points: int, gmax: float) -> list[float]:
    """The sweep's uniform grid of g = eps * phi_T over [-gmax, gmax].

    Exactly antisymmetric, ``g[points - 1 - i] == -g[i]``, so that its
    points pair off under the mirror symmetry of :func:`max_switchings`.
    The g <= 0 half is -gmax + 2 gmax i / (points - 1); the g > 0 half is
    its negation, and the middle point of an odd grid is 0.0.
    """
    half = [-gmax + 2.0 * gmax * i / (points - 1) for i in range(points // 2)]
    return half + [0.0] * (points % 2) + [-g for g in reversed(half)]


@dataclass
class SweepResult:
    epsilon: float
    max_allowed: int
    max_raw: int
    argmax_phi_T: float
    argmax_sign: int
    runs: list[RunDiagnostics]
    boundary_hit: bool
    unresolved_transitions: bool
    n_runs: int


# Most bisection levels of one frontier interval traced in one refinement
# batch: 2**k - 1 lanes buy k levels, of which the refinement keeps about k.
REFINE_LOOKAHEAD = 4


def _subdivide(a: float, b: float, tol: float, depth: int | None = None) -> list[float]:
    """Midpoints of (a, b) and of its halves, ``depth`` levels deep or down to width tol.

    Without ``depth`` the levels that (a, b) still needs are split evenly
    into batches of at most REFINE_LOOKAHEAD levels, and the first batch is
    returned.
    """
    if b - a <= tol:
        return []
    if depth is None:
        levels = math.ceil(math.log2((b - a) / tol))
        depth = math.ceil(levels / math.ceil(levels / REFINE_LOOKAHEAD))
    if depth == 0:
        return []
    m = 0.5 * (a + b)
    return [m] + _subdivide(a, m, tol, depth - 1) + _subdivide(m, b, tol, depth - 1)


def _bisect(grid, cache, policy: SweepPolicy, found):
    """Bisection refinement around every change of (count, fate), replayed.

    Runs the one-run-at-a-time refinement -- always split the lowest open
    interval between neighbouring evaluated points whose (allowed_count,
    stop_reason) differ, until it is narrower than refine_tol -- but looks
    each midpoint up in ``cache``.  An interval whose midpoint is not cached
    yet is set aside as pending.  Returns (path, pending, unresolved, hit):
    with no pending interval, ``path`` holds exactly the midpoints the
    sequential refinement evaluates, in its order.
    """

    def key(d):
        return (d.allowed_count, d.stop_reason)

    frontier: list[tuple[float, float, int]] = []
    for s in policy.signs:
        gs = sorted(g for (g, sg) in grid if sg == s)
        for a, b in zip(gs, gs[1:]):
            if key(cache[(a, s)]) != key(cache[(b, s)]):
                frontier.append((a, b, s))
    path: list[tuple[float, int]] = []
    pending: list[tuple[float, float, int]] = []
    unresolved = hit = False
    while frontier:
        frontier.sort()
        a, b, s = frontier.pop(0)
        if b - a <= policy.refine_tol:
            continue
        if len(path) >= policy.max_extra_runs:
            unresolved = True
            break
        m = 0.5 * (a + b)
        diag = cache.get((m, s))
        if diag is None:
            pending.append((a, b, s))
            continue
        path.append((m, s))
        if found(diag):
            hit = True
            break
        if key(diag) != key(cache[(a, s)]):
            frontier.append((a, m, s))
        if key(diag) != key(cache[(b, s)]):
            frontier.append((m, b, s))
    return path, pending, unresolved, hit


def _one_process(threads: int) -> None:
    """Check the ``threads`` keyword that the sweep entry points still take.

    The sweeps run in one process.  The keyword stays, accepting only 1,
    while perfbench/ passes ``threads=1``; it goes when perfbench stops.
    """
    if threads != 1:
        raise ValueError(f"threads={threads!r}: the sweeps run in one process; "
                         "pass threads=1 or leave it out")


def max_switchings(
    p: Params,
    policy: SweepPolicy | None = None,
    stop_at: int | None = None,
    threads: int = 1,
) -> SweepResult:
    """Scan the backward family for the maximal switching count.

    The phi_T grid is traced as one trace_lanes batch, and each round of the
    bisection refinement as another.  Lane results do not depend on the
    batch, so the runs and their count equal those of a scan that traces one
    run at a time.  ``threads`` accepts only 1 (see :func:`_one_process`).

    The canonical system is odd: (x, y, phi, psi, u) -> -(x, y, phi, psi, u)
    maps extremals to extremals, and the run from (-phi_T, -s) is, bit for
    bit, the negation of the run from (phi_T, s).  Switch times, counts,
    stop reason, duration and residual are the same for both.  So each
    batch traces one lane per mirror pair, and the twin's diagnostics are
    the traced lane's with the twin's own phi_T and sign.  The grid
    (:func:`phi_grid`) is exactly antisymmetric, and midpoints of mirrored
    intervals are exact negations, so the pairs meet in every round.

    ``stop_at`` turns the sweep into an early-exit witness search: the scan
    returns as soon as some run reaches that allowed count (the boolean
    "max >= stop_at" is unchanged; only the amount of work differs).  The
    grid batch stops at its first witness.  Refinement rounds run to their
    end, since their look-ahead lanes off the bisection path must not count.
    """
    _one_process(threads)
    if policy is None:
        policy = SweepPolicy()
    eps = p.epsilon
    gmax = policy.phi_max_scaled
    jobs = [(g, s) for s in policy.signs for g in phi_grid(policy.grid_points, gmax)]
    cache: dict[tuple[float, int], RunDiagnostics] = {}

    def found(diag) -> bool:
        return stop_at is not None and diag.allowed_count >= stop_at

    def evaluate(batch, stop_at=None) -> None:
        """Add the runs of the jobs in batch to cache, tracing one lane per mirror pair."""
        traced, twins, seen = [], [], set()
        for g, s in batch:
            (twins if (-g, -s) in cache or (-g, -s) in seen else traced).append((g, s))
            seen.add((g, s))
        runs = trace_lanes([g for g, _ in traced], [s for _, s in traced], p, policy.stop, stop_at)
        cache.update((job, run_diagnostics(r)) for job, r in zip(traced, runs) if r is not None)
        for g, s in twins:
            diag = cache.get((-g, -s))
            if diag is not None:
                cache[(g, s)] = replace(diag, phi_T=g / eps, sign=s)

    evaluate(jobs, stop_at)
    table = {job: cache[job] for job in jobs if job in cache}
    hit = any(found(d) for d in table.values())
    unresolved = False
    if not hit:
        while True:
            path, pending, unresolved, hit = _bisect(table, cache, policy, found)
            if not pending:
                break
            evaluate([(m, s) for a, b, s in pending for m in _subdivide(a, b, policy.refine_tol)])
        table.update((k, cache[k]) for k in path)

    diags = [table[k] for k in sorted(table.keys(), key=lambda k: (k[1], k[0]))]
    max_allowed = max(d.allowed_count for d in diags)
    max_raw = max(d.switch_count for d in diags)
    best = min(
        ((g, s) for (g, s), d in table.items() if d.allowed_count == max_allowed),
        key=lambda k: (k[0], k[1]),
    )
    boundary = abs(abs(best[0]) - gmax) < 1e-12
    return SweepResult(
        epsilon=eps,
        max_allowed=max_allowed,
        max_raw=max_raw,
        argmax_phi_T=best[0] / eps,
        argmax_sign=best[1],
        runs=diags,
        boundary_hit=boundary,
        unresolved_transitions=unresolved,
        n_runs=len(diags),
    )


@dataclass(frozen=True)
class BifurcationRow:
    n: int
    epsilon_n: float
    product: float
    bracket_width: float


@dataclass
class BifurcationTable:
    rows: list[BifurcationRow]


class BracketError(Exception):
    """The integer count is not monotone across the supplied bracket."""


def _bifurcation(n: int, lo: float | None, hi: float | None, tol: float,
                 policy: SweepPolicy) -> BifurcationRow:
    """Bracket and bisect the eps where max_switchings first reaches n + 1.

    Without ``hi`` a geometric scan upward from eps = 1.2 finds an eps whose
    count is below n + 1; without ``lo`` a geometric descent from ``hi``
    finds one that reaches it.  Both ends are then checked and the bracket
    bisected down to width ``tol``.  Every eps is scanned at most once, so
    the checks cost nothing for the ends the two searches already answered.
    """
    if not (math.isfinite(tol) and tol > 0.0):
        # The bisection below stops on width tol; once its midpoint rounds to
        # an end, a smaller tol would loop forever on cached answers.
        raise ValueError(f"tol must be positive and finite, got {tol}")
    target = n + 1
    answers: dict[float, bool] = {}

    def reaches(eps: float) -> bool:
        if eps not in answers:
            res = max_switchings(Params(eps), policy, stop_at=target)
            answers[eps] = res.max_allowed >= target
        return answers[eps]

    if hi is None:
        hi = 1.2
        while reaches(hi):
            hi *= 1.5
            if hi > 64.0:
                raise BracketError(f"count >= {target} persists up to eps = {hi}")
    if lo is None:
        lo = hi
        while True:
            lo /= 1.25
            if lo < 1e-4:
                raise BracketError(f"count never reaches {target} down to eps = {lo}")
            if reaches(lo):
                break
            hi = lo
    if not reaches(lo):
        raise BracketError(f"count below {target} at eps_lo = {lo}")
    if reaches(hi):
        raise BracketError(f"count already >= {target} at eps_hi = {hi}")

    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if reaches(mid):
            lo = mid
        else:
            hi = mid
    eps_n = 0.5 * (lo + hi)
    return BifurcationRow(n=n, epsilon_n=eps_n, product=n * eps_n, bracket_width=hi - lo)


def find_bifurcation(
    n: int,
    bracket: tuple[float, float] | None = None,
    tol: float = 1e-3,
    policy: SweepPolicy | None = None,
    threads: int = 1,
) -> BifurcationRow:
    """Locate the n-th bifurcation value of the control amplitude.

    The n-th bifurcation is the n-th increment of the maximal switching count
    as eps decreases; at large amplitude the maximum is a single switching, so
    the n-th increment is where max_switchings first reaches the level n + 1.
    Bisection of the integer-valued map eps -> max_switchings(eps) on a
    bracket (eps_lo, eps_hi) whose ends are checked to have count >= n+1 at
    eps_lo and < n+1 at eps_hi.  Without a bracket, a geometric scan upward
    from eps = 1.2 (factor 1.5, up to 64) and then downward (factor 1.25,
    down to 1e-4) finds one, as for the first row of bifurcation_table.
    ``threads`` accepts only 1 (see :func:`_one_process`).
    """
    _one_process(threads)
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    lo = hi = None
    if bracket is not None:
        lo, hi = bracket
        if not lo < hi:
            raise BracketError(f"need eps_lo < eps_hi, got {bracket}")
    return _bifurcation(n, lo, hi, tol, policy or SweepPolicy())


def bifurcation_table(
    n_max: int,
    tol: float = 1e-3,
    policy: SweepPolicy | None = None,
) -> BifurcationTable:
    """Bifurcation values eps_1 > ... > eps_nmax by a shared descending scan.

    The thresholds are nested (reaching count n implies reaching n-1), so the
    search for eps_n descends from eps_{n-1} + tol instead of scanning up
    from eps = 1.2 again.  Each row is searched as find_bifurcation(n) would,
    and no eps is scanned twice for one row.
    """
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    policy = policy or SweepPolicy()
    rows: list[BifurcationRow] = []
    hi = None
    for n in range(1, n_max + 1):
        rows.append(_bifurcation(n, None, hi, tol, policy))
        hi = rows[-1].epsilon_n + tol
    return BifurcationTable(rows)
