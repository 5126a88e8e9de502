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

import bisect
import math
from collections.abc import Sequence
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .dynamics import ZONE_FACTOR, Params, in_zone_xy
from .integrator import (
    _ROOT_TOL,
    STOP_STEP_FAILURE,
    TAYLOR_ORDER,
    TAYLOR_TOL,
    _horner,
    _poly_root,
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

# A trace stops at the first of: the speed exit (SPEED_EXIT), the time
# budget TIME_BUDGET_FACTOR / eps, entry into the standstill zone
# (dynamics.ZONE_FACTOR) after first leaving it, the optimality screen
# (OPTIMALITY_SLACK), or a step failure (a non-finite Taylor step).  The
# time budget is a safety net: the screen cuts every run by
# tau(E)/eps + 0.7 <= 5.22/eps + 0.7, which is under 8/eps for eps < 3.9.
TIME_BUDGET_FACTOR = 8.0


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


# The bound looks energies up by segment: segment i holds
# knots[i] <= E < knots[i + 1], and one more segment past the last knot,
# where the bound is flat, holds E >= knots[-1].  On segment i the bound is
# the line _SEG_BASE[i] + _SEG_SLOPE[i] E.
_SEG_SLOPE = np.append(np.diff(_TAU_VALUES) / np.diff(_TAU_KNOTS), 0.0)
_SEG_BASE = _TAU_VALUES - _TAU_KNOTS * _SEG_SLOPE
_SEGMENTS = _SEG_SLOPE.size


def _slope_table(reduce):
    """reduce(slope[i..j]) at i * _SEGMENTS + j for i <= j, over the segments."""
    out = np.zeros((_SEGMENTS, _SEGMENTS))
    for i in range(_SEGMENTS):
        out[i, i:] = reduce.accumulate(_SEG_SLOPE[i:])
    return out.ravel()


_SLOPE_MIN, _SLOPE_MAX = _slope_table(np.minimum), _slope_table(np.maximum)


def _segment(E):
    """The segment of the tau(E) table that holds each energy E, elementwise."""
    return np.searchsorted(_TAU_KNOTS[1:], E, side="right")


def _slope_range(i, j):
    """The least and the largest slope of the tau(E) table over the segments i to j, elementwise.

    i and j may come in either order.  Past the last knot the slope is 0.
    """
    k = np.minimum(i, j) * _SEGMENTS + np.maximum(i, j)
    return _SLOPE_MIN.take(k), _SLOPE_MAX.take(k)


def _tau_bound(E, i=None):
    """tau(E) interpolated linearly between the knots, clamped at both ends, elementwise.

    i is the segment of E (:func:`_segment`), when the caller has it.
    """
    if i is None:
        i = _segment(E)
    return _SEG_BASE.take(i) + _SEG_SLOPE.take(i) * np.maximum(E, 0.0)


_KNOT_LIST = _TAU_KNOTS.tolist()  # the knots as floats: bisect compares them faster


def _segment_at(E: float) -> int:
    """:func:`_segment` at one energy: the same search, in the knots past the first."""
    return bisect.bisect_right(_KNOT_LIST, E, 1) - 1


def _tau_bound_at(E: float) -> float:
    """:func:`_tau_bound` at one energy, bit for bit: the same segment, line and clamp."""
    i = _segment_at(E)
    return _SEG_BASE.item(i) + _SEG_SLOPE.item(i) * max(E, 0.0)


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
    end_state: tuple[float, float, float, float]  # unscaled covector

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
    """What a sweep keeps of each run: its counts and stop, which the refinement compares,
    and the Sturm checks that criteria 7-9 and the ``extremals`` report read."""

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
# covector.  A step is the Taylor series of the canonical field at each
# lane's state, built for all lanes at once on an (order + 1, 4, lanes)
# block.  Every operation is elementwise per lane, and every sum runs over
# the leading axis, which numpy adds row by row, so a lane's result does not
# depend on the batch it rides in.


class _SeriesBlock:
    """The Taylor series of the canonical field on a block of a fixed number of lanes.

    The block of coefficients, its scratch arrays and the views that each
    order of the recurrences reads and writes are made once; a call fills
    the block for the (4, lanes) states Z and the controls ueps = u eps per
    lane, and returns it: the (TAYLOR_ORDER + 1, 4, lanes) coefficients.

    Z holds (x, y, eps phi, eps psi) = (x, y, P, Q) per lane.  The series is
    in the step variable tau = (t - t0) / H, for the time unit H = ``unit``,
    one value for all lanes or one per lane.  With the pair S = sin x,
    C = cos x, whose derivatives are S' = C x', C' = -S x', and x' = y,

        k S_k = H sum_{j=1..k} y_{j-1} C_{k-j},   k C_k = -H sum_{j=1..k} y_{j-1} S_{k-j},
        (k+1) x_{k+1} = H y_k,   (k+1) y_{k+1} = H (ueps [k = 0] - S_k),
        (k+1) P_{k+1} = H sum_{j=0..k} C_j Q_{k-j},   (k+1) Q_{k+1} = -H P_k.

    The factors H/k are built per lane, so a lane's coefficients do not
    depend on the units of the others.  At H = 1 the first-order
    coefficients are the field itself, bit for bit.  A block holds at least
    two lanes: numpy sums a one-lane block along its one remaining axis
    pairwise, not row by row, so one lane is traced doubled.
    """

    def __init__(self, lanes: int, unit):
        n = TAYLOR_ORDER
        unit = np.broadcast_to(np.asarray(unit, dtype=float), (lanes,))
        factors = {k: unit / k for k in range(1, n + 1)}  # H/k per lane
        signed = {k: np.stack((f, -f)) for k, f in factors.items()}  # the rows (H/k, -H/k)
        self.cf = cf = np.empty((n + 1, 4, lanes))
        sc = np.empty((n, 2, lanes))  # (S_k, C_k)
        # Order k sums y_{j-1} (S, C)_{k-j} over j = 1..k and, for P_k,
        # C_j Q_{k-1-j} over j = 0..k-1: k rows each, so one reduce sums all three.
        terms = np.empty((n, 3, lanes))
        sums = np.empty((3, lanes))
        ys, Qs = cf[:, 1, None], cf[:, 3]
        self.first = (sc[0, 0], sc[0, 1], factors[1], -factors[1])
        self.orders = [
            (ys[:k], sc[k - 1::-1], terms[:k, :2], sc[:k, 1], Qs[k - 1::-1], terms[:k, 2], terms[:k],
             sums, sums[1::-1], signed[k], sc[k], sums[2], factors[k], cf[k, 2], cf[k, 1:3],
             signed[k + 1], cf[k + 1, ::3], sc[k, 0], -factors[k + 1], cf[k + 1, 1])
            for k in range(1, n)
        ]
        self.last = (sc[:, 1], Qs[n - 1::-1], terms[:, 2], cf[n, 2], factors[n])

    def __call__(self, Z, ueps):
        cf = self.cf
        S, C, f, mf = self.first
        add, mul = np.add.reduce, np.multiply
        cf[0] = Z
        x, y, P, Q = Z
        np.sin(x, out=S)
        np.cos(x, out=C)
        mul(y, f, out=cf[1, 0])
        np.subtract(ueps, S, out=cf[1, 1])
        cf[1, 1] *= f
        mul(P, mf, out=cf[1, 3])
        for (ys, sc_rev, yt, Cs, Qs_rev, Pt, terms, sums, sums_rev, sg, sc_k, Psum, f, P_k, yP, sg1,
             xQ, S_k, mf, y1) in self.orders:
            # out as the third argument: the keyword costs more than these small products.
            mul(ys, sc_rev, yt)
            mul(Cs, Qs_rev, Pt)
            add(terms, axis=0, out=sums)
            mul(sums_rev, sg, sc_k)
            mul(Psum, f, P_k)
            mul(yP, sg1, xQ)  # x from y, Q from P
            mul(S_k, mf, y1)
        Cs, Qs_rev, Pt, P_n, f = self.last
        add(mul(Cs, Qs_rev, out=Pt), axis=0, out=P_n)
        P_n *= f
        return cf


def _step_rule(cf):
    """Jorba and Zou's step per lane, in the series variable.

    rho = min over j = N-1, N of (TAYLOR_TOL / m_j)^(1/j), as in
    ``integrator.pendulum_arc``; m_j is the largest of |x_j|, |y_j| and the
    covector's |P_j|, |Q_j| relative to max(1, |P_0|, |Q_0|).  The covector
    is linear and homogeneous, so only its relative error matters.  A zero
    m_j bounds nothing; NaN coefficients give a NaN step.
    """
    n = cf.shape[0] - 1
    scale = np.maximum(1.0, np.abs(cf[0, 2:]).max(axis=0))
    a = np.abs(cf[n - 1:])
    a[:, 2:] /= scale
    with np.errstate(divide="ignore", over="ignore"):
        return np.float_power(TAYLOR_TOL / a.max(axis=1), [[1.0 / (n - 1)], [1.0 / n]]).min(axis=0)


def _horner_lanes(cf, tau):
    """The series cf summed at tau per lane, by Horner's rule from the top."""
    acc = cf[-1].copy()
    for c in cf[-2::-1]:
        acc *= tau
        acc += c
    return acc


def _crossed(old, new):
    """Sign changes between the values old and new (either direction), elementwise.

    A change is from a sign to the other sign or to 0; NaN changes nothing.
    """
    a = np.sign(old)
    return a * (a - np.sign(new)) > 0.0


# The x-monotone pieces of an arc.  Between two zeros of y the lane's x is
# monotone, and w = d x grows along the backward trace (d = sign of the
# piece's x motion).  The arc's first integral y^2/2 - u eps x - cos x gives
# the speed and the energy as functions of w,
#
#     Y2(w) = ya^2 + 2 e (w - wa) + 2 (cos w - cos wa),   E(w) = Ea + e (w - wa),
#
# with e = d u eps.  Y2 is monotone between the roots of sin w = e, so on a
# piece cut at those roots (and at whatever else a test needs) each level is
# crossed at most once per cut, and brentq in w finds the crossing.  The
# mirror piece has the same w, e and Y2, so it gives the same answers.


def _speed2(wa: float, ya: float, e: float):
    """Y2(w) on the piece that starts at (wa, ya), from the first integral."""
    y2a, cwa = ya * ya, math.cos(wa)
    return lambda w: y2a + 2.0 * e * (w - wa) + 2.0 * (math.cos(w) - cwa)


def _cuts(wa: float, wb: float, e: float, thr: float | None = None) -> list[float]:
    """The roots of sin w = e in (wa, wb), and the band edges |sin w| = thr, sorted, then wb."""
    bases = []
    if abs(e) < 1.0:
        c = math.asin(e)
        bases += [(c, 2.0 * math.pi), (math.pi - c, 2.0 * math.pi)]
    if thr is not None:
        half = math.asin(thr)
        bases += [(half, math.pi), (-half, math.pi)]
    out = []
    for base, period in bases:
        w = base + period * (math.floor((wa - base) / period) + 1.0)
        while w < wb:
            out.append(w)
            w += period
    out.sort()
    out.append(wb)
    return out


def _piece_hit(wa: float, ya: float, wb: float, e: float, thr: float | None,
               armed: bool, xtol: float):
    """Where a piece first reaches the speed exit or enters the standstill zone.

    The piece runs from w = wa, with speed ya, to wb.  It is cut at the
    roots of sin w = e and, when the zone is on (thr is not None), at the
    band edges |sin w| = thr, so that on each cut the band test is constant.
    Then the exit is the first w with Y2 >= SPEED_EXIT^2; the lane is armed
    at the first w outside the zone (|y| >= thr or |sin x| >= thr), and once
    armed it enters the zone at the first w inside it (|y| < thr and
    |sin x| < thr).  So a pass of any length between two samples is found.
    Returns (armed, kind, w): kind is _EXIT, _STANDSTILL or None, w the
    point of the hit, and armed the lane's state there or at the piece's end.
    """
    speed2 = _speed2(wa, ya, e)

    def root(level: float, lo: float, hi: float) -> float:
        return brentq(lambda w: speed2(w) - level, lo, hi, xtol=xtol, rtol=8.9e-16)

    exit2 = SPEED_EXIT * SPEED_EXIT
    thr2 = thr * thr if thr is not None else 0.0
    lo, slo = wa, ya * ya
    for hi in _cuts(wa, wb, e, thr):
        shi = speed2(hi)
        hit = None
        if slo >= exit2:
            hit = (lo, _EXIT)
        elif shi >= exit2:
            hit = (root(exit2, lo, hi), _EXIT)
        if thr is not None:
            band = abs(math.sin(0.5 * (lo + hi))) < thr
            if not (band and slo < thr2):
                armed = True
            if armed and band:
                if slo < thr2:
                    hit = (lo, _STANDSTILL)
                elif shi < thr2 and hit is None:
                    hit = (root(thr2, lo, hi), _STANDSTILL)
            elif band and shi >= thr2:
                armed = True  # leaves; Y2 keeps rising on this cut
        if hit is not None:
            return armed, hit[1], hit[0]
        lo, slo = hi, shi
    return armed, None, None


def _gap_minima(wa: float, ya: float, wb: float, e: float, Ea: float, xtol: float) -> list[float]:
    """The local minima, in (wa, wb), of the budget gap along a piece that gains energy.

    The gap B = tau(E)/eps + OPTIMALITY_SLACK + t falls by 1 per unit of
    backward time and rises with tau(E)/eps.  For e = eps > 0, with
    dt/dw = -1/|y| and the table's slope rho on the segment that holds E(w),

        dB/dw = rho - 1 / sqrt(Y2(w)),

    so B rises where Y2 >= 1/rho^2.  On the piece cut at the roots of
    sin w = e and at the knots of the table, rho is constant and Y2
    monotone, so B turns from falling to rising at most once inside a cut,
    where Y2 rises through 1/rho^2, and otherwise at a knot.  (For e < 0 the
    gap falls all along the piece and has no inner minimum.)
    """
    speed2 = _speed2(wa, ya, e)
    Eb = Ea + e * (wb - wa)
    inner = _TAU_KNOTS[(Ea < _TAU_KNOTS) & (_TAU_KNOTS < Eb)].tolist()
    cuts = sorted(_cuts(wa, wb, e)[:-1] + [wa + (K - Ea) / e for K in inner if wa + (K - Ea) / e < wb])
    cuts.append(wb)
    minima = []
    rising = None
    lo, slo = wa, ya * ya
    for hi in cuts:
        shi = speed2(hi)
        E = Ea + e * (0.5 * (lo + hi) - wa)
        rho = _SEG_SLOPE.item(_segment_at(E))
        level = 1.0 / (rho * rho) if rho > 0.0 else math.inf
        up = slo >= level
        if rising is False and up:
            minima.append(lo)
        rising = up
        if up != (shi >= level):
            r = brentq(lambda w: speed2(w) - level, lo, hi, xtol=xtol, rtol=8.9e-16)
            if not rising:
                minima.append(r)
            rising = not rising
        lo, slo = hi, shi
    return minima


_SWITCH, _EXIT, _STANDSTILL, _OPTIMALITY = range(4)  # the terminal events; at equal times the first wins
_REASON = {_EXIT: STOP_ENERGY_EXIT, _STANDSTILL: STOP_STANDSTILL, _OPTIMALITY: STOP_OPTIMALITY}
_SCREEN_SLACK = 1e-9  # margin of the vectorised screens over rounding
# The first maximum and minimum of Y2 past a piece's start: their bases
# top and pi - top, and Y2 there when they lie past the step's end.
_TURNS, _TURN_SIGNS = np.array([[0.0], [math.pi]]), np.array([[1.0], [-1.0]])
_NO_TURN = np.array([[-np.inf], [np.inf]])


def _root(f, a: float, b: float) -> float:
    """brentq's zero of f between a and b in the step variable.

    Where rounding leaves f with one sign at both ends, the zero is the end
    where |f| is least.
    """
    try:
        return brentq(f, a, b, **_ROOT_TOL)
    except ValueError:  # f(a) and f(b) have one sign
        return min((a, b), key=lambda s: abs(f(s)))


@dataclass
class LaneWork:
    """The work of trace_lanes batches, added up over every batch it is passed to.

    ``batch_steps`` counts Taylor steps of whole batches, ``lane_steps`` the
    steps of single lanes, ``events`` the events located (switch, exit, y0,
    budget line, zone entry), ``event_residual_max`` the worst
    |g| there, ``peak_lanes`` the largest batch, and ``stops`` the runs by
    stop reason.  A block that merges the batches of several scans
    (:func:`_run_scans`) counts once in ``batches``, ``batch_steps`` and
    ``peak_lanes``; its lanes count in the rest as they would alone.
    """

    batches: int = 0
    batch_steps: int = 0
    lane_steps: int = 0
    events: int = 0
    event_residual_max: float = 0.0
    peak_lanes: int = 0
    stops: dict[str, int] = field(default_factory=dict)


class _Group:
    """The values of one eps that trace_lanes uses, for the lanes of a block that share eps and stop_at.

    unit is the Taylor time unit H = 1/max(1, eps) of its lanes' series;
    t_limit is the time budget's end; thr, thr2 and zone_on the standstill
    zone |y| < thr, |sin x| < thr and whether it exists (thr < 1); band_reach
    and band_edge its bands around k pi, widened and narrowed by the screens'
    slack, in units of pi; ce = asin(eps), where Y2 turns; max_arcs the arcs
    that fit in the budget.  The zone holds energies up to E_bottom
    (cos x > 0) and from E_top on (cos x < 0), and y^2 <= 2 E there.
    """

    __slots__ = ("eps", "stop_at", "unit", "t_limit", "thr", "thr2", "zone_on", "band_reach",
                 "band_edge", "ce", "max_arcs", "E_bottom", "E_top")

    def __init__(self, eps: float, stop_at: int | None):
        self.eps, self.stop_at = eps, stop_at
        self.unit = 1.0 / max(1.0, eps)
        t_budget = TIME_BUDGET_FACTOR / eps
        self.t_limit = -t_budget
        self.thr = thr = ZONE_FACTOR * eps
        self.zone_on = zone_on = thr < 1.0
        self.thr2 = thr2 = thr * thr
        half_band = math.asin(thr) if zone_on else 0.0
        self.band_reach = (half_band + _SCREEN_SLACK) / math.pi
        self.band_edge = (half_band - _SCREEN_SLACK) / math.pi
        self.ce = math.asin(eps) if eps < 1.0 else 0.0
        self.max_arcs = int(t_budget / math.pi) + 8
        self.E_bottom = 0.5 * thr2 + 1.0 - math.sqrt(1.0 - thr2) if zone_on else 0.0
        self.E_top = 1.0 + math.sqrt(1.0 - thr2) if zone_on else 0.0


class _LaneBlock:
    """The lanes of a trace_lanes block: every attribute is a column, one entry per lane.

    Z holds the states (x, y, eps phi, eps psi) = (x, y, P, Q), (4, lanes).
    Per lane: its index in the input and its group, its control u eps, time
    and arc count, whether it has been outside the standstill zone
    (``armed``) and whether its arc touches the zone (it began before
    arming), its worst Hamiltonian residual, its budget gap at t, whether it
    runs on (``live``), and its group's values (:class:`_Group`).  A finished
    lane leaves ``live`` but stays in the block, whose columns and series
    workspace keep their shape, until the live lanes fall to half of it.
    """

    def __init__(self, g, sgn, grp, gs: list[_Group]):
        n = g.size
        self.eps, self.unit, self.t_limit, self.thr2, zone, self.band_reach, self.band_edge, self.ce = (
            np.array([getattr(gr, a) for gr in gs], dtype=float)[grp]
            for a in ("eps", "unit", "t_limit", "thr2", "zone_on", "band_reach", "band_edge", "ce"))
        self.zone = zone > 0.0
        self.lane, self.grp = np.arange(n), grp
        self.Z = np.zeros((4, n))
        self.Z[2], self.Z[3] = self.eps * (g / self.eps), sgn
        self.ueps = sgn * self.eps
        self.t, self.arcs = np.zeros(n), np.ones(n, dtype=int)
        self.armed, self.touched = np.zeros(n, dtype=bool), self.zone.copy()
        self.maxres, self.gap_t = np.zeros(n), np.full(n, OPTIMALITY_SLACK)
        self.live = np.ones(n, dtype=bool)

    def compact(self) -> int:
        """Keep only the live lanes, a lone one twice (a block holds two lanes); return the width."""
        keep = self.live.nonzero()[0]
        m = keep.size
        keep = np.repeat(keep, 2) if m == 1 else keep  # the copy is not live
        for name, column in list(vars(self).items()):
            setattr(self, name, column[..., keep])
        self.live[m:] = False
        return keep.size

    def step(self, series: _SeriesBlock):
        """One Taylor step on every lane, clipped at its time budget: the series, the step in its
        variable, the time and state at its end, and whether it is the last and is finite."""
        cf = series(self.Z, self.ueps)
        rho = _step_rule(cf)
        t_new = self.t - self.unit * rho
        last = ~(t_new > self.t_limit)
        tau = np.where(last, (self.t_limit - self.t) / self.unit, -rho)
        np.copyto(t_new, self.t_limit, where=last)
        Zn = _horner_lanes(cf, tau)
        return cf, tau, t_new, Zn, last, (rho > 0.0) & np.isfinite(Zn).all(axis=0)

    def commit(self, mask, Zn, t_new, gap, r) -> None:
        """Move the lanes in mask to the step's end: state Zn at t_new, budget gap and residual r."""
        np.copyto(self.Z, Zn, where=mask)
        np.copyto(self.t, t_new, where=mask)
        np.copyto(self.gap_t, gap, where=mask)
        np.fmax(self.maxres, r, out=self.maxres, where=mask)

    def restart(self, ks: list[int]) -> None:
        """Start the next arc of the lanes ks."""
        if ks:
            self.ueps[ks] = -self.ueps[ks]
            self.arcs[ks] += 1
            self.touched[ks] = self.zone[ks] & ~self.armed[ks]


def _screen(blk: _LaneBlock, Zn, t_new):
    """Which lanes' steps may hold an event, and the step's end values that a commit stores.

    The screens: the switch and y0 sign changes across the step; where x is
    monotone over the step, the extremes over its x range of the first
    integral's speed (see :func:`_piece_hit`), at the ends and at the first
    interior maximum and minimum, against the speed exit and, on the lanes
    with a standstill zone, the zone's bands; and bounds on the budget gap.
    Returns (sw, y0, scan, budget, gap, r), r the Hamiltonian residual.
    """
    Z, eps_l, gap_t = blk.Z, blk.eps, blk.gap_t
    xa, ya, xb, yb = Z[0], Z[1], Zn[0], Zn[1]
    y0, sw = _crossed(Z[1::2], Zn[1::2])
    sn, cn = np.sin(xb), np.cos(xb)
    y2a, y2b = ya * ya, yb * yb
    Eb = 0.5 * y2b + 1.0 - cn
    seg_b = _segment(Eb)
    gap = _tau_bound(Eb, seg_b) / eps_l + OPTIMALITY_SLACK + t_new
    d = np.where(xb >= xa, 1.0, -1.0)
    wa, wb, e = d * xa, d * xb, d * blk.ueps
    cwa = np.cos(wa)
    lead = y2a - 2.0 * e * wa - 2.0 * cwa
    # Y2 has its maxima at top + 2 pi k and its minima at pi - top + 2 pi k, top = asin(e).
    base = _TURNS + _TURN_SIGNS * np.copysign(blk.ce, e)
    w_turn = base + 2.0 * math.pi * np.ceil((wa - base) / (2.0 * math.pi))
    s_turn = np.where(w_turn < wb, lead + 2.0 * e * w_turn + 2.0 * np.cos(w_turn), _NO_TURN)
    hi = np.maximum(np.maximum(y2a, y2b), s_turn[0])
    lo = np.minimum(np.minimum(y2a, y2b), s_turn[1])
    wide = wb - wa > math.pi  # a range past one max and min of Y2
    scan = y0 | wide | (hi >= SPEED_EXIT ** 2 - _SCREEN_SLACK)
    # In backward time s the gap changes at the rate rho |y| - 1 while the
    # energy rises (e > 0; rho is the table's slope), and at -rho |y| - 1
    # while it falls.  Over a step from gap_t it stays above
    # gap_t - (1 - rho_lo |y|_lo) (s - s_a), and above its end value gap
    # when rho_hi |y|_hi <= 1.  A wide step without a zero of y is bounded
    # by gap_t minus the step's length; a step with a zero of y is bounded
    # in the scalar location, once the zero is found.
    span = blk.t - t_new
    rho_lo, rho_hi = _slope_range(_segment(0.5 * y2a + 1.0 - cwa), seg_b)
    fall = np.maximum(0.0, 1.0 - rho_lo * np.sqrt(np.maximum(lo, 0.0)))
    budget = (gap <= 0.0) | (wide & (gap_t - span <= _SCREEN_SLACK)) | (
        (e > 0.0) & (rho_hi * np.sqrt(hi) > 1.0) & (gap_t - fall * span <= _SCREEN_SLACK))
    # In units of pi: the bands of the zone around k pi that the step's
    # range meets, and the edge of the band it starts in.
    qa, qb = wa * (1.0 / math.pi), wb * (1.0 / math.pi)
    meets = np.ceil(qa - blk.band_reach) <= qb + blk.band_reach
    leaves = qb >= np.rint(qa) + blk.band_edge
    near = np.where(blk.armed, meets & (lo <= blk.thr2 + _SCREEN_SLACK),
                    leaves | (hi >= blk.thr2 - _SCREEN_SLACK))
    scan |= near & blk.zone
    r = np.abs(yb * Zn[2] - sn * Zn[3] + eps_l * np.abs(Zn[3]) - eps_l)
    return sw, y0, scan, budget, gap, r


def _located(work: LaneWork, tau: float, g: float) -> float:
    """The event at tau, where the event function is g, counted in ``work``."""
    work.events += 1
    work.event_residual_max = max(work.event_residual_max, abs(g))
    return tau


def _residual_at(state, eps: float) -> float:
    """The Hamiltonian residual at one state (x, y, P, Q)."""
    x, y, P, Q = state
    return abs(y * P - math.sin(x) * Q + eps * abs(Q) - eps)


def _gap_at(E: float, t: float, eps: float) -> float:
    """The budget gap tau(E)/eps + OPTIMALITY_SLACK + t at the energy E and time t."""
    return _tau_bound_at(E) / eps + OPTIMALITY_SLACK + t


def _locate(c, tau_end: float, t0: float, uk: float, xe: float, ye: float, Qe: float, sw: bool,
            y0: bool, scan: bool, budget: bool, arm: bool, gr: _Group, work: LaneWork):
    """The first event on one lane-step that the screen flagged, on the step's polynomials.

    c holds the series (x, y, P, Q) in s, at time t0 + H s for the group's
    unit H, over the step from s = 0 to tau_end, where (x, y, Q) is
    (xe, ye, Qe); uk is u eps, arm the armed flag, gr the group, and sw, y0,
    scan and budget the screen's flags.
    The switch ends the scan; the x-monotone pieces before it, split at the
    zero of y, are searched in order for the speed exit and the zone
    (:func:`_piece_hit`) and the budget line (:func:`_gap_minima`).  Returns
    (kind, tau, state, armed, y0): the event (kind None: none) and the state
    there, the armed flag there or at the end, and the y-zero times before it.
    """
    cx, cy, cP, cQ = c
    tau_e, kind = tau_end, None
    if sw:
        tau_e = _poly_root(cQ, 0.0, tau_end, 0.0, Qe, cQ[0])
        tau_e, kind = _located(work, tau_e, _horner(cQ, tau_e) - 0.0), _SWITCH
        xe, ye = _horner(cx, tau_e), _horner(cy, tau_e)  # where the scan ends
    ends, xs, ys = [0.0], [cx[0]], [cy[0]]
    # y changes sign at most once on a step; past the switch its zero is not needed.
    if y0 and (kind is None or (ye < 0.0) != (cy[0] < 0.0)):
        s0 = _poly_root(cy, 0.0, tau_e, 0.0, ye, cy[0])
        ends.append(_located(work, s0, _horner(cy, s0) - 0.0))
        xs.append(_horner(cx, s0))
        ys.append(_horner(cy, s0))
    ends.append(tau_e)
    xs.append(xe)
    ys.append(ye)
    if scan or budget:
        xtol = _ROOT_TOL["xtol"] * gr.unit
        # The energy is monotone on each piece, between its values at the piece's ends.
        Es = [0.5 * y * y + 1.0 - math.cos(x) for x, y in zip(xs, ys)]
        if y0 and not budget:
            # So the gap is at least its value at the least end energy and at the scan's end time.
            budget = _gap_at(min(Es), t0 + gr.unit * tau_e, gr.eps) <= _SCREEN_SLACK
        if budget:
            def gap(s: float) -> float:
                x, y = _horner(cx, s), _horner(cy, s)
                return _gap_at(0.5 * y * y + 1.0 - math.cos(x), t0 + gr.unit * s, gr.eps)

        for j in range(len(ends) - 1):
            a, b, xa, ya, xb = ends[j], ends[j + 1], xs[j], ys[j], xs[j + 1]
            scan_j = scan
            if scan:
                # Whether the piece may meet the speed exit, or arm or enter the zone: else
                # _piece_hit finds nothing on it.  It arms where it leaves the zone, which it
                # cannot below thr^2 / 2.
                E_lo, E_hi = min(Es[j], Es[j + 1]), max(Es[j], Es[j + 1])
                scan_j = 2.0 * E_hi >= SPEED_EXIT ** 2 - _SCREEN_SLACK or gr.zone_on and (
                    (E_lo <= gr.E_bottom + _SCREEN_SLACK or E_hi >= gr.E_top - _SCREEN_SLACK) if arm
                    else E_hi >= 0.5 * gr.thr2 - _SCREEN_SLACK)
            if not (scan_j or budget) or xb == xa:
                continue
            d = 1.0 if xb > xa else -1.0
            wa, wb, e = d * xa, d * xb, d * uk
            hits = []
            if scan_j:
                arm, hit, w = _piece_hit(wa, ya, wb, e, gr.thr if gr.zone_on else None, arm, xtol)
                if hit is not None:
                    level = d * w
                    s = _poly_root(cx, level, b, a, xb - level, xa - level)
                    hits.append((_located(work, s, _horner(cx, s) - level), hit))
            if budget:
                prev, xprev = a, xa
                for w in (_gap_minima(wa, ya, wb, e, Es[j], xtol) if e > 0.0 else ()):
                    level = d * w
                    s = _poly_root(cx, level, b, prev, xb - level, xprev - level)
                    if gap(s) <= 0.0:
                        break
                    prev, xprev = s, _horner(cx, s)
                else:
                    s = b if gap(b) <= 0.0 else None
                if s is not None:
                    s = _root(gap, s, prev)
                    hits.append((_located(work, s, gap(s)), _OPTIMALITY))
            if hits:
                hit = max(hits, key=lambda q: (q[0], -q[1]))
                if kind is None or hit[0] > tau_e:
                    tau_e, kind = hit
                    break
    state = None
    if kind == _SWITCH:
        # psi is set to a zero of the sign it had, so that the next arc's
        # first step sees no sign change, and the mirror lane's state stays
        # the exact negation.
        state = [xe, ye, _horner(cP, tau_e), 0.0 * cQ[0]]
    elif kind is not None:
        state = [_horner(ck, tau_e) for ck in c]
    y0_times = (t0 + gr.unit * ends[1],) if len(ends) == 3 and ends[1] > tau_e else ()
    return kind, tau_e, state, arm, y0_times


class _RunLog:
    """What a lane records on its way, in input order, for :func:`_finish`."""

    __slots__ = ("phi_T", "sign", "switch_times", "switch_states", "switch_in_zone", "y_zero_times",
                 "arc_zone_touched")

    def __init__(self, phi_T: float, sign: int):
        self.phi_T, self.sign = phi_T, sign
        self.switch_times, self.switch_states, self.switch_in_zone = [], [], []
        self.y_zero_times, self.arc_zone_touched = [], []


def _switch(blk: _LaneBlock, k: int, t_k: float, state, gr: _Group, log: _RunLog) -> None:
    """Put block lane k at its switch, at time t_k in state, and log it."""
    eps = gr.eps
    x, y, P, Q = state
    blk.t[k] = t_k
    blk.maxres[k] = max(blk.maxres[k], _residual_at(state, eps))
    blk.gap_t[k] = _gap_at(0.5 * y * y + 1.0 - math.cos(x), t_k, eps)
    log.switch_times.append(t_k)
    log.switch_states.append((x, y, P / eps, Q / eps))
    log.switch_in_zone.append(gr.zone_on and in_zone_xy(x, y, gr.thr))
    log.arc_zone_touched.append(bool(blk.touched[k]))
    blk.Z[:, k] = state


def _finish(blk: _LaneBlock, k: int, reason: str, state, gr: _Group, log: _RunLog,
            work: LaneWork) -> ExtremalRun:
    """The run of block lane k, ended for ``reason`` at its time t[k] in ``state``; the lane
    leaves ``live``, its last arc closes (unless it ended at a switch) and ``work`` counts it."""
    eps = gr.eps
    blk.live[k] = False
    if len(log.arc_zone_touched) < blk.arcs[k]:
        log.arc_zone_touched.append(bool(blk.touched[k]) or reason == STOP_STANDSTILL)
    work.stops[reason] = work.stops.get(reason, 0) + 1
    return ExtremalRun(
        phi_T=log.phi_T, sign=log.sign, epsilon=eps, switch_times=tuple(log.switch_times),
        switch_states=tuple(log.switch_states), switch_in_zone=tuple(log.switch_in_zone),
        y_zero_times=tuple(log.y_zero_times), arc_zone_touched=tuple(log.arc_zone_touched),
        stop_reason=reason, duration=abs(float(blk.t[k])),
        max_hamiltonian_residual=float(blk.maxres[k]) / eps,
        end_state=(state[0], state[1], state[2] / eps, state[3] / eps))


def trace_lanes(g, signs, p: Params | Sequence[Params],
                stop_at: int | None | Sequence[int | None] = None,
                work: LaneWork | None = None) -> list[ExtremalRun | None]:
    """Trace the backward extremals (phi_T, s) = (g / eps, signs) all at once: the package's one tracer.

    Each lane of the block (:class:`_LaneBlock`) steps by the Taylor series
    of the canonical field (:class:`_SeriesBlock`) over Jorba and Zou's
    step (:func:`_step_rule`), in its group's time unit H.  Screens
    (:func:`_screen`) send only the lane-steps that may hold an event to the
    scalar location (:func:`_locate`) of the switch, the speed exit, the
    standstill zone and the optimality budget line.  A non-finite step is a
    step failure.  ``work``, when given, has this block's counts added to it.

    ``p`` is one Params or one per lane, and ``stop_at`` one int or None or
    one per lane.  The lanes that share eps and stop_at form a group
    (:class:`_Group`); a lane's run does not depend on the other groups, so
    lanes of any eps share a block.  A group with ``stop_at`` is a witness
    search, with one end rule: it ends at the step where one of its runs
    ends with an allowed count of at least ``stop_at``.  The lanes still
    running in an ended group come back as None.
    """
    g = np.asarray(g, dtype=float)
    sgn = np.asarray(signs, dtype=float)
    if not np.all(np.isfinite(g)):
        raise ValueError(f"non-finite g = eps * phi_T: {g[~np.isfinite(g)][0]}")
    if g.shape != sgn.shape or not np.all(np.abs(sgn) == 1.0):
        raise ValueError("need one sign of +-1 per lane")
    n = g.size
    ps = [p] * n if isinstance(p, Params) else list(p)
    stops = [stop_at] * n if np.ndim(stop_at) == 0 else list(stop_at)
    if len(ps) != n or len(stops) != n:
        raise ValueError("need one Params and one stop_at per lane")
    groups: dict[tuple[float, int | None], int] = {}
    grp = np.array([groups.setdefault((q.epsilon, k), len(groups)) for q, k in zip(ps, stops)],
                   dtype=np.intp)
    work = LaneWork() if work is None else work
    work.batches += 1
    work.peak_lanes = max(work.peak_lanes, n)
    gs = [_Group(eps, k) for eps, k in groups]
    blk = _LaneBlock(g, sgn, grp, gs)
    logs = [_RunLog(phi, int(s)) for phi, s in zip((g / blk.eps).tolist(), sgn)]
    out: list[ExtremalRun | None] = [None] * n
    series = None
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        while (m := int(np.count_nonzero(blk.live))) > 0:
            if series is None or (2 * m <= blk.lane.size and blk.lane.size > 2):
                width = blk.compact()
                series = _SeriesBlock(width, blk.unit)
            work.batch_steps += 1
            work.lane_steps += m
            cf, tau, t_new, Zn, last, ok = blk.step(series)
            # The lanes that stop in this step, (k, reason, state), end after the commit.
            done = [(k, STOP_STEP_FAILURE, blk.Z[:, k].tolist()) for k in (blk.live & ~ok).nonzero()[0]]
            blk.live &= ok
            sw, y0, scan, budget, gap, r = _screen(blk, Zn, t_new)
            flag = (scan | budget | sw | last) & blk.live
            commit = blk.live & ~flag  # the lanes whose step's end becomes their state
            restart = []
            idx = flag.nonzero()[0]
            # The flagged lanes' values as Python numbers, freed with the loop's iterator.
            for (k, c, i, gk, tau_end, t0, uk, xe, ye, Pe, Qe, sw_k, y0_k, scan_k, budget_k, last_k,
                 arm) in zip(
                    idx.tolist(), cf[:, :, idx].transpose(2, 1, 0).tolist(),
                    *(a[idx].tolist() for a in (blk.lane, blk.grp, tau, blk.t, blk.ueps, *Zn,
                                                sw, y0, scan, budget, last, blk.armed))):
                gr = gs[gk]
                kind, tau_e, state, blk.armed[k], y0s = _locate(
                    c, tau_end, t0, uk, xe, ye, Qe, sw_k, y0_k, scan_k, budget_k, arm, gr, work)
                logs[i].y_zero_times.extend(y0s)
                if kind is None:
                    commit[k] = True
                    if last_k:
                        done.append((k, STOP_TIME_BUDGET, [xe, ye, Pe, Qe]))
                elif kind != _SWITCH:
                    blk.t[k] = t0 + gr.unit * tau_e
                    done.append((k, _REASON[kind], state))
                else:
                    _switch(blk, k, t0 + gr.unit * tau_e, state, gr, logs[i])
                    if blk.arcs[k] == gr.max_arcs:
                        done.append((k, STOP_TIME_BUDGET, state))
                    else:
                        restart.append(k)
            blk.commit(commit, Zn, t_new, gap, r)
            ended = set()  # the groups whose witness search ends in this step
            for k, reason, state in done:
                i, gr = blk.lane[k], gs[blk.grp[k]]
                run = out[i] = _finish(blk, k, reason, state, gr, logs[i], work)
                if gr.stop_at is not None and run.allowed_count >= gr.stop_at:
                    ended.add(blk.grp[k])
            blk.restart(restart)
            if ended:
                blk.live &= ~np.isin(blk.grp, list(ended))
    return out


def trace_extremal(phi_T: float, s: int, p: Params, keep_samples: bool = False) -> ExtremalRun:
    """The backward extremal from (phi_T, s): a one-lane :func:`trace_lanes` batch.

    ``keep_samples`` accepts only False, as runs keep no samples; the
    keyword stays while perfbench/ passes it.
    """
    if s not in (-1, 1):
        raise ValueError(f"s must be +-1, got {s}")
    if keep_samples:
        raise ValueError("keep_samples=True: extremal runs keep no samples; "
                         "pass False or leave it out")
    (run,) = trace_lanes([p.epsilon * phi_T], [s], p)
    return replace(run, phi_T=phi_T)


@dataclass(frozen=True)
class SweepPolicy:
    """phi_T scan policy for the switching-count supremum.

    The terminal covector slope is scanned in the rescaled variable
    g = eps * phi_T over [-phi_max_scaled, phi_max_scaled] (so the raw range
    is +-phi_max_scaled/eps), on a uniform grid for each control sign +-1,
    refined by bisection around every change of (allowed_count, stop_reason)
    until the scaled spacing drops below REFINE_TOL, with at most
    MAX_EXTRA_RUNS refinement runs.
    """

    phi_max_scaled: float = 4.0
    grid_points: int = 512
    # Not a field: every sweep scans both signs.  perfbench/tracing.py still
    # reads it; ROADMAP item 2's benchmark change deletes it.
    signs = (1, -1)

    def __post_init__(self):
        if self.grid_points < 2:
            raise ValueError(f"grid_points must be >= 2, got {self.grid_points}")
        value = self.phi_max_scaled
        if not (math.isfinite(value) and value > 0.0):
            raise ValueError(f"phi_max_scaled must be positive and finite, got {value}")


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
    stats: LaneWork  # the grid batch and every refinement round, added up


# Most bisection levels of one frontier interval traced in one refinement
# batch: 2**k - 1 lanes buy k levels, of which the refinement keeps about k.
REFINE_LOOKAHEAD = 4
# The refinement stops where the interval around a change of (count, fate)
# is REFINE_TOL wide in g = eps * phi_T, or after MAX_EXTRA_RUNS runs.
REFINE_TOL = 1e-3
MAX_EXTRA_RUNS = 4096


def _subdivide(a: float, b: float, depth: int | None = None) -> list[float]:
    """Midpoints of (a, b) and of its halves, ``depth`` levels deep or down to width REFINE_TOL.

    Without ``depth`` the levels that (a, b) still needs are split evenly
    into batches of at most REFINE_LOOKAHEAD levels, and the first batch is
    returned.
    """
    if b - a <= REFINE_TOL:
        return []
    if depth is None:
        levels = math.ceil(math.log2((b - a) / REFINE_TOL))
        depth = math.ceil(levels / math.ceil(levels / REFINE_LOOKAHEAD))
    if depth == 0:
        return []
    m = 0.5 * (a + b)
    return [m] + _subdivide(a, m, depth - 1) + _subdivide(m, b, depth - 1)


def _bisect(grid, cache, found):
    """Bisection refinement around every change of (count, fate), replayed.

    Runs the one-run-at-a-time refinement -- always split the lowest open
    interval between neighbouring evaluated points whose (allowed_count,
    stop_reason) differ, until it is narrower than REFINE_TOL -- but looks
    each midpoint up in ``cache``.  An interval whose midpoint is not cached
    yet is set aside as pending.  Returns (path, pending, unresolved, hit):
    with no pending interval, ``path`` holds exactly the midpoints the
    sequential refinement evaluates, in its order.
    """

    def key(d):
        return (d.allowed_count, d.stop_reason)

    frontier: list[tuple[float, float, int]] = []
    for s in (1, -1):
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
        if b - a <= REFINE_TOL:
            continue
        if len(path) >= MAX_EXTRA_RUNS:
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


def _scan(p: Params, policy: SweepPolicy, stop_at: int | None, work: LaneWork):
    """The scan of :func:`max_switchings`, as a generator that :func:`_run_scans` runs.

    It yields its batches, each as (p, g, signs, stop_at), one at a time,
    receives each batch's runs, and returns the SweepResult, whose stats
    are ``work``.  When the grid batch has no witness, the scan then yields
    the grid's max_allowed, an int: a provisional answer, which the
    refinement rounds can only raise.
    """
    eps = p.epsilon
    gmax = policy.phi_max_scaled
    jobs = [(g, s) for s in (1, -1) for g in phi_grid(policy.grid_points, gmax)]
    cache: dict[tuple[float, int], RunDiagnostics] = {}

    def found(diag) -> bool:
        return stop_at is not None and diag.allowed_count >= stop_at

    def evaluate(batch, stop_at=None):
        """Add the runs of the jobs in batch to cache, tracing one lane per mirror pair."""
        traced, twins, seen = [], [], set()
        for g, s in batch:
            (twins if (-g, -s) in cache or (-g, -s) in seen else traced).append((g, s))
            seen.add((g, s))
        runs = yield p, [g for g, _ in traced], [s for _, s in traced], stop_at
        cache.update((job, run_diagnostics(r)) for job, r in zip(traced, runs) if r is not None)
        for g, s in twins:
            diag = cache.get((-g, -s))
            if diag is not None:
                cache[(g, s)] = replace(diag, phi_T=g / eps, sign=s)

    yield from evaluate(jobs, stop_at)
    table = {job: cache[job] for job in jobs if job in cache}
    hit = any(found(d) for d in table.values())
    unresolved = False
    if not hit:
        yield max(d.allowed_count for d in table.values())
        while True:
            path, pending, unresolved, hit = _bisect(table, cache, found)
            if not pending:
                break
            yield from evaluate([(m, s) for a, b, s in pending for m in _subdivide(a, b)])
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
        stats=work,
    )


def _run_scans(scans: dict, work: LaneWork):
    """Run the scans in ``scans`` (key -> :func:`_scan`) together; yield their answers.

    Each round traces the pending batches of all scans, at any eps, as one
    trace_lanes block, and ``work`` counts the blocks.  After each round it
    yields what the scans answered, as (key, max_allowed, result): a
    provisional answer (result None) when a scan's grid round is in, and the
    final one with the SweepResult when it ends, after which the scan leaves
    ``scans``.  Between yields the caller may add scans, which join the next
    round, and close and remove scans, which then trace no further batch and
    answer nothing more.  A lane's run does not depend on its block, so each
    result is the one the scan gets alone.
    """
    batches, answered = {}, []

    def advance(key, runs=None):
        """Send ``runs`` to scan ``key`` and take its answers up to its next batch."""
        try:
            item = scans[key].send(runs)
            while isinstance(item, int):
                answered.append((key, item, None))
                item = next(scans[key])
            batches[key] = item
        except StopIteration as stop:
            answered.append((key, stop.value.max_allowed, stop.value))

    while scans:
        for key in [k for k in scans if k not in batches]:
            advance(key)
        parts, batches = batches, {}
        runs = trace_lanes([g for _, gs, _, _ in parts.values() for g in gs],
                           [s for _, _, ss, _ in parts.values() for s in ss],
                           [p for p, gs, _, _ in parts.values() for _ in gs],
                           [k for _, gs, _, k in parts.values() for _ in gs], work)
        start = 0
        for key, (_, gs, _, _) in parts.items():
            advance(key, runs[start:start + len(gs)])
            start += len(gs)
        ready, answered = answered, []
        for key, count, result in ready:
            if key not in scans:
                continue  # closed by the caller
            if result is not None:
                del scans[key]
            yield key, count, result
            for closed in [k for k in batches if k not in scans]:
                del batches[closed]


def max_switchings(
    p: Params,
    policy: SweepPolicy | None = None,
    stop_at: int | None = None,
    threads: int = 1,
) -> SweepResult:
    """Scan the backward family for the maximal switching count.

    The phi_T grid is traced as one trace_lanes batch, and each round of the
    bisection refinement as another; ``stats`` adds up their work.  This is
    :func:`_scan` run alone by :func:`_run_scans`.  Lane
    results do not depend on the batch, so the runs and their count equal
    those of a scan that traces one run at a time.  ``threads`` accepts only
    1 (see :func:`_one_process`).

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
    work = LaneWork()
    # The last answer is the final one; max_switchings has no use for the grid's.
    *_, (_, _, res) = _run_scans({p.epsilon: _scan(p, policy or SweepPolicy(), stop_at, work)},
                                 work)
    return res


@dataclass(frozen=True)
class BifurcationRow:
    n: int
    epsilon_n: float
    product: float
    bracket_width: float
    # The scans of the search made one at a time, and the work of every block traced.
    scans: int = field(default=0, compare=False)
    stats: LaneWork = field(default_factory=LaneWork, compare=False)


class BracketError(Exception):
    """The integer count is not monotone across the supplied bracket."""


class _Waiting(Exception):
    """The bracket search needs the answer of a scan that is still running."""


def _bifurcation(n: int, lo: float | None, hi: float | None, tol: float,
                 policy: SweepPolicy) -> BifurcationRow:
    """Bracket and bisect the eps where max_switchings first reaches n + 1.

    Without ``hi`` a geometric scan upward from eps = 1.2 finds an eps whose
    count is below n + 1; without ``lo`` a geometric descent from ``hi``
    finds one that reaches it.  Both ends are then checked and the bracket
    bisected down to width ``tol``.  Every eps is scanned at most once, so
    the checks cost nothing for the ends the two searches already answered.

    The scans run together (:func:`_run_scans`).  The search is replayed on
    the answers in hand whenever a scan answers, and each scan it then needs
    starts at once.  Where a final answer is missing, the replay goes on
    with a guess: an end check is taken to pass, and any other eps takes its
    scan's provisional answer, the count of its grid round, once that is in.
    So the first midpoint starts with the two ends, and every later midpoint
    as soon as the grid round it follows from is in, while that scan's
    refinement rounds ride along.  A scan off the replay's path, started on
    a guess that a final answer has overturned, is closed at once.  A row,
    its scans and its errors are those of the search made one scan at a
    time: the replay ends, and raises its error, only when every eps on its
    path has a final answer, so the lo check still fails before the hi check.
    The row's ``scans`` counts the eps on that path; its ``stats`` count
    every block traced, closed scans' lanes included.
    """
    if not (math.isfinite(tol) and tol > 0.0):
        # The bisection below stops on width tol, which such a tol never meets.
        raise ValueError(f"tol must be positive and finite, got {tol}")
    target = n + 1
    answers: dict[float, bool] = {}
    guesses: dict[float, bool] = {}  # the provisional answers, from the grid rounds
    path: list[float] = []  # the eps the last replay asked about, in order

    def reaches(eps: float, guess: bool | None = None) -> bool:
        """Whether the count at eps reaches n + 1; without a final answer yet,
        the search goes on with ``guess`` or the provisional answer, or waits."""
        path.append(eps)
        if eps in answers:
            return answers[eps]
        if guess is None:
            guess = guesses.get(eps)
        if guess is None:
            raise _Waiting
        return guess

    def search(lo, hi) -> tuple[float, float]:
        """The search on the answers in hand: the final bracket."""
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
        if not reaches(lo, True):
            raise BracketError(f"count below {target} at eps_lo = {lo}")
        if reaches(hi, False):
            raise BracketError(f"count already >= {target} at eps_hi = {hi}")

        while hi - lo > tol:
            mid = 0.5 * (lo + hi)
            if mid == lo or mid == hi:
                # lo and hi are adjacent floats: a tol below their spacing would
                # loop forever on cached answers.
                raise ValueError(f"tol = {tol!r} is below the float spacing at eps_{n}: "
                                 f"the bracket [{lo!r}, {hi!r}] cannot be halved")
            if reaches(mid):
                lo = mid
            else:
                hi = mid
        return lo, hi

    work = LaneWork()
    scans: dict = {}
    running = _run_scans(scans, work)
    while True:
        path.clear()
        try:
            bracket = search(lo, hi)
        except _Waiting:
            pass
        except (BracketError, ValueError):
            if answers.keys() >= set(path):
                raise
        else:
            if answers.keys() >= set(path):
                break
        for eps in [e for e in scans if e not in path]:
            scans.pop(eps).close()
        for eps in path:
            if eps not in answers and eps not in scans:
                scans[eps] = _scan(Params(eps), policy, target, work)
        eps, count, res = next(running)
        (guesses if res is None else answers)[eps] = count >= target
    lo, hi = bracket
    eps_n = 0.5 * (lo + hi)
    return BifurcationRow(n=n, epsilon_n=eps_n, product=n * eps_n, bracket_width=hi - lo,
                          scans=len(set(path)), stats=work)


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
) -> list[BifurcationRow]:
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
    return rows
