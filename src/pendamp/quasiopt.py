"""Dry-friction quasioptimal feedback and closed-loop damping simulation.

The control u = -sign(y) outside the standstill zone realizes steepest local
energy descent (dE/dt = -eps |y|).  The closed loop is simulated as a mode
machine built from smooth constant-control arcs:

* high energy: coast to the section x = pi (mod 2pi), then dry friction
  through the rotation regime (energy drops 2 pi eps per turn, exactly);
* upper standstill zone: coast until x crosses 0 (mod 2pi), then dry
  friction to the next rest point; a stalled coast is resolved by one
  budgeted push arc away from the saddle;
* low energy: dry friction split into constant-control arcs between rest
  points (the switching count lives here);
* lower standstill zone: terminal capture once the energy is of order eps^2
  (a local stabilizer would finish in bounded time, which vanishes after
  eps-scaling; the capture adds zero time).

Every arc runs on ``integrator.pendulum_arc`` (Taylor steps); the DP5
``integrator.integrate`` is the tests' reference for the same mode machine.
The capture is a terminal event of the dry-friction arcs.  The point where
an arc first enters the capture set follows from the arc's first integral
(:func:`_capture_entry`), and the event is the crossing of that point,
located like the rest points.  So the damping time T is the located time
of the first entry into the capture set, however briefly the orbit stays
inside, not the first step end found inside it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .dynamics import ZONE_FACTOR, Params, PhaseState, ZoneTag, energy_xy, reduce_angle, zone_xy
from .integrator import (
    ANY,
    STOP_STEP_FAILURE,
    STOP_TERMINAL,
    STOP_TIME_LIMIT,
    EventSpec,
    Level,
    TrajectorySegment,
    brentq,
    integrate,  # noqa: F401  unused; perfbench/tracing.py wraps quasiopt.integrate
    pendulum_arc,
)

MODE_DRY = "dry-friction"
MODE_COAST = "coast"
MODE_UPPER = "upper-zone maneuver"
MODE_CAPTURE = "terminal capture"

# Why the mode machine stopped without a capture; an arc whose Taylor step
# failed stops it with the integrator's STOP_STEP_FAILURE.
STOP_BUDGET = "time budget"
STOP_ARC_LIMIT = "arc limit"
STOP_STALL = "stalled at rest"


class DampingNonConvergence(Exception):
    """The mode machine stopped without a capture; ``reason`` says why."""

    def __init__(self, message, result=None, reason=STOP_BUDGET):
        super().__init__(message)
        self.result = result
        self.reason = reason


# The per-arc coast budget COAST_BASE + COAST_LOG log(1/eps).
COAST_BASE = 16.0
COAST_LOG = 4.0


@dataclass(frozen=True)
class CapturePolicy:
    """Capture threshold and time budget of the damping simulation.

    The run is captured at energy <= k_cap * eps^2 inside the lower
    standstill zone, and gives up after budget_factor / eps time units.
    :func:`simulate_damping` rejects a budget_factor that is not positive
    and finite, and a k_cap that is not finite or is below
    1/(1 + sqrt(1 - eps^2)): a rest at sin x = eps has energy
    eps^2/(1 + sqrt(1 - eps^2)), and a smaller k_cap cannot capture it.
    """

    k_cap: float = 4.0
    budget_factor: float = 64.0


@dataclass(frozen=True)
class PhaseLogEntry:
    mode: str
    control: float
    t_start: float
    t_end: float
    start: tuple[float, float]
    end: tuple[float, float]


@dataclass(frozen=True)
class DampingStats:
    """The work of one damping run: its arcs, their Taylor steps, the events
    located on them, and the worst event residual |g| at those events."""

    arcs: int
    steps: int
    events: int
    event_residual_max: float


@dataclass
class DampingResult:
    """Closed-loop outcome of the dry-friction strategy."""

    epsilon: float
    initial_state: PhaseState
    damping_time: float
    switch_count: int
    terminal_state: PhaseState
    phase_log: list[PhaseLogEntry]
    trajectory: TrajectorySegment | None
    section_speeds: list[tuple[float, float]]   # (t, y) at x = pi (mod 2pi) crossings
    rest_amplitudes: list[tuple[float, float]]  # (t, |x| reduced) at dry-arc rest points
    stats: DampingStats

    def control_at(self, t: float) -> float:
        """Control applied at time t, from the phase log (0 on coast arcs)."""
        for entry in self.phase_log:
            if entry.t_start <= t <= entry.t_end:
                return entry.control
        return 0.0

    @property
    def lower_time_bound(self) -> float:
        """Universal damping-time bound sqrt(2 E(p0)) / eps."""
        e0 = energy_xy(self.initial_state.x, self.initial_state.y)
        return math.sqrt(2.0 * e0) / self.epsilon


def _capture_entry(x: float, y: float, pull: float, thr: float, cap_energy: float) -> float | None:
    """The x at which a dry arc from (x, y) under ``pull`` enters the capture set.

    The capture set is |y| <= thr, |sin x| <= thr, cos x >= 0 and energy
    <= cap_energy.  Its corners are grazed at the capture energy, so the set
    is often entered for a few thousandths of a time unit only, and a sign
    test at step ends misses it.  Instead the entry is found from the orbit:
    along the arc the speed keeps the sign d = -sign(pull) up to the rest that
    ends it, so w = d x grows, the energy E = E0 - eps (w - w0) falls, and
    h = y^2/2 - cos w + eps w is conserved (eps = |pull|).  Each condition is
    then one on w: the bands |w - 2 pi k| <= asin(thr), the ray w >= w_e where
    E = cap_energy, and |y| <= thr, that is
    phi(w) = cos w - eps w - thr^2/2 + h <= 0, where phi is concave on each
    band with its top at 2 pi k - asin(eps).  The first such w at or after w0
    is the entry.  Where y^2 = 2 phi + thr^2 < 0, it lies past the rest that
    ends the arc: then there is no entry, and None is returned.
    """
    eps = abs(pull)
    d = -1.0 if pull > 0.0 else 1.0
    w0 = d * x
    h = 0.5 * y * y - math.cos(w0) + eps * w0
    w_e = w0 + (energy_xy(x, y) - cap_energy) / eps
    half_band = math.asin(thr)
    top = -math.asin(eps)

    def phi(w: float) -> float:
        return math.cos(w) - eps * w - 0.5 * thr * thr + h

    lo = max(w0, w_e)
    center = 2.0 * math.pi * math.ceil((lo - half_band) / (2.0 * math.pi))
    while True:
        start = max(lo, center - half_band)
        if phi(start) <= 0.0:
            return d * start if 2.0 * phi(start) + thr * thr >= 0.0 else None
        if phi(center + half_band) <= 0.0:
            return d * brentq(phi, max(start, center + top), center + half_band,
                              xtol=1e-14, rtol=8.9e-16)
        center += 2.0 * math.pi


def _rest_control(x: float, eps: float) -> int:
    """Control for the arc leaving a rest point (x, 0): oppose the upcoming
    velocity, whose sign is that of the free acceleration -sin(x)."""
    return 1 if math.sin(x) > 0.0 else -1


def simulate_damping(
    p0: PhaseState,
    p: Params,
    policy: CapturePolicy | None = None,
    keep_samples: bool = True,
) -> DampingResult:
    """Run the dry-friction mode machine from ``p0`` until capture.

    Each pass of the loop picks the next arc from the current state.  Coasts
    and the push away from the saddle are written out in their modes; every
    dry-friction arc, whatever mode leads to it, runs under u = +-1 to the
    next rest point, or to the capture, in the one block at the end of the
    loop.  ``stats`` counts the arcs, their Taylor steps, the events located
    on them and the worst residual |g| at those events.
    """
    if policy is None:
        policy = CapturePolicy()
    eps = p.epsilon
    if eps >= 0.5:
        raise ValueError(f"quasioptimal regime needs eps < 0.5, got {eps}: the standstill "
                         f"zones |sin x|, |y| < {ZONE_FACTOR} eps are not disjoint")
    if not (math.isfinite(policy.budget_factor) and policy.budget_factor > 0.0):
        raise ValueError(f"budget_factor must be positive and finite, got {policy.budget_factor}")
    k_min = 1.0 / (1.0 + math.sqrt(1.0 - eps * eps))
    if not (math.isfinite(policy.k_cap) and policy.k_cap >= k_min):
        raise ValueError(f"k_cap must be finite and >= 1/(1 + sqrt(1 - eps^2)) = {k_min:.6g}"
                         f" at eps={eps}, got {policy.k_cap}")
    thr = ZONE_FACTOR * eps
    cap_energy = policy.k_cap * eps * eps
    budget = policy.budget_factor / eps
    coast_budget = COAST_BASE + COAST_LOG * math.log(1.0 / eps)

    # Every event is a level of x or y.  The push leaves the saddle where
    # sin^2 x = thr^2, that is x = +-asin(thr) (mod pi).
    section = Level(0, (math.pi,), 2.0 * math.pi)
    ev_rest = EventSpec.at_level(Level(1, (0.0,)), ANY, True, "rest")
    ev_section = EventSpec.at_level(section, ANY, False, "section")
    ev_section_stop = EventSpec.at_level(section, ANY, True, "section")
    ev_bottom_stop = EventSpec.at_level(Level(0, (0.0,), 2.0 * math.pi), ANY, True, "bottom")
    off_saddle = math.asin(thr)
    ev_leave_saddle = EventSpec.at_level(Level(0, (off_saddle, -off_saddle), math.pi), ANY, True,
                                         "off-saddle")
    to_rest = [ev_rest]
    to_rest_via_sections = [ev_rest, ev_section]

    t = 0.0
    state = (float(p0.x), float(p0.y))
    log: list[PhaseLogEntry] = []
    all_t: list[float] = []
    all_s: list[tuple[float, ...]] = []
    sections: list[tuple[float, float]] = []
    rests: list[tuple[float, float]] = []
    switch_count = 0
    prev_arc_dry = False
    work = [0, 0, 0, 0.0]  # arcs, steps, events, worst event residual

    def record(seg: TrajectorySegment, mode: str, control: float):
        nonlocal t, state, stop, failure
        if keep_samples:
            start = 1 if all_t else 0
            all_t.extend(seg.times[start:])
            all_s.extend(seg.states[start:])
        log.append(PhaseLogEntry(mode, control, seg.times[0], seg.times[-1],
                                 (seg.states[0][0], seg.states[0][1]),
                                 (seg.states[-1][0], seg.states[-1][1])))
        t = seg.times[-1]
        state = seg.states[-1]
        work[0] += 1
        work[1] += len(seg.times) - 1
        work[2] += len(seg.events)
        work[3] = max(work[3], seg.event_residual)
        if seg.stop_reason == STOP_STEP_FAILURE:
            stop, failure = STOP_STEP_FAILURE, seg.detail

    captured = False
    stop = STOP_BUDGET
    failure = ""  # the integrator's detail of a failed arc
    guard = 0
    max_arcs = int(8.0 * budget / math.pi) + 64
    while t < budget and not failure:
        guard += 1
        if guard > max_arcs:
            stop = STOP_ARC_LIMIT
            break
        x, yv = state
        en = energy_xy(x, yv)
        tag = zone_xy(x, yv, thr)

        if tag is ZoneTag.LOWER and en <= cap_energy:
            captured = True
            break

        events = to_rest
        if tag is ZoneTag.UPPER and abs(yv) < 1e-9:
            # Rest near the saddle: wait for the fall through the bottom,
            # then dry friction from the bottom crossing down to the next rest.
            seg = pendulum_arc(0.0, state, t, t + coast_budget, [ev_bottom_stop])
            record(seg, MODE_UPPER, 0.0)
            if seg.stop_reason != STOP_TERMINAL:
                if not failure:
                    # Stalled coast: one budgeted push arc accelerating away
                    # from the saddle (increasing |sin x|, i.e. downhill).
                    push = -1 if math.sin(x) > 0.0 else 1
                    seg = pendulum_arc(eps * push, state, t, t + coast_budget, [ev_leave_saddle])
                    record(seg, MODE_UPPER, float(push))
                prev_arc_dry = False
                continue
            u = -1 if state[1] > 0.0 else 1
        elif en > 2.0 and abs(yv) > thr:
            # High energy: coast to the section unless already on it, then
            # dry friction through the rotation regime.
            if abs(math.sin(0.5 * (x - math.pi))) > 1e-9:
                seg = pendulum_arc(0.0, state, t, t + coast_budget, [ev_section_stop])
                # A coast that runs out of its budget creeps toward the saddle.
                mode = MODE_UPPER if seg.stop_reason == STOP_TIME_LIMIT else MODE_COAST
                record(seg, mode, 0.0)
                prev_arc_dry = False
                if seg.stop_reason != STOP_TERMINAL:
                    continue  # stalled rotation: re-enter mode selection
            u = -1 if state[1] > 0.0 else 1
            events = to_rest_via_sections
        elif abs(yv) < 1e-9:
            # Low energy, at rest outside the zones.
            if abs(math.sin(x)) <= eps:
                # Dry friction cannot overcome gravity here.  Outside the
                # zones this needs eps < 5e-10, where the rest test
                # |y| < 1e-9 is wider than the zone.
                stop = STOP_STALL
                break
            if prev_arc_dry:
                switch_count += 1
            rests.append((t, abs(reduce_angle(x))))
            u = _rest_control(x, eps)
        else:
            u = -1 if yv > 0.0 else 1

        # The dry-friction arc under u to the next rest point, or to the
        # capture if the arc enters the capture set first.  x moves against u.
        x_cap = _capture_entry(state[0], state[1], eps * u, thr, cap_energy)
        if x_cap is not None:
            events = events + [EventSpec.at_level(Level(0, (x_cap,)), ANY, True, "capture")]
        seg = pendulum_arc(eps * u, state, t, t + budget, events)
        for ev in seg.events:
            if ev.label == "section":
                sections.append((ev.t, ev.state[1]))
        record(seg, MODE_DRY, u)
        if seg.events and seg.events[-1].label == "capture":
            captured = True
            break
        prev_arc_dry = True

    terminal = PhaseState(state[0], state[1])
    trajectory = None
    if keep_samples:
        trajectory = TrajectorySegment(all_t, all_s, [], MODE_CAPTURE if captured else stop)
    if captured:
        log.append(PhaseLogEntry(MODE_CAPTURE, 0.0, t, t,
                                 (state[0], state[1]), (state[0], state[1])))
    result = DampingResult(
        epsilon=eps,
        initial_state=p0,
        damping_time=t,
        switch_count=switch_count,
        terminal_state=terminal,
        phase_log=log,
        trajectory=trajectory,
        section_speeds=sections,
        rest_amplitudes=rests,
        stats=DampingStats(*work),
    )
    if not captured:
        message = {
            STOP_BUDGET: f"no capture within budget {budget:.1f}",
            STOP_ARC_LIMIT: f"no capture after {max_arcs} arcs, at t={t:.1f} of budget {budget:.1f}",
            STOP_STALL: (f"stalled at rest at x={state[0]:.6g}, outside the zones but with"
                         f" |sin x| <= eps, at t={t:.1f} of budget {budget:.1f}"),
            STOP_STEP_FAILURE: f"step failure: {failure}",
        }[stop]
        raise DampingNonConvergence(f"{message} at eps={eps}", result, stop)
    return result


@dataclass(frozen=True)
class ScalingRow:
    epsilon: float
    damping_time: float
    switch_count: int
    eps_T: float
    eps_N: float


@dataclass
class ScalingTable:
    rows: list[ScalingRow]
    extrapolated_eps_T: float
    extrapolated_eps_N: float


def _linear_intercept(xs, ys) -> float:
    """Least-squares intercept of y against x (Richardson-style limit at x=0)."""
    n = len(xs)
    if n == 1:
        return ys[0]
    mx = sum(xs) / n
    my = sum(ys) / n
    sxx = sum((x - mx) ** 2 for x in xs)
    sxy = sum((x - mx) * (y - my) for x, y in zip(xs, ys))
    slope = sxy / sxx
    return my - slope * mx


def sweep_scaling(p0: PhaseState, eps_list, policy: CapturePolicy | None = None) -> ScalingTable:
    """Damping time and switching count across a decreasing list of eps.

    Rows carry (eps, T, N, eps*T, eps*N); the scaled columns are extrapolated
    to eps = 0 by a least-squares linear fit in eps.
    """
    eps_list = list(eps_list)
    if any(b >= a for a, b in zip(eps_list, eps_list[1:])):
        raise ValueError("eps_list must be strictly decreasing")
    rows = []
    for eps in eps_list:
        res = simulate_damping(p0, Params(eps), policy, keep_samples=False)
        rows.append(ScalingRow(eps, res.damping_time, res.switch_count,
                               eps * res.damping_time, eps * res.switch_count))
    ext_T = _linear_intercept([r.epsilon for r in rows], [r.eps_T for r in rows])
    ext_N = _linear_intercept([r.epsilon for r in rows], [r.eps_N for r in rows])
    return ScalingTable(rows, ext_T, ext_N)
