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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .dynamics import (
    ZONE_FACTOR, Params, PhaseState, ZoneTag, energy_xy, pendulum_rhs, reduce_angle, zone_xy,
)
from .integrator import (
    ANY,
    STOP_TERMINAL,
    EventSpec,
    StepControl,
    TrajectorySegment,
    integrate,
)

MODE_DRY = "dry-friction"
MODE_COAST = "coast"
MODE_UPPER = "upper-zone maneuver"
MODE_CAPTURE = "terminal capture"

# Why the mode machine stopped without a capture.
STOP_BUDGET = "time budget"
STOP_ARC_LIMIT = "arc limit"
STOP_STALL = "stalled at rest"


class DampingNonConvergence(Exception):
    """The mode machine stopped without a capture; ``reason`` says why."""

    def __init__(self, message, result=None, reason=STOP_BUDGET):
        super().__init__(message)
        self.result = result
        self.reason = reason


# The per-arc coast budget COAST_BASE + COAST_LOG log(1/eps).  Every arc
# runs under the integrator's error control without interpolated samples.
COAST_BASE = 16.0
COAST_LOG = 4.0
CTL = StepControl(interp_tol=None)


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
    next rest point in the one block at the end of the loop.
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

    rhs_free = pendulum_rhs(0.0)
    ev_rest = EventSpec(lambda t, s: s[1], ANY, True, "rest")
    ev_section = EventSpec(lambda t, s: math.sin(0.5 * (s[0] - math.pi)), ANY, False, "section")
    ev_section_stop = EventSpec(lambda t, s: math.sin(0.5 * (s[0] - math.pi)), ANY, True, "section")
    ev_bottom_stop = EventSpec(lambda t, s: math.sin(0.5 * s[0]), ANY, True, "bottom")
    ev_leave_saddle = EventSpec(lambda t, s: math.sin(s[0]) ** 2 - thr * thr, ANY, True, "off-saddle")
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

    def record(seg: TrajectorySegment, mode: str, control: float, cut: int | None = None):
        nonlocal t, state
        hi = len(seg.times) if cut is None else cut + 1
        if keep_samples:
            start = 1 if all_t else 0
            all_t.extend(seg.times[start:hi])
            all_s.extend(seg.states[start:hi])
        log.append(PhaseLogEntry(mode, control, seg.times[0], seg.times[hi - 1],
                                 (seg.states[0][0], seg.states[0][1]),
                                 (seg.states[hi - 1][0], seg.states[hi - 1][1])))
        t = seg.times[hi - 1]
        state = seg.states[hi - 1]

    def capture_cut(seg: TrajectorySegment) -> int | None:
        """First sample index inside the lower zone with energy below capture."""
        for i, st in enumerate(seg.states):
            x, yv = st[0], st[1]
            if abs(yv) < thr and abs(math.sin(x)) < thr and math.cos(x) > 0.0:
                if energy_xy(x, yv) <= cap_energy:
                    return i
        return None

    captured = False
    stop = STOP_BUDGET
    guard = 0
    max_arcs = int(8.0 * budget / math.pi) + 64
    while t < budget:
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
            seg = integrate(rhs_free, state, t, t + coast_budget, [ev_bottom_stop], CTL)
            record(seg, MODE_UPPER, 0.0)
            if seg.stop_reason != STOP_TERMINAL:
                # Stalled coast: one budgeted push arc accelerating away from
                # the saddle (increasing |sin x|, i.e. downhill).
                push = -1 if math.sin(x) > 0.0 else 1
                seg = integrate(pendulum_rhs(eps * push), state, t, t + coast_budget,
                                [ev_leave_saddle], CTL)
                record(seg, MODE_UPPER, float(push))
                prev_arc_dry = False
                continue
            u = -1 if state[1] > 0.0 else 1
        elif en > 2.0 and abs(yv) > thr:
            # High energy: coast to the section unless already on it, then
            # dry friction through the rotation regime.
            if abs(math.sin(0.5 * (x - math.pi))) > 1e-9:
                seg = integrate(rhs_free, state, t, t + coast_budget, [ev_section_stop], CTL)
                mode = MODE_COAST if seg.stop_reason == STOP_TERMINAL else MODE_UPPER
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

        # The dry-friction arc under u to the next rest point.
        seg = integrate(pendulum_rhs(eps * u), state, t, t + budget, events, CTL)
        for ev in seg.events:
            if ev.label == "section":
                sections.append((ev.t, ev.state[1]))
        cut = capture_cut(seg)
        record(seg, MODE_DRY, u, cut)
        if cut is not None:
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
    )
    if not captured:
        message = {
            STOP_BUDGET: f"no capture within budget {budget:.1f}",
            STOP_ARC_LIMIT: f"no capture after {max_arcs} arcs, at t={t:.1f} of budget {budget:.1f}",
            STOP_STALL: (f"stalled at rest at x={state[0]:.6g}, outside the zones but with"
                         f" |sin x| <= eps, at t={t:.1f} of budget {budget:.1f}"),
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
    initial_state: PhaseState
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
    return ScalingTable(p0, rows, ext_T, ext_N)
