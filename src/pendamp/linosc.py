"""Time-optimal damping of the linear oscillator x'' + x = u, |u| <= 1.

Constant-control motion rotates the phase point clockwise at unit angular
speed about (u, 0), so the closed loop is computed from exact circular arc
kinematics; no ODE solver is involved.  The switching curve is generated by
backward concatenation of half-turn arcs from the origin (each interior arc
of a bang-bang extremal lasts exactly pi here), which reproduces the union of
unit semicircles centered at the odd integers: y <= 0 pieces for x > 0 and
y >= 0 pieces for x < 0.  The feedback is -1 strictly above the curve and on
its x < 0 branch, +1 strictly below and on its x > 0 branch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class LinState:
    x: float
    y: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError(f"non-finite state ({self.x}, {self.y})")


def curve_height(x: float) -> float:
    """Ordinate of the switching curve at abscissa x (odd in x).

    For x > 0 the curve is y = -sqrt(1 - (x - c)^2) with c the odd center of
    the piece containing x; zero at the origin and at even abscissas.
    """
    ax = abs(x)
    k = int(ax // 2.0)
    c = 2.0 * k + 1.0
    t = ax - c
    h = -math.sqrt(max(0.0, 1.0 - t * t))
    return h if x > 0.0 else -h if x < 0.0 else 0.0


ON_CURVE_TOL = 1e-12


def lin_feedback(s: LinState) -> int:
    """Time-optimal bang-bang feedback: -1 above the switching curve, +1 below.

    Within ON_CURVE_TOL of the curve the control is the post-switch value:
    +1 on the x > 0 branch, -1 on the x < 0 branch.  At x = 0, where the two
    branches meet, the side of the curve decides (-1 for y > 0, +1 for
    y < 0), so the feedback stays odd.  The origin is rejected.
    """
    if s.x == 0.0 and s.y == 0.0:
        raise ValueError("feedback undefined at the origin")
    g = curve_height(s.x)
    if s.y > g + ON_CURVE_TOL:
        return -1
    if s.y < g - ON_CURVE_TOL:
        return 1
    if s.x == 0.0:
        return -1 if s.y > 0.0 else 1
    return 1 if s.x > 0.0 else -1


@dataclass
class LinDampingResult:
    damping_time: float
    switch_points: list[tuple[float, float]]

    @property
    def switch_count(self) -> int:
        return len(self.switch_points)


def _first_curve_hit(u: int, cx: float, r: float, th0: float) -> tuple[float, float, float] | None:
    """First clockwise intersection of the arc about (u,0) with the curve.

    Returns (delta_angle, x, y) or None.  Candidate pieces are unit circles
    about the odd integers within reach; the piece sign filter keeps y <= 0
    for x > 0 pieces and y >= 0 for mirrored ones.
    """
    best = None
    c_max = int(math.ceil(abs(cx) + r + 1.0))
    for c_abs in range(1, c_max + 1, 2):
        for c in (float(c_abs), -float(c_abs)):
            d = c - cx
            if d == 0.0:
                continue
            x_star = (r * r - 1.0 + c * c - cx * cx) / (2.0 * d)
            y2 = r * r - (x_star - cx) ** 2
            if y2 < -1e-15:
                continue
            y_abs = math.sqrt(max(0.0, y2))
            y_star = -y_abs if c > 0.0 else y_abs
            if abs(x_star - c) > 1.0 + 1e-12:
                continue
            th = math.atan2(y_star, x_star - cx)
            delta = (th0 - th) % TWO_PI
            if delta < 1e-10:
                continue
            if best is None or delta < best[0]:
                best = (delta, x_star, y_star)
    return best


def lin_simulate(p0: LinState, max_arcs: int = 10_000) -> LinDampingResult:
    """Closed-loop bang-bang damping by exact arc chaining.

    Each constant-control piece is a clockwise rotation about (u, 0); the
    chain ends by sliding along the terminal semicircle into the origin.
    """
    x, y = float(p0.x), float(p0.y)
    t = 0.0
    switches: list[tuple[float, float]] = []
    if x == 0.0 and y == 0.0:
        return LinDampingResult(0.0, [])
    u = lin_feedback(p0)
    for _ in range(max_arcs):
        cx = float(u)
        r = math.hypot(x - cx, y)
        th0 = math.atan2(y, x - cx)
        if abs(r - 1.0) < 1e-9:
            # Terminal arc: the origin sits at angle pi (u=+1) or 0 (u=-1).
            th_target = math.pi if u > 0 else 0.0
            delta = (th0 - th_target) % TWO_PI
            return LinDampingResult(t + delta, switches)
        hit = _first_curve_hit(u, cx, r, th0)
        if hit is None:
            raise RuntimeError(f"arc chaining failed at state ({x}, {y}), u={u}")
        delta, x_new, y_new = hit
        t += delta
        x, y = x_new, y_new
        switches.append((x, y))
        # Controls strictly alternate at switchings; re-sampling the feedback
        # here would sit on the knife edge of the curve comparison.
        u = -u
    raise RuntimeError(f"arc budget exhausted after {max_arcs} arcs")


def _abs_cos_antiderivative(t: float) -> float:
    """F with F' = |cos|, F(0) = 0: F(t) = 2k + (-1)^k sin t, k = floor(t/pi + 1/2)."""
    k = math.floor(t / math.pi + 0.5)
    return 2.0 * k + (1.0 if k % 2 == 0 else -1.0) * math.sin(t)


def lin_support(xi: tuple[float, float], T: float) -> float:
    """Support function of the horizon-T reachable set from the origin:
    H_T(xi) = integral_0^T |xi_1 sin t + xi_2 cos t| dt, in closed form."""
    if T < 0.0:
        raise ValueError("horizon must be nonnegative")
    xi1, xi2 = xi
    norm = math.hypot(xi1, xi2)
    if norm == 0.0:
        return 0.0
    alpha = math.atan2(xi1, xi2)
    return norm * (_abs_cos_antiderivative(T - alpha) - _abs_cos_antiderivative(-alpha))


def support_deviation(T: float) -> float:
    """phi0(T) = integral_0^T |cos t| dt - 2T/pi, the pi-periodic remainder."""
    return _abs_cos_antiderivative(T) - 2.0 * T / math.pi


def phi0_constant() -> float:
    """Sharp remainder bound of the support-function growth law:
    sqrt(1 - 4/pi^2) - (2/pi) arccos(2/pi), the maximum of support_deviation,
    attained where cos T = 2/pi."""
    return math.sqrt(1.0 - 4.0 / math.pi ** 2) - (2.0 / math.pi) * math.acos(2.0 / math.pi)
