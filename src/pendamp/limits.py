"""Quadratures and limit systems for the small-control asymptotics.

Contents:

* the switching-count constant  D = integral_0^pi sin(x)/(2x) dx,
* scaled damping-time limits tau_minus / tau_plus / tau,
* the logarithmic bound integral for the near-separatrix period,
* exact one-step Poincare maps of the dry-friction flow (high and low zone),
* the averaged control systems  (sin X / 2X) X' = U  and  Y Y' = 2 pi U,
  solved by closed-form separation on constant-control pieces,
* convergence tables for the broken-line iterates of the low-zone map.

Inner pendulum-time integrals are evaluated after the classical substitution
sin(phi/2) = sin(x/2) sin(theta), which removes the inverse-square-root
endpoint singularity exactly; the resulting complete elliptic integral is
evaluated with scipy.special.ellipk.

The half-swing times of the low-zone map integrate ds/|y| between two rest
points, where y^2 = 2 (cos s - cos x - eps (s + x)) has a simple zero at each
end.  Both zeros are factored out exactly: the tilted potential difference is
-(s + x)(x_next - s) times the second divided difference cos[-x, s, x_next],
and the substitution s = c + r sin(theta) cancels the product against ds, so
the quadrature sees a smooth integrand on [-pi/2, pi/2].

scipy is loaded on first use: importing scipy.integrate or scipy.special
costs about half a second, and the package's traces, sweeps, damping runs and
linear baseline need neither.  The module attribute ``quad`` forwards to
scipy.integrate.quad, imported at its first call, and ``ellipk`` and ``sici``
are imported inside the functions that use them, outside the integrands.
Scalar roots come from the package's ``integrator.brentq``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .dynamics import Params
from .integrator import brentq

TWO_PI = 2.0 * math.pi


class QuadratureError(Exception):
    """Requested quadrature tolerance could not be certified."""


class StandstillCapture(Exception):
    """Low-zone Poincare step has no root: the iterate dies in the zone."""


class RegimeExit(Exception):
    """High-zone Poincare step is undefined: energy left the rotation regime."""


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    error_estimate: float
    evaluations: int


def quad(*args, **kwargs):
    """scipy.integrate.quad, imported at the first call."""
    from scipy.integrate import quad as scipy_quad

    return scipy_quad(*args, **kwargs)


def _check_tol(tol: float) -> None:
    """Reject a quadrature tol that is not positive and finite: a NaN or
    infinite tol would pass the certificate of :func:`_quad` whatever the
    error estimate."""
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tol must be positive and finite, got {tol}")


def _quad(f, a, b, tol, points=None, limit=200) -> QuadratureResult:
    _check_tol(tol)
    # Request an order tighter than certified: QUADPACK's estimate for
    # endpoint-singular integrands hovers just above the requested accuracy.
    req = max(tol / 100.0, 1e-13)
    val, err, info = quad(f, a, b, epsabs=req, epsrel=req, limit=limit,
                          points=points, full_output=True)[:3]
    if err > max(tol, 10.0 * abs(val) * 1e-15):
        raise QuadratureError(f"error estimate {err:.3e} above tolerance {tol:.3e}")
    return QuadratureResult(val, err, info["neval"])


def switching_integrand(x: float) -> float:
    """sin(x)/(2x), extended by its limit 1/2 at x = 0."""
    if x == 0.0:
        return 0.5
    return math.sin(x) / (2.0 * x)


def constant_D(tol: float = 1e-10) -> QuadratureResult:
    """The switching-count constant integral_0^pi sin(x)/(2x) dx by adaptive
    quadrature (equals half the sine integral at pi)."""
    if tol < 1e-12:
        raise ValueError("tolerance below 1e-12 is not certifiable here")
    return _quad(switching_integrand, 0.0, math.pi, tol)


def swing_progress(x: float) -> float:
    """G(x) = integral_0^x sin(s)/(2s) ds = Si(x)/2.

    The natural time variable of the low-zone averaged system: under control
    U = -1 the amplitude X(t) satisfies G(X(t)) = G(X(0)) - t.
    """
    if x < 0.0:
        raise ValueError(f"amplitude {x} must be nonnegative")
    from scipy.special import sici

    return 0.5 * float(sici(x)[0])


def _invert_progress(g: float) -> float:
    """Inverse of swing_progress on [0, pi]."""
    if g <= 0.0:
        return 0.0
    g_max = swing_progress(math.pi)
    if g >= g_max:
        return math.pi
    from scipy.special import sici

    # swing_progress(x) - g, with sici imported once per root, not per call
    return brentq(lambda x: 0.5 * float(sici(x)[0]) - g, 0.0, math.pi, xtol=1e-14, rtol=8.9e-16)


def amplitude_from_energy(E: float) -> float:
    """Oscillation amplitude Phi in [0, pi] with 1 - cos(Phi) = E, for E in [0, 2]."""
    if not 0.0 <= E <= 2.0:
        raise ValueError(f"energy {E} outside the oscillation range [0, 2]")
    return math.acos(1.0 - E)


def tau_minus(E: float, tol: float = 1e-9) -> QuadratureResult:
    """Scaled low-zone damping-time limit.

    tau_minus(E) = (1/sqrt 2) integral_0^Phi (sin x / x)
                   [integral_0^x (cos phi - cos x)^(-1/2) dphi] dx
                 = integral_0^Phi (sin x / x) K(sin^2(x/2)) dx,
    with 1 - cos(Phi) = E.  At E = 2 the inner integral diverges
    logarithmically at x = pi while sin(x)/x vanishes linearly, so the
    integrand extends continuously by 0 and the integral stays proper.
    """
    if not 0.0 < E <= 2.0:
        raise ValueError(f"energy {E} outside (0, 2]")
    phi = amplitude_from_energy(E)
    from scipy.special import ellipk

    def f(x):
        if x <= 0.0:
            return 0.5 * math.pi
        if x >= math.pi:
            return 0.0
        return (math.sin(x) / x) * float(ellipk(math.sin(0.5 * x) ** 2))

    return _quad(f, 0.0, phi, tol, limit=400)


def full_turn_time(E: float) -> float:
    """Time of one full rotation at energy E > 2:
    (1/sqrt 2) integral_0^{2pi} (E - 1 - cos phi)^(-1/2) dphi
    = 2 sqrt(2) K(2/E) / sqrt(E)."""
    if E <= 2.0:
        raise ValueError(f"energy {E} not in the rotation regime (> 2)")
    from scipy.special import ellipk

    return _turn_time(E, ellipk)


def _turn_time(E: float, ellipk) -> float:
    return 2.0 * math.sqrt(2.0) * float(ellipk(2.0 / E)) / math.sqrt(E)


def tau_plus(E: float, tol: float = 1e-9) -> QuadratureResult:
    """Scaled high-zone damping-time limit.

    tau_plus(E) = 1/(2 sqrt(2) pi) * integral_2^E de *
                  integral_0^{2pi} (e - 1 - cos phi)^(-1/2) dphi.
    The inner integral equals 4 K(2/e)/sqrt(e), log-divergent as e -> 2+ and
    integrable in the outer variable.
    """
    _check_tol(tol)
    if not math.isfinite(E):
        raise ValueError(f"energy must be finite, got {E}")
    if E < 2.0:
        raise ValueError(f"energy {E} below the separatrix")
    if E == 2.0:
        return QuadratureResult(0.0, 0.0, 0)
    from scipy.special import ellipk

    def f(e):  # full_turn_time(e) / 2 pi on e in (2, E]
        return _turn_time(e, ellipk) / (2.0 * math.pi)

    return _quad(f, 2.0, E, tol, limit=400)


def tau(E: float, tol: float = 1e-9) -> QuadratureResult:
    """Piecewise damping-time limit: tau_minus below the separatrix,
    tau_plus(E) + tau_minus(2) above it; continuous at E = 2."""
    if not (math.isfinite(E) and E > 0.0):
        raise ValueError(f"energy must be positive and finite, got {E}")
    if E <= 2.0:
        return tau_minus(E, tol)
    lo = tau_minus(2.0, tol)
    hi = tau_plus(E, tol)
    return QuadratureResult(lo.value + hi.value, lo.error_estimate + hi.error_estimate,
                            lo.evaluations + hi.evaluations)


def period_integral(h: float, tol: float = 1e-9) -> QuadratureResult:
    """integral_0^{2pi} |cos s + 1 + h|^(-1/2) ds, the near-separatrix period
    bound; grows like O(log 1/|h|) as h -> 0.

    For h < 0 the integrand has two integrable inverse-square-root
    singularities at the genuine zeros of cos s + 1 + h; for h > 0 only the
    near-singular point s = pi needs a panel break.
    """
    if h == 0.0:
        raise ValueError("h = 0 diverges")
    if abs(h) > 1.0:
        raise ValueError(f"|h| = {abs(h)} outside (0, 1]")

    def f(s):
        v = abs(math.cos(s) + 1.0 + h)
        if v == 0.0:
            return 0.0
        return v ** -0.5

    if h > 0.0:
        pts = [math.pi]
    else:
        s0 = math.acos(-1.0 - h)
        pts = [s0, math.pi, TWO_PI - s0]
    return _quad(f, 0.0, TWO_PI, tol, points=pts, limit=400)


def poincare_high(y: float, p: Params) -> float:
    """Exact crossing-speed map of the dry-friction flow on the section
    x = pi (mod 2pi):  y'^2/2 = y^2/2 - 2 pi eps, sign preserved."""
    if y * y <= 4.0 * math.pi * p.epsilon:
        raise RegimeExit(f"speed {y} cannot complete another turn at eps={p.epsilon}")
    return math.copysign(math.sqrt(y * y - 4.0 * math.pi * p.epsilon), y)


def poincare_low(x: float, p: Params) -> float:
    """Exact amplitude map of the dry-friction flow on the section y = 0.

    Solves cos(x') - cos(x) = eps (x + x') for the next rest amplitude
    x' in (0, x).  Raises StandstillCapture when no root exists: the swing
    cannot clear the bottom any more.  Raises ValueError for a rest next to
    the saddle (cos x < 0) with sin x <= eps, where dry friction holds the
    pendulum (the STOP_STALL rule of simulate_damping) and no swing starts.
    Amplitudes decrease along an orbit, so only its start can be such a rest.
    """
    if not 0.0 < x < math.pi:
        raise ValueError(f"amplitude {x} outside (0, pi)")
    eps = p.epsilon
    if math.cos(x) < 0.0 and math.sin(x) <= eps:
        raise ValueError(f"low-zone start {x} sticks at rest at eps={eps}: "
                         f"sin x = {math.sin(x):.3g} <= eps next to the saddle")

    def g(xp):
        return math.cos(xp) - math.cos(x) - eps * (x + xp)

    if g(0.0) <= 0.0:
        raise StandstillCapture(f"amplitude {x} captured at eps={eps}")
    # g is strictly decreasing on (0, x): the bracketed root is unique.
    return brentq(g, 0.0, x, xtol=1e-12, rtol=8.9e-16)


@dataclass(frozen=True)
class PoincareIterates:
    """Orbit of a dry-friction section map with exact per-step times.

    ``values`` holds rest amplitudes x_n (low zone, section y = 0) or section
    speeds y_n (high zone, section x = pi mod 2pi).  ``times`` has one entry
    per map step, computed by quadrature of the tilted-potential motion.
    """

    zone: str
    values: tuple[float, ...]
    times: tuple[float, ...]


def _cos_divided_difference(a: float, b: float) -> float:
    """First divided difference cos[a, b] = (cos b - cos a) / (b - a), written
    as -sin((a + b)/2) sin(d)/d with d = (b - a)/2 so that it does not cancel
    as b -> a; equals -sin(a) at a = b."""
    d = 0.5 * (b - a)
    if d == 0.0:
        return -math.sin(a)
    return -math.sin(0.5 * (a + b)) * math.sin(d) / d


def _low_step_time(x: float, x_next: float, eps: float, tol: float) -> float:
    """Duration of one half-swing from rest at -x to rest at x_next under
    u = -sign(y): the integral of ds/|y| over [-x, x_next] with
    y^2 = 2 F(s), F(s) = cos s - cos x - eps (s + x).

    F vanishes at both rest points and its linear part has no second divided
    difference, so F(s) = -(s + x)(x_next - s) cos[-x, s, x_next].  With
    s = c + r sin(theta), c = (x_next - x)/2, r = (x + x_next)/2, the factor
    (s + x)(x_next - s) is r^2 cos^2(theta) and cancels against
    ds = r cos(theta) dtheta, leaving the smooth integral of
    dtheta / sqrt(-2 cos[-x, s, x_next]) over [-pi/2, pi/2].  Where
    -cos[...] is not positive the swing cannot start, and the integrand raises.
    """
    width = x + x_next
    c = 0.5 * (x_next - x)
    r = 0.5 * width

    def f(theta):
        s = c + r * math.sin(theta)
        dd = (_cos_divided_difference(s, x_next) - _cos_divided_difference(-x, s)) / width
        return 1.0 / math.sqrt(-2.0 * dd)

    return _quad(f, -0.5 * math.pi, 0.5 * math.pi, tol, limit=400).value


def _high_step_time(y: float, eps: float, tol: float) -> float:
    """Duration of one full turn from the section x = pi at speed y > 0 under
    u = -1: integral of ds/|y(s)| with
    y(s)^2 = y^2 + 2 (1 + cos s) + 2 eps (pi - s)."""

    def f(s):
        v = y * y + 2.0 * (1.0 + math.cos(s)) + 2.0 * eps * (math.pi - s)
        return v ** -0.5

    return _quad(f, math.pi, 3.0 * math.pi, tol, limit=400).value


def _orbit(step, start: float, p: Params, stop: type[Exception], max_steps: int):
    """``start`` and its images under the section map ``step(., p)``, one at a time.

    Ends when ``step`` raises ``stop`` (the orbit left the map's regime) or
    after ``max_steps`` images; any other exception propagates.
    """
    v = start
    yield v
    for _ in range(max_steps):
        try:
            v = step(v, p)
        except stop:
            return
        yield v


def poincare_iterates(zone: str, start: float, p: Params,
                      max_steps: int = 100_000, tol: float = 1e-10) -> PoincareIterates:
    """Iterate a dry-friction Poincare map until it leaves its regime.

    Low zone: amplitudes from ``start`` down to standstill capture.
    High zone: positive section speeds down to the last full turn.
    """
    _check_tol(tol)
    eps = p.epsilon
    if zone == "low":
        step, stop = poincare_low, StandstillCapture
    elif zone == "high":
        if start <= 0.0:
            raise ValueError("high-zone iteration needs a positive section speed")
        step, stop = poincare_high, RegimeExit
    else:
        raise ValueError(f"unknown zone {zone!r}")
    values: list[float] = []
    times: list[float] = []
    for v in _orbit(step, float(start), p, stop, max_steps):
        if values:
            times.append(_low_step_time(values[-1], v, eps, tol) if zone == "low"
                         else _high_step_time(values[-1], eps, tol))
        values.append(v)
    return PoincareIterates(zone, tuple(values), tuple(times))


@dataclass(frozen=True)
class PathPiece:
    t_start: float
    t_end: float
    u: float
    v_start: float
    v_end: float


def _advance(zone: str, v: float, u: float, dt: float) -> float:
    """Closed-form state of the averaged system after time ``dt`` under the
    constant control ``u``, from amplitude X = v (low zone) or section speed
    Y = v (high zone): G(X) = G(v) + u dt, or Y^2 = v^2 + 4 pi u dt."""
    if u == 0.0:
        return v
    if zone == "low":
        return _invert_progress(swing_progress(v) + u * dt)
    return math.sqrt(max(v * v + 4.0 * math.pi * u * dt, 0.0))


@dataclass(frozen=True)
class LimitPath:
    """Averaged-system solution on a piecewise-constant control profile.

    Each piece holds its control and the state X (low zone, amplitude) or Y
    (high zone, section speed) at both of its ends; :meth:`value_at`
    evaluates the piece's closed form, so it is not an interpolation.
    """

    zone: str
    pieces: tuple[PathPiece, ...]
    total_time: float

    def value_at(self, t: float) -> float:
        """X(t) or Y(t), held at its end values outside [0, total_time]."""
        for pc in self.pieces:
            if t < pc.t_end:
                return _advance(self.zone, pc.v_start, pc.u, max(t - pc.t_start, 0.0))
        return self.pieces[-1].v_end


def limit_ode_solve(zone: str, init: float, profile) -> LimitPath:
    """Solve the averaged system exactly on constant-control pieces.

    ``profile`` is a nonempty iterable of (control, duration) pairs; a
    duration of None means "run until the state reaches 0" and needs a
    negative control.  The path ends early once the state reaches 0.
    Low zone: (sin X / 2X) dX/dt = U with X in (0, pi].
    High zone: Y dY/dt = 2 pi U with Y > 0.
    """
    if zone not in ("low", "high"):
        raise ValueError(f"unknown zone {zone!r}")
    if zone == "low" and not 0.0 < init <= math.pi:
        raise ValueError(f"low-zone amplitude {init} outside (0, pi]")
    if zone == "high" and init <= 0.0:
        raise ValueError(f"high-zone speed {init} must be positive")

    pieces: list[PathPiece] = []
    t = 0.0
    v = float(init)
    for u, dur in profile:
        u = float(u)
        if abs(u) > 1.0:
            raise ValueError(f"control magnitude {abs(u)} exceeds 1")
        if dur is None:
            if u >= 0.0:
                raise ValueError("an open-ended piece needs a negative control")
            dur = (swing_progress(v) / -u) if zone == "low" else (v * v / (4.0 * math.pi * -u))
        if dur < 0.0:
            raise ValueError("piece duration must be nonnegative")
        if zone == "low":
            g_end = swing_progress(v) + u * dur
            if g_end < -1e-12 or g_end > swing_progress(math.pi) + 1e-12:
                raise ValueError("control drives the amplitude out of (0, pi]")
        else:
            if v * v + 4.0 * math.pi * u * dur < -1e-12:
                raise ValueError("control drives the speed below 0")
        v_end = _advance(zone, v, u, dur)
        pieces.append(PathPiece(t, t + dur, u, v, v_end))
        t += dur
        v = v_end
        if v <= 0.0:
            break
    if not pieces:
        raise ValueError("empty control profile")
    return LimitPath(zone, tuple(pieces), t)


# The broken-line orbits of euler_convergence stop here; one that reaches the
# cap before capture is an error rather than a row over part of the orbit.
EULER_MAX_ITERATES = 1_000_000


@dataclass(frozen=True)
class EulerErrorRow:
    epsilon: float
    n_iterates: int
    sup_error: float
    ratio_vs_previous: float | None


def euler_convergence(x0: float, eps_list) -> list[EulerErrorRow]:
    """Sup-norm error of the broken-line iterates against the averaged flow.

    For each eps the map orbit X_n (one iterate per time eps) is compared with
    the closed-form solution X(t) of (sin X / 2X) X' = -1 at t = n eps over
    the common lifetime of both; rows carry the error ratio against the
    previous eps in the list.  An orbit that reaches ``EULER_MAX_ITERATES``
    iterates before capture raises RuntimeError.
    """
    if not 0.0 < x0 < math.pi:
        raise ValueError(f"amplitude {x0} outside (0, pi)")
    rows: list[EulerErrorRow] = []
    g0 = swing_progress(x0)
    prev = None
    for eps in eps_list:
        xs = list(_orbit(poincare_low, x0, Params(eps), StandstillCapture, EULER_MAX_ITERATES))
        if len(xs) > EULER_MAX_ITERATES:
            raise RuntimeError(f"the broken-line orbit from {x0!r} at eps={eps!r} reached "
                               f"the cap of {EULER_MAX_ITERATES} iterates before capture")
        sup = 0.0
        for n_it, xn in enumerate(xs):
            t = n_it * eps
            if t > g0:
                break
            sup = max(sup, abs(xn - _invert_progress(g0 - t)))
        ratio = None if prev in (None, 0.0) else sup / prev
        rows.append(EulerErrorRow(eps, len(xs), sup, ratio))
        prev = sup
    return rows
