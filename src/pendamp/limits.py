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
endpoint singularity exactly; the resulting complete elliptic integral K is
evaluated by the arithmetic-geometric mean.

The half-swing times of the low-zone map integrate ds/|y| between two rest
points, where y^2 = 2 (cos s - cos x - eps (s + x)) has a simple zero at each
end.  Both zeros are factored out exactly: the tilted potential difference is
-(s + x)(x_next - s) times the second divided difference cos[-x, s, x_next],
and the substitution s = c + r sin(theta) cancels the product against ds,
leaving an analytic, 2 pi-periodic integrand in theta.  The trapezoid rule
converges geometrically on it, and its nodes, read in s, are the
Chebyshev-Lobatto points of the square-root weight of the two rest points;
the levels are nested, so each doubling evaluates only the new nodes.

The quadratures, K and Si are the package's own, so no path of the module
imports scipy.  Every quadrature but the half-swing times above runs through
:func:`quad`, an adaptive 21-point Gauss-Kronrod quadrature
with QUADPACK's rule and error estimate (dqk21; Piessens et al., QUADPACK,
Springer 1983) that bisects the panel with the largest estimate.  It has no
extrapolation, so no integrand it is given keeps an endpoint singularity:
besides the half-swing times above, tau_minus runs in t with
x = Phi (1 - t^3) and tau_plus in t with e = 2 + (E - 2) t^6, which turn
their log ends into t^5 log t, and period_integral(h < 0) runs in u with
s = s0 -+ u^2 at the zeros s0 of its inverse square root.  K(m) is
pi / (2 AGM(1, sqrt(1 - m))) (Abramowitz & Stegun 17.6) and Si is its power
series on [0, pi].  Scalar roots come from the package's
``integrator.brentq``.
"""

from __future__ import annotations

import heapq
import math
import sys
from dataclasses import dataclass

from .dynamics import Params
from .integrator import brentq

TWO_PI = 2.0 * math.pi

# The panel limit of every quadrature of the module: quad bisects until the
# estimate meets the tolerance or this many panels exist.
QUAD_LIMIT = 400
# QUADPACK's roundoff floor: no panel's error estimate falls below ROUNDOFF
# times its integral of |f|.
ROUNDOFF = 50.0 * sys.float_info.epsilon
# poincare_iterates takes at most this many map steps, and times each one by
# a quadrature to this tolerance.
POINCARE_MAX_STEPS = 100_000
POINCARE_TOL = 1e-10


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


# QUADPACK's dqk21: the Kronrod nodes on [-1, 1] from the outermost in (the
# 2nd, 4th, ..., 10th are the 10-point Gauss nodes; the centre is 0), the
# Kronrod weights of those nodes and then of the centre, and the Gauss weights.
_GK21_NODES = (
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
)
_GK21_KRONROD = (
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077208643740060, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
)
_GK21_GAUSS = (
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
)


def _gk21_source() -> str:
    """Source of ``gk21(f, a, b)``: QUADPACK's dqk21 on [a, b], written out.

    Returns the Kronrod value, dqk21's error estimate and the Kronrod
    integral of |f|: the estimate is |Kronrod - Gauss| scaled by
    (200 |K - G| / resasc)^1.5 against the mean deviation resasc, and never
    below ``ROUNDOFF`` times the integral of |f|.  The 21 values and the
    sums are straight-line code, with the nodes and weights as literals.
    """
    n = len(_GK21_NODES)
    lines = ["c = 0.5 * (a + b)", "h = 0.5 * (b - a)", "f0 = f(c)"]
    for j, x in enumerate(_GK21_NODES, 1):
        lines += [f"d = h * {x!r}", f"l{j} = f(c - d)", f"r{j} = f(c + d)"]
    w0 = _GK21_KRONROD[n]

    def weighted(term0, term) -> str:
        return " + ".join([f"{w0!r} * {term0}"]
                          + [f"{w!r} * ({term(j)})" for j, w in enumerate(_GK21_KRONROD[:n], 1)])

    lines += [
        "k = " + weighted("f0", lambda j: f"l{j} + r{j}"),
        "g = " + " + ".join(f"{w!r} * (l{2 * i} + r{2 * i})" for i, w in enumerate(_GK21_GAUSS, 1)),
        "m = 0.5 * k",
        "ah = abs(h)",
        "asc = (" + weighted("abs(f0 - m)", lambda j: f"abs(l{j} - m) + abs(r{j} - m)") + ") * ah",
        "sab = (" + weighted("abs(f0)", lambda j: f"abs(l{j}) + abs(r{j})") + ") * ah",
        "err = abs((k - g) * h)",
        "if asc != 0.0 and err != 0.0:",
        "    err = asc * min(1.0, (200.0 * err / asc) ** 1.5)",
        f"if sab > {sys.float_info.min / ROUNDOFF!r}:",
        f"    err = max({ROUNDOFF!r} * sab, err)",
        "return k * h, err, sab",
    ]
    return "def gk21(f, a, b):\n" + "".join(f"    {ln}\n" for ln in lines)


_gk21_namespace: dict = {}
exec(compile(_gk21_source(), "<gk21>", "exec"), _gk21_namespace)
_gk21 = _gk21_namespace["gk21"]


def quad(f, a, b, epsabs=1.49e-8, epsrel=1.49e-8, limit=50, points=None, full_output=False):
    """Adaptive 21-point Gauss-Kronrod quadrature of f over [a, b].

    scipy.integrate.quad's call and return shape: the panels are [a, b], or
    the pieces between the sorted ``points``, each summed by :func:`_gk21`;
    while the summed error estimate exceeds max(epsabs, epsrel |value|) and
    fewer than ``limit`` panels exist, the panel with the largest estimate is
    bisected.  Returns (value, error estimate), and with ``full_output`` also
    {"neval": integrand evaluations, "abs_integral": the panels' integral of
    |f|}, which sets the estimate's roundoff floor (``ROUNDOFF`` times it;
    scipy's quad has no such key).  A value of f that is not finite makes
    the estimate NaN (or inf, which turns NaN at the next bisection), and a
    NaN estimate ends the quadrature: no comparison with it holds.
    """
    ends = [a, *sorted(points), b] if points else [a, b]
    panels = []   # heap of (-error, lo, hi, value, integral of |f|): the worst panel first
    area = errsum = 0.0
    for lo, hi in zip(ends, ends[1:]):
        v, e, ab = _gk21(f, lo, hi)
        area += v
        errsum += e
        panels.append((-e, lo, hi, v, ab))
    heapq.heapify(panels)
    neval = 21 * len(panels)
    while errsum > max(epsabs, epsrel * abs(area)) and len(panels) < limit:
        neg_e, lo, hi, v, _ = heapq.heappop(panels)
        mid = 0.5 * (lo + hi)
        v1, e1, ab1 = _gk21(f, lo, mid)
        v2, e2, ab2 = _gk21(f, mid, hi)
        neval += 42
        # QUADPACK's running sums, updated rather than summed again
        area += v1 + v2 - v
        errsum += e1 + e2 + neg_e
        heapq.heappush(panels, (-e1, lo, mid, v1, ab1))
        heapq.heappush(panels, (-e2, mid, hi, v2, ab2))
    value = sum(p[3] for p in panels)  # QUADPACK's result: the panels summed afresh
    if not full_output:
        return value, errsum
    return value, errsum, {"neval": neval, "abs_integral": sum(p[4] for p in panels)}


def _check_tol(tol: float) -> None:
    """Reject a quadrature tol that is not positive and finite: a NaN or
    infinite tol would pass the certificate of :func:`_quad` whatever the
    error estimate."""
    if not (math.isfinite(tol) and tol > 0.0):
        raise ValueError(f"tol must be positive and finite, got {tol}")


def _quad(f, a, b, tol, points=None) -> QuadratureResult:
    """The integral of f over [a, b], certified to tol or to the rule's roundoff floor.

    No estimate of :func:`quad` falls below its floor, ``ROUNDOFF`` times the
    integral of |f|; an estimate within twice the floor is certified at the
    floor, and no quadrature asks for less.  A tol below eps times the
    integral of |f|, finer than the rounding of the sum itself, is met by no
    floor.
    """
    _check_tol(tol)
    # Request an order tighter than certified, so that an estimate that
    # creeps down by bisection is certified on the step that crosses tol/100.
    req = max(tol / 100.0, 1e-13)
    val, err, info = quad(f, a, b, epsabs=req, epsrel=req, limit=QUAD_LIMIT,
                          points=points, full_output=True)[:3]
    neval = info["neval"]
    resolved = tol >= sys.float_info.epsilon * info["abs_integral"]
    bound = max(tol, 2.0 * ROUNDOFF * info["abs_integral"]) if resolved else tol
    if resolved and bound < err <= req * abs(val):
        # Above |val| = 100 the relative request can stop above tol: ask for the bound itself.
        val, err, info = quad(f, a, b, epsabs=bound, epsrel=0.0, limit=QUAD_LIMIT,
                              points=points, full_output=True)[:3]
        neval += info["neval"]
    if not (math.isfinite(val) and math.isfinite(err)):
        raise QuadratureError(f"estimate {val} with error estimate {err} is not finite")
    if err > bound:
        why = "" if resolved else (f"the rounding of the sum, eps times the integral of |f|, is "
                                   f"{sys.float_info.epsilon * info['abs_integral']:.3e}: ")
        raise QuadratureError(f"{why}error estimate {err:.3e} above tolerance {tol:.3e}")
    return QuadratureResult(val, err, neval)


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


# Si(x) = sum_n c_n x^(2n+1) with c_n = (-1)^n / ((2n+1) (2n+1)!).  On
# [0, pi] the 15 terms n <= 14 leave a remainder below 1e-18.
_SI_COEFFS = tuple((-1) ** n / ((2 * n + 1) * math.factorial(2 * n + 1)) for n in range(15))


def _si(x: float) -> float:
    """The sine integral Si(x) on [0, pi] by its power series, Horner in x^2."""
    t = x * x
    s = 0.0
    for c in reversed(_SI_COEFFS):
        s = s * t + c
    return s * x


def swing_progress(x: float) -> float:
    """G(x) = integral_0^x sin(s)/(2s) ds = Si(x)/2, for x in [0, pi].

    The natural time variable of the low-zone averaged system: under control
    U = -1 the amplitude X(t) satisfies G(X(t)) = G(X(0)) - t.
    """
    if not math.isfinite(x):
        raise ValueError(f"amplitude must be finite, got {x}")
    if x < 0.0:
        raise ValueError(f"amplitude {x} must be nonnegative")
    if x > math.pi:
        raise ValueError(f"amplitude {x} above pi")
    return 0.5 * _si(x)


def _invert_progress(g: float) -> float:
    """Inverse of swing_progress on [0, pi]."""
    if g <= 0.0:
        return 0.0
    g_max = swing_progress(math.pi)
    if g >= g_max:
        return math.pi
    return brentq(lambda x: 0.5 * _si(x) - g, 0.0, math.pi, xtol=1e-14, rtol=8.9e-16)


def amplitude_from_energy(E: float) -> float:
    """Oscillation amplitude Phi in [0, pi] with 1 - cos(Phi) = E, for E in [0, 2]."""
    if not 0.0 <= E <= 2.0:
        raise ValueError(f"energy {E} outside the oscillation range [0, 2]")
    return math.acos(1.0 - E)


def _agm_k(kc: float) -> float:
    """K(m) from the complementary modulus kc = sqrt(1 - m) > 0:
    pi / (2 AGM(1, kc)), by the arithmetic-geometric mean (A&S 17.6)."""
    a, b = 1.0, kc
    while abs(a - b) > 1e-15 * a:
        a, b = 0.5 * (a + b), math.sqrt(a * b)
    return math.pi / (a + b)


def ellipk(m: float) -> float:
    """Complete elliptic integral of the first kind K(m) for m <= 1 (inf at 1)."""
    if not m <= 1.0:
        raise ValueError(f"modulus m must be at most 1, got {m}")
    if m == 1.0:
        return math.inf
    return _agm_k(math.sqrt(1.0 - m))


def tau_minus(E: float, tol: float = 1e-9) -> QuadratureResult:
    """Scaled low-zone damping-time limit.

    tau_minus(E) = (1/sqrt 2) integral_0^Phi (sin x / x)
                   [integral_0^x (cos phi - cos x)^(-1/2) dphi] dx
                 = integral_0^Phi (sin x / x) K(sin^2(x/2)) dx,
    with 1 - cos(Phi) = E.  At E = 2 the inner integral diverges
    logarithmically at x = pi while sin(x)/x vanishes linearly, so the
    integrand extends continuously by 0 and the integral stays proper.
    The quadrature runs in t on [0, 1] with x = Phi (1 - t^3): the
    (pi - x) log(pi - x) end at E = 2 becomes t^5 log t, and K takes its
    complementary modulus cos(x/2) = sin((pi - x)/2), which keeps its
    precision as x -> pi.  Below E = 5.6e-17, 1 - E rounds to 1 and Phi to
    0, and the integral is the empty one, 0.
    """
    if not 0.0 < E <= 2.0:
        raise ValueError(f"energy {E} outside (0, 2]")
    phi = amplitude_from_energy(E)
    if phi == 0.0:
        return QuadratureResult(0.0, 0.0, 0)
    psi = math.acos(E - 1.0)  # pi - Phi

    def f(t):
        t2 = t * t
        t3 = t2 * t
        x = phi * (1.0 - t3)
        return 3.0 * phi * t2 * (math.sin(x) / x) * _agm_k(math.sin(0.5 * (psi + phi * t3)))

    return _quad(f, 0.0, 1.0, tol)


def full_turn_time(E: float) -> float:
    """Time of one full rotation at energy E > 2:
    (1/sqrt 2) integral_0^{2pi} (E - 1 - cos phi)^(-1/2) dphi
    = 2 sqrt(2) K(2/E) / sqrt(E)."""
    if not math.isfinite(E):
        raise ValueError(f"energy must be finite, got {E}")
    if E <= 2.0:
        raise ValueError(f"energy {E} not in the rotation regime (> 2)")
    return 2.0 * math.sqrt(2.0) * ellipk(2.0 / E) / math.sqrt(E)


def tau_plus(E: float, tol: float = 1e-9) -> QuadratureResult:
    """Scaled high-zone damping-time limit.

    tau_plus(E) = 1/(2 sqrt(2) pi) * integral_2^E de *
                  integral_0^{2pi} (e - 1 - cos phi)^(-1/2) dphi.
    The inner integral equals 4 K(2/e)/sqrt(e), log-divergent as e -> 2+ and
    integrable in the outer variable.  The quadrature runs in t on [0, 1]
    with e = 2 + (E - 2) t^6, which turns the log end into t^5 log t; K
    takes its complementary modulus sqrt(1 - 2/e) = t^3 sqrt((E - 2)/e).
    """
    _check_tol(tol)
    if not math.isfinite(E):
        raise ValueError(f"energy must be finite, got {E}")
    if E < 2.0:
        raise ValueError(f"energy {E} below the separatrix")
    if E == 2.0:
        return QuadratureResult(0.0, 0.0, 0)
    d = E - 2.0
    c = 6.0 * d * math.sqrt(2.0) / math.pi

    def f(t):  # full_turn_time(e) / 2 pi, times de/dt
        t3 = t * t * t
        e = 2.0 + d * t3 * t3
        return c * t3 * t * t * _agm_k(t3 * math.sqrt(d / e)) / math.sqrt(e)

    return _quad(f, 0.0, 1.0, tol)


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

    For h > 0 only the near-singular point s = pi needs a panel break.  For
    h < 0 the integrand has two integrable inverse-square-root singularities
    at the zeros s0 and 2 pi - s0 of cos s + 1 + h; the integrand is even
    about pi, and s = s0 -+ u^2 on either side of s0 makes it smooth in u.
    """
    if not math.isfinite(h):
        raise ValueError(f"h must be finite, got {h}")
    if h == 0.0:
        raise ValueError("h = 0 diverges")
    if abs(h) > 1.0:
        raise ValueError(f"|h| = {abs(h)} outside (0, 1]")

    if h > 0.0:
        def f(s):
            return (math.cos(s) + 1.0 + h) ** -0.5

        return _quad(f, 0.0, TWO_PI, tol, points=[math.pi])
    # Twice the integral over [0, pi], in u with s = s0 + u |u| about the zero
    # s0: cos s - cos s0 = -2 sin((s + s0)/2) sin(u |u| / 2), and the factor
    # u^2 of sin(u^2 / 2) cancels against ds = 2 |u| du.
    s0 = math.acos(-1.0 - h)
    if s0 == math.pi:
        raise QuadratureError(f"h = {h} rounds the zeros of cos s + 1 + h to pi")

    def g(u):
        z = 0.5 * u * u
        return 2.0 / math.sqrt(math.sin(s0 + 0.5 * u * abs(u)) * (math.sin(z) / z))

    q = _quad(g, -math.sqrt(s0), math.sqrt(math.pi - s0), 0.5 * tol, points=[0.0])
    return QuadratureResult(2.0 * q.value, 2.0 * q.error_estimate, q.evaluations)


def poincare_high(y: float, p: Params) -> float:
    """Exact crossing-speed map of the dry-friction flow on the section
    x = pi (mod 2pi):  y'^2/2 = y^2/2 - 2 pi eps, sign preserved."""
    if not math.isfinite(y):
        raise ValueError(f"section speed must be finite, got {y}")
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
    return brentq(g, 0.0, x, xtol=1e-15, rtol=8.9e-16)


@dataclass(frozen=True)
class PoincareIterates:
    """Orbit of a dry-friction section map with exact per-step times.

    ``values`` holds rest amplitudes x_n (low zone, section y = 0) or section
    speeds y_n (high zone, section x = pi mod 2pi).  ``times`` has one entry
    per map step, computed by quadrature of the tilted-potential motion, and
    ``evaluations`` counts the integrand evaluations of all those quadratures.
    """

    zone: str
    values: tuple[float, ...]
    times: tuple[float, ...]
    evaluations: int


# The node cap of the half-swing trapezoid rule of _low_step_time: a step time
# whose estimate has not met its request when the next level would pass it raises.
TRAPEZOID_MAX_NODES = 2 ** 14 + 1


def _low_step_time(x: float, x_next: float, eps: float, tol: float) -> QuadratureResult:
    """Duration of one half-swing from rest at -x to rest at x_next under
    u = -sign(y): the integral of ds/|y| over [-x, x_next] with
    y^2 = 2 F(s), F(s) = cos s - cos x - eps (s + x).

    F vanishes at both rest points and its linear part has no second divided
    difference, so F(s) = -(s + x)(x_next - s) cos[-x, s, x_next].  With
    s = c + r sin(theta), c = (x_next - x)/2, r = (x + x_next)/2, the factor
    (s + x)(x_next - s) is r^2 cos^2(theta) and cancels against
    ds = r cos(theta) dtheta, leaving the integral of
    g(theta) = 1 / sqrt(-2 cos[-x, s, x_next]) over [-pi/2, pi/2].  Each first
    divided difference cos[a, b] is -sin((a + b)/2) sin(d)/d with
    d = (b - a)/2, which does not cancel as b -> a.  Where -cos[...] is not
    positive the swing cannot start, and the integrand raises.

    g is analytic, 2 pi-periodic and even about pi/2, and the integral is half
    its integral over a period, where the trapezoid rule converges
    geometrically (Trefethen & Weideman, SIAM Review 56 (2014) 385-458).  The
    rule with N nodes theta_i = -pi/2 + 2 pi i/N needs only i = 0..N/2, the
    ends once and the rest twice: T_N = (pi/N) (g_0 + g_N/2 + 2 sum g_i).  In
    s these nodes are the Chebyshev-Lobatto points c - r cos(2 pi i/N) of the
    weight 1/sqrt((s + x)(x_next - s)) of the two rest points.  The levels
    N = 4, 8, 16, ... are nested, so each doubling evaluates only its N/2 new
    odd nodes; the rule stops once |T_2N - T_N| is at most tol/100 (but not
    below 1e-13, nor above tol) or the roundoff floor 2 ROUNDOFF T_2N, and
    returns T_2N with that difference as its error estimate.  It certifies
    as :func:`_quad` does: a tol below eps T, finer than the rounding of the
    sum, or an estimate above max(tol, floor) when the next level would pass
    ``TRAPEZOID_MAX_NODES``, raises QuadratureError.
    """
    _check_tol(tol)
    width = x + x_next
    c = 0.5 * (x_next - x)
    r = 0.5 * width
    sin = math.sin

    def g(s):
        d = 0.5 * (x_next - s)
        a = sin(0.5 * (s + x_next)) * sin(d) / d if d != 0.0 else sin(s)       # -cos[s, x_next]
        d = 0.5 * (s + x)
        b = sin(0.5 * (s - x)) * sin(d) / d if d != 0.0 else sin(s)            # -cos[-x, s]
        return math.sqrt(r / (a - b))

    req = min(max(tol / 100.0, 1e-13), tol)
    ends = g(c - r) + g(c + r)
    inner = g(c)
    half = 2          # N/2: the level's nodes are i = 0..half
    nodes = 3
    value = 0.25 * math.pi * (ends + 2.0 * inner)
    while True:
        # The new nodes i = 1, 3, ..., 2 half - 1 of level 2N pair up about
        # the centre: s = c -+ r cos(pi i / (2 half)) for odd i < half.
        step = 0.5 * math.pi / half
        for i in range(1, half, 2):
            d = r * math.cos(step * i)
            inner += g(c - d) + g(c + d)
        nodes += half
        half *= 2
        estimate = 0.5 * math.pi / half * (ends + 2.0 * inner)
        err = abs(estimate - value)
        value = estimate
        floor = 2.0 * ROUNDOFF * value
        if err <= req or err <= floor or nodes + half > TRAPEZOID_MAX_NODES:
            break
    if not (tol >= sys.float_info.epsilon * value and err <= max(tol, floor)):
        raise QuadratureError(f"half-swing from rest at -{x!r} to {x_next!r} at eps={eps!r}: "
                              f"trapezoid estimate {value!r} with error estimate {err:.3e} at "
                              f"{nodes} nodes, tolerance {tol:.3e}; the rounding of the sum, "
                              f"eps times the estimate, is {sys.float_info.epsilon * value:.3e}")
    return QuadratureResult(value, err, nodes)


def _high_step_time(y: float, eps: float, tol: float) -> QuadratureResult:
    """Duration of one full turn from the section x = pi at speed y > 0 under
    u = -1: integral of ds/|y(s)| with
    y(s)^2 = y^2 + 2 (1 + cos s) + 2 eps (pi - s)."""

    def f(s):
        v = y * y + 2.0 * (1.0 + math.cos(s)) + 2.0 * eps * (math.pi - s)
        return v ** -0.5

    return _quad(f, math.pi, 3.0 * math.pi, tol)


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


def poincare_iterates(zone: str, start: float, p: Params) -> PoincareIterates:
    """Iterate a dry-friction Poincare map until it leaves its regime.

    Low zone: amplitudes from ``start`` down to standstill capture.
    High zone: positive section speeds down to the last full turn.
    The orbit ends after at most ``POINCARE_MAX_STEPS`` steps, each timed to
    ``POINCARE_TOL``.
    """
    _check_tol(POINCARE_TOL)
    if not math.isfinite(start):
        raise ValueError(f"start must be finite, got {start}")
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
    evaluations = 0
    for v in _orbit(step, float(start), p, stop, POINCARE_MAX_STEPS):
        if values:
            q = (_low_step_time(values[-1], v, eps, POINCARE_TOL) if zone == "low"
                 else _high_step_time(values[-1], eps, POINCARE_TOL))
            times.append(q.value)
            evaluations += q.evaluations
        values.append(v)
    return PoincareIterates(zone, tuple(values), tuple(times), evaluations)


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
    negative control.  Every piece is checked before the first is solved.
    The path ends early once the state reaches 0.
    Low zone: (sin X / 2X) dX/dt = U with X in (0, pi].
    High zone: Y dY/dt = 2 pi U with Y > 0.
    """
    if zone not in ("low", "high"):
        raise ValueError(f"unknown zone {zone!r}")
    if not math.isfinite(init):
        raise ValueError(f"initial state must be finite, got {init}")
    if zone == "low" and not 0.0 < init <= math.pi:
        raise ValueError(f"low-zone amplitude {init} outside (0, pi]")
    if zone == "high" and init <= 0.0:
        raise ValueError(f"high-zone speed {init} must be positive")
    profile = [(float(u), dur) for u, dur in profile]
    if not profile:
        raise ValueError("empty control profile")
    for u, dur in profile:
        if not abs(u) <= 1.0:
            raise ValueError(f"control {u} outside [-1, 1]")
        if dur is None:
            if u >= 0.0:
                raise ValueError("an open-ended piece needs a negative control")
        elif not (math.isfinite(dur) and dur >= 0.0):
            raise ValueError(f"piece duration must be nonnegative and finite, got {dur}")

    pieces: list[PathPiece] = []
    t = 0.0
    v = float(init)
    for u, dur in profile:
        if dur is None:
            dur = (swing_progress(v) / -u) if zone == "low" else (v * v / (4.0 * math.pi * -u))
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
    iterates before capture raises RuntimeError, before any map step when its
    length estimate swing_progress(x0) / eps already exceeds the cap by more
    than 5%.
    """
    if not 0.0 < x0 < math.pi:
        raise ValueError(f"amplitude {x0} outside (0, pi)")
    rows: list[EulerErrorRow] = []
    g0 = swing_progress(x0)
    ps = [Params(eps) for eps in eps_list]
    for q in ps:
        # The orbit lives about this many iterates, to within 5%.
        estimate = g0 / q.epsilon
        if estimate > 1.05 * EULER_MAX_ITERATES:
            raise RuntimeError(f"the broken-line orbit from {x0!r} at eps={q.epsilon!r} lives about "
                               f"{estimate:.6g} iterates, more than 5% over the cap of "
                               f"{EULER_MAX_ITERATES} iterates")
    prev = None
    for q in ps:
        eps = q.epsilon
        xs = list(_orbit(poincare_low, x0, q, StandstillCapture, EULER_MAX_ITERATES))
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
