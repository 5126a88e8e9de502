"""Controlled pendulum on the covering line: state, vector field, energies, zones.

The plant is  x' = y,  y' = -sin x + eps*u  with |u| <= 1.  Angles are kept
unreduced (real line), because the controlled Hamiltonian
    h = y^2/2 + (1 - cos x) + eps*u*x
is only single-valued on the cover.  Reduction to the cylinder is done
explicitly via :func:`reduce_angle` where a caller needs it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


# The standstill zone |sin x| < ZONE_FACTOR eps, |y| < ZONE_FACTOR eps: the
# backward extremals stop on re-entering it, and the damping simulation
# captures and resolves stalls inside it.
ZONE_FACTOR = 2.0


@dataclass(frozen=True)
class PhaseState:
    """Point (x, y) of the phase cylinder: angle and angular velocity."""

    x: float
    y: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError(f"non-finite phase state ({self.x}, {self.y})")


@dataclass(frozen=True)
class Params:
    """Control amplitude eps > 0 (dimensionless torque bound)."""

    epsilon: float

    def __post_init__(self):
        if not (math.isfinite(self.epsilon) and self.epsilon > 0.0):
            raise ValueError(f"epsilon must be positive and finite, got {self.epsilon}")


def reduce_angle(x: float) -> float:
    """Reduce an angle from the covering line to the principal branch (-pi, pi]."""
    r = math.fmod(x, 2.0 * math.pi)
    if r <= -math.pi:
        r += 2.0 * math.pi
    elif r > math.pi:
        r -= 2.0 * math.pi
    return r


def pendulum_rhs(pull: float):
    """The plant's field f(t, s) = (y, -sin x + pull) under a constant torque
    pull = eps*u, as a right-hand side for ``integrate``.

    The one definition of the pendulum field: the tests' DP5 oracle of the
    damping arcs evaluates it.  The damping arcs themselves run on
    ``integrator.pendulum_arc``, whose Taylor recurrence writes the field out.
    """
    sin = math.sin

    def f(t, s):
        return (s[1], -sin(s[0]) + pull)

    return f


def energy_xy(x: float, y: float) -> float:
    """Pendulum energy y^2/2 + (1 - cos x); zero at the lower equilibrium."""
    return 0.5 * y * y + (1.0 - math.cos(x))


def in_zone_xy(x: float, y: float, thr: float) -> bool:
    """Standstill-zone membership |y| < thr and |sin x| < thr (thr = ZONE_FACTOR*eps).

    For thr < 1 the zone has two components; the sign of cos x picks the one
    around the lower (cos x > 0) or the upper (cos x < 0) equilibrium.
    """
    return abs(y) < thr and abs(math.sin(x)) < thr

