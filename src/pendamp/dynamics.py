"""Controlled pendulum on the covering line: state, vector field, energies, zones.

The plant is  x' = y,  y' = -sin x + eps*u  with |u| <= 1.  Angles are kept
unreduced (real line), because the controlled Hamiltonian
    h = y^2/2 + (1 - cos x) + eps*u*x
is only single-valued on the cover.  Reduction to the cylinder is done
explicitly via :func:`reduce_angle` where a caller needs it.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass


# The standstill zone |sin x| < ZONE_FACTOR eps, |y| < ZONE_FACTOR eps: the
# backward extremals stop on re-entering it, and the damping simulation
# captures and resolves stalls inside it.
ZONE_FACTOR = 2.0


class ZoneTag(enum.Enum):
    """Which connected component of the standstill zone contains a state."""

    NONE = "none"
    LOWER = "lower"
    UPPER = "upper"


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

    The one definition of the pendulum field: :func:`vector_field` and every
    arc of the damping simulation evaluate it.
    """
    sin = math.sin

    def f(t, s):
        return (s[1], -sin(s[0]) + pull)

    return f


def vector_field(s: PhaseState, u: float, p: Params) -> tuple[float, float]:
    """Right-hand side (x', y') = (y, -sin x + eps*u) for a control value |u| <= 1."""
    if abs(u) > 1.0:
        raise ValueError(f"control out of range: |{u}| > 1")
    return pendulum_rhs(p.epsilon * u)(0.0, (s.x, s.y))


def energy(s: PhaseState) -> float:
    """Pendulum energy y^2/2 + (1 - cos x); zero at the lower equilibrium."""
    return energy_xy(s.x, s.y)


def energy_xy(x: float, y: float) -> float:
    """Energy from raw coordinates (hot path helper)."""
    return 0.5 * y * y + (1.0 - math.cos(x))


def standstill_zone(s: PhaseState, p: Params) -> ZoneTag:
    """Classify a state against the standstill zone |sin x|, |y| < ZONE_FACTOR*eps.

    The zone has two components for ZONE_FACTOR*eps < 1; the sign of cos x
    picks the one around the lower (cos x > 0) or upper (cos x < 0)
    equilibrium.
    """
    thr = ZONE_FACTOR * p.epsilon
    if thr >= 1.0:
        raise ValueError(f"ZONE_FACTOR*epsilon = {thr} >= 1: zone components not disjoint")
    return zone_xy(s.x, s.y, thr)


def in_zone_xy(x: float, y: float, thr: float) -> bool:
    """Raw standstill-zone membership test for hot loops (thr = factor*eps < 1)."""
    return abs(y) < thr and abs(math.sin(x)) < thr


def zone_xy(x: float, y: float, thr: float) -> ZoneTag:
    """Standstill-zone classification from raw coordinates (thr = factor*eps < 1)."""
    if in_zone_xy(x, y, thr):
        return ZoneTag.LOWER if math.cos(x) > 0.0 else ZoneTag.UPPER
    return ZoneTag.NONE
