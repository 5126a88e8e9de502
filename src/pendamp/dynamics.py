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


def vector_field(s: PhaseState, u: float, p: Params) -> tuple[float, float]:
    """Right-hand side (x', y') = (y, -sin x + eps*u) for a control value |u| <= 1."""
    if abs(u) > 1.0:
        raise ValueError(f"control out of range: |{u}| > 1")
    return (s.y, -math.sin(s.x) + p.epsilon * u)


def energy(s: PhaseState) -> float:
    """Pendulum energy y^2/2 + (1 - cos x); zero at the lower equilibrium."""
    return 0.5 * s.y * s.y + (1.0 - math.cos(s.x))


def energy_xy(x: float, y: float) -> float:
    """Energy from raw coordinates (hot path helper)."""
    return 0.5 * y * y + (1.0 - math.cos(x))


def standstill_zone(s: PhaseState, p: Params, factor: float = 2.0) -> ZoneTag:
    """Classify a state against the standstill zone |sin x| < f*eps, |y| < f*eps.

    The zone has two components for f*eps < 1; the sign of cos x picks the one
    around the lower (cos x > 0) or upper (cos x < 0) equilibrium.
    """
    if factor <= 0.0:
        raise ValueError(f"factor must be positive, got {factor}")
    thr = factor * p.epsilon
    if thr >= 1.0:
        raise ValueError(f"factor*epsilon = {thr} >= 1: zone components not disjoint")
    if abs(math.sin(s.x)) < thr and abs(s.y) < thr:
        return ZoneTag.LOWER if math.cos(s.x) > 0.0 else ZoneTag.UPPER
    return ZoneTag.NONE


def in_zone_xy(x: float, y: float, thr: float) -> bool:
    """Raw standstill-zone membership test for hot loops (thr = factor*eps < 1)."""
    return abs(y) < thr and abs(math.sin(x)) < thr
