"""Minimum-time damping of a controlled pendulum: a numerical laboratory.

Modules by topic:

* :mod:`pendamp.dynamics` - pendulum state, vector field, energies, zones;
* :mod:`pendamp.integrator` - Taylor arcs of the pendulum and adaptive RK,
  with event localization;
* :mod:`pendamp.extremal` - backward maximum-principle extremals, switching
  counts, bifurcation values of the control amplitude;
* :mod:`pendamp.quasiopt` - dry-friction feedback and closed-loop damping;
* :mod:`pendamp.limits` - quadratures, Poincare maps, averaged limit systems;
* :mod:`pendamp.linosc` - time-optimal linear-oscillator baseline;
* :mod:`pendamp.acceptance` - the acceptance experiments;
* :mod:`pendamp.cli` - command-line front end and report generation.
"""

from .dynamics import Params, PhaseState, ZoneTag, energy, standstill_zone, vector_field
from .extremal import find_bifurcation, max_switchings, trace_extremal
from .limits import constant_D, tau, tau_minus, tau_plus
from .quasiopt import simulate_damping, sweep_scaling

__all__ = [
    "Params",
    "PhaseState",
    "ZoneTag",
    "constant_D",
    "energy",
    "find_bifurcation",
    "max_switchings",
    "simulate_damping",
    "standstill_zone",
    "sweep_scaling",
    "tau",
    "tau_minus",
    "tau_plus",
    "trace_extremal",
    "vector_field",
]

__version__ = "0.1.0"
