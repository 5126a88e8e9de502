import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pendamp.dynamics import (
    Params,
    PhaseState,
    ZoneTag,
    energy,
    reduce_angle,
    standstill_zone,
    vector_field,
    zone_xy,
)
from pendamp.integrator import StepControl, integrate
from oracles import oracle_controlled_hamiltonian

finite = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)


def test_vector_field_values():
    assert vector_field(PhaseState(0.0, 0.0), 0.0, Params(0.1)) == (0.0, 0.0)
    dx, dy = vector_field(PhaseState(math.pi, 0.0), 1.0, Params(0.1))
    assert dx == 0.0
    assert dy == pytest.approx(0.1, abs=1e-15)
    dx, dy = vector_field(PhaseState(math.pi / 2, 2.0), -1.0, Params(0.3))
    assert dx == 2.0
    assert dy == pytest.approx(-1.3, abs=1e-15)


def test_vector_field_rejects_large_control():
    with pytest.raises(ValueError):
        vector_field(PhaseState(0.0, 0.0), 1.5, Params(0.1))


def test_energy_values():
    assert energy(PhaseState(0.0, 0.0)) == 0.0
    assert energy(PhaseState(math.pi, 0.0)) == pytest.approx(2.0, abs=1e-15)
    assert energy(PhaseState(math.pi / 2, 1.0)) == pytest.approx(1.5, abs=1e-15)


def test_controlled_hamiltonian_values():
    assert oracle_controlled_hamiltonian(PhaseState(0.0, 0.0), 1, Params(0.2)) == 0.0
    v = oracle_controlled_hamiltonian(PhaseState(math.pi, 0.0), 1, Params(0.1))
    assert v == pytest.approx(2.0 - 0.1 * math.pi, abs=1e-14)
    v = oracle_controlled_hamiltonian(PhaseState(1.0, 1.0), -1, Params(0.5))
    assert v == pytest.approx(2.0 - math.cos(1.0), abs=1e-14)


def test_controlled_hamiltonian_is_conserved():
    # The defining property: exact invariance along fixed-control arcs.
    eps, u = 0.3, 1
    p = Params(eps)

    def rhs(t, s):
        return vector_field(PhaseState(s[0], s[1]), float(u), p)

    seg = integrate(rhs, (0.5, 0.3), 0.0, 10.0, ctl=StepControl())
    h0 = oracle_controlled_hamiltonian(PhaseState(0.5, 0.3), u, p)
    drift = max(abs(oracle_controlled_hamiltonian(PhaseState(x, y), u, p) - h0)
                for x, y in seg.states)
    assert drift <= 1e-8


def test_controlled_hamiltonian_rejects_interior_control():
    with pytest.raises(ValueError):
        oracle_controlled_hamiltonian(PhaseState(0.0, 0.0), 0, Params(0.2))


def test_standstill_zone_tags():
    p = Params(0.1)
    assert standstill_zone(PhaseState(0.0, 0.0), p) is ZoneTag.LOWER
    assert standstill_zone(PhaseState(math.pi, 0.0), p) is ZoneTag.UPPER
    assert standstill_zone(PhaseState(math.pi / 2, 0.0), p) is ZoneTag.NONE


def test_standstill_zone_rejects_merged_components():
    with pytest.raises(ValueError, match="ZONE_FACTOR\\*epsilon = 1.2 >= 1"):
        standstill_zone(PhaseState(0.0, 0.0), Params(0.6))


def test_zone_xy_box_is_open():
    thr = 0.2
    assert zone_xy(0.0, 0.0, thr) is ZoneTag.LOWER
    assert zone_xy(math.pi, -0.19, thr) is ZoneTag.UPPER
    assert zone_xy(0.0, thr, thr) is ZoneTag.NONE
    assert zone_xy(math.asin(thr), 0.0, thr) is ZoneTag.NONE


def test_reduce_angle():
    assert reduce_angle(0.0) == 0.0
    assert reduce_angle(2.0 * math.pi) == pytest.approx(0.0, abs=1e-15)
    assert reduce_angle(math.pi) == pytest.approx(math.pi, abs=1e-15)
    assert reduce_angle(-math.pi) == pytest.approx(math.pi, abs=1e-15)
    assert reduce_angle(7.0) == pytest.approx(7.0 - 2.0 * math.pi, abs=1e-14)


def test_params_validation():
    with pytest.raises(ValueError):
        Params(0.0)
    with pytest.raises(ValueError):
        Params(-0.1)
    with pytest.raises(ValueError):
        PhaseState(math.inf, 0.0)


@settings(max_examples=100, deadline=None)
@given(x=finite, y=finite, u=st.floats(min_value=-1.0, max_value=1.0), eps=st.floats(min_value=1e-3, max_value=5.0))
def test_vector_field_odd_symmetry(x, y, u, eps):
    p = Params(eps)
    f = vector_field(PhaseState(x, y), u, p)
    g = vector_field(PhaseState(-x, -y), -u, p)
    assert g[0] == pytest.approx(-f[0], abs=1e-12)
    assert g[1] == pytest.approx(-f[1], abs=1e-12)


@settings(max_examples=100, deadline=None)
@given(x=finite, y=finite)
def test_energy_invariances(x, y):
    e = energy(PhaseState(x, y))
    assert e >= 0.0
    assert energy(PhaseState(x + 2.0 * math.pi, y)) == pytest.approx(e, abs=1e-9)
    assert energy(PhaseState(-x, -y)) == pytest.approx(e, abs=1e-12)


def test_energy_rate_identity_along_arcs():
    # dE/dt = eps*y*u, so for constant u the energy change over an arc equals
    # eps*u*(x_end - x_start); checked against the integrated flow.
    eps, u = 0.25, 1.0
    p = Params(eps)

    def rhs(t, s):
        return vector_field(PhaseState(s[0], s[1]), u, p)

    seg = integrate(rhs, (0.3, 0.7), 0.0, 3.0, ctl=StepControl())
    x0, y0 = seg.states[0]
    x1, y1 = seg.states[-1]
    de = energy(PhaseState(x1, y1)) - energy(PhaseState(x0, y0))
    assert de == pytest.approx(eps * u * (x1 - x0), abs=1e-9)


def test_energy_conserved_without_control():
    p = Params(0.3)

    def rhs(t, s):
        return vector_field(PhaseState(s[0], s[1]), 0.0, p)

    seg = integrate(rhs, (1.2, 0.4), 0.0, 10.0, ctl=StepControl())
    e0 = energy(PhaseState(1.2, 0.4))
    drift = max(abs(energy(PhaseState(x, y)) - e0) for x, y in seg.states)
    assert drift <= 1e-9
