import cmath
import math
from dataclasses import replace

import numpy as np
import pytest

import optoflux as of
from optoflux.model import TWO_PI
from optoflux.steadystate import drive_response_matrix

from helpers import random_params


def _with_vacuum_coupling(p, g_hz=(200.0, 200.0)):
    return replace(p, g_L=TWO_PI * g_hz[0], g_R=TWO_PI * g_hz[1])


def test_single_driven_cavity_closed_form():
    # J = 0 and eps_R = 0 decouples the cavities completely
    p = _with_vacuum_coupling(replace(of.from_table1(1e6), optical_hop=0.0))
    eps_L = 2.5e6
    phi_L = 0.4
    state = of.steady_amplitudes(replace(p, phi_L=phi_L), (eps_L, 0.0))
    expected = (math.sqrt(p.kappa_eL) * eps_L * cmath.exp(2j * phi_L)
                / (p.kappa_L / 2 - 1j * p.detuning_L))
    assert state.alpha_L == pytest.approx(expected, rel=1e-12)
    assert state.alpha_R == 0
    assert state.G_R == 0.0
    assert state.G_L == pytest.approx(
        p.g_L * abs(expected), rel=1e-12)


def test_zero_drives_give_zero_fields():
    p = replace(_with_vacuum_coupling(of.from_table1(1e6)), phi_L=0.1, phi_R=0.2)
    state = of.steady_amplitudes(p, (0.0, 0.0))
    assert state.alpha_L == 0 and state.alpha_R == 0
    assert state.G_L == 0.0 and state.G_R == 0.0


def test_fields_are_linear_in_drives():
    p = replace(_with_vacuum_coupling(of.from_table1(1e6)), phi_L=0.3, phi_R=-0.2)
    one = of.steady_amplitudes(p, (1.1e6, 0.7e6))
    two = of.steady_amplitudes(p, (2.2e6, 1.4e6))
    assert two.alpha_L == pytest.approx(2 * one.alpha_L, rel=1e-14)
    assert two.alpha_R == pytest.approx(2 * one.alpha_R, rel=1e-14)


def test_common_phase_shift_preserves_magnitudes():
    p = _with_vacuum_coupling(of.from_table1(1e6))
    base = of.steady_amplitudes(replace(p, phi_L=0.3, phi_R=-0.2), (1.5e6, 0.8e6))
    for shift in (0.7, -1.9, 4.4):
        shifted = of.steady_amplitudes(replace(p, phi_L=0.3 + shift, phi_R=-0.2 + shift),
                                       (1.5e6, 0.8e6))
        assert abs(shifted.alpha_L) == pytest.approx(abs(base.alpha_L), rel=1e-9)
        assert abs(shifted.alpha_R) == pytest.approx(abs(base.alpha_R), rel=1e-9)


def test_drives_for_target_trivial_zero():
    p = _with_vacuum_coupling(of.from_table1(1e6))
    assert of.drives_for_target_G(p, (0.0, 0.0)) == (0j, 0j)


def test_drives_for_target_decoupled_closed_form():
    p = _with_vacuum_coupling(replace(of.from_table1(1e6), optical_hop=0.0))
    g_L, g_R = p.g_L, p.g_R
    target = (TWO_PI * 33e6, TWO_PI * 31e6)
    eps_L, eps_R = of.drives_for_target_G(p, target)
    expected_L = target[0] * abs(p.kappa_L / 2 - 1j * p.detuning_L) / (g_L * math.sqrt(p.kappa_eL))
    expected_R = target[1] * abs(p.kappa_R / 2 - 1j * p.detuning_R) / (g_R * math.sqrt(p.kappa_eR))
    assert eps_L.imag == pytest.approx(0.0, abs=1e-9 * abs(eps_L))
    assert eps_R.imag == pytest.approx(0.0, abs=1e-9 * abs(eps_R))
    assert eps_L.real == pytest.approx(expected_L, rel=1e-12)
    assert eps_R.real == pytest.approx(expected_R, rel=1e-12)


def test_round_trip_reproduces_reference_targets():
    p = _with_vacuum_coupling(of.from_table1(1e6, flux=0.35))
    target = (TWO_PI * 33e6, TWO_PI * 31e6)
    state = of.steady_amplitudes(p, of.drives_for_target_G(p, target))
    assert state.G_L == pytest.approx(target[0], rel=1e-9)
    assert state.G_R == pytest.approx(target[1], rel=1e-9)


def test_round_trip_randomized():
    rng = np.random.default_rng(20240503)
    for _ in range(50):
        p = _with_vacuum_coupling(random_params(rng),
                                  g_hz=10.0 ** rng.uniform(1, 4, size=2))
        target = tuple(TWO_PI * 10.0 ** rng.uniform(4, 8, size=2))
        state = of.steady_amplitudes(p, of.drives_for_target_G(p, target))
        assert abs(state.G_L - target[0]) <= 1e-9 * target[0]
        assert abs(state.G_R - target[1]) <= 1e-9 * target[1]


def test_missing_vacuum_coupling_is_rejected():
    p = of.from_table1(1e6)  # vacuum couplings default to zero
    with pytest.raises(ValueError):
        of.drives_for_target_G(p, (TWO_PI * 1e6, 0.0))


def test_singular_drive_map_raises_no_solution():
    # kappa_eL = 0 makes the left cavity undriveable
    p = _with_vacuum_coupling(replace(of.from_table1(1e6), optical_hop=0.0))
    p = replace(p, kappa_eL=0.0)
    with pytest.raises(of.NoSolution):
        of.drives_for_target_G(p, (TWO_PI * 1e6, TWO_PI * 1e6))


def test_state_beyond_the_float_range_raises_no_solution():
    p = of.from_table1(1e6)
    # the field a target asks for, the drive that field needs, the coupling a
    # field makes: each passes the float range and is named
    with pytest.raises(of.NoSolution, match="^alpha_L = "):
        of.drives_for_target_G(_with_vacuum_coupling(p, (1e-300, 1e-300)), (1e300, 1e300))
    with pytest.raises(of.NoSolution, match="^eps_L = "):
        of.drives_for_target_G(_with_vacuum_coupling(p, (1.0, 1.0)), (1e307, 1e307))
    with pytest.raises(of.NoSolution, match="^alpha_L = "):
        of.steady_amplitudes(p, (math.inf, 0.0))
    with pytest.raises(of.NoSolution, match="^G_L = "):
        of.steady_amplitudes(_with_vacuum_coupling(p, (1e300, 1e300)), (1e307, 1e307))
    # a field of 1.3e308 (1 + i), whose magnitude is past the float range
    # although both of its parts are within
    p = replace(p, optical_hop=0.0, kappa_eL=1.0, kappa_iL=0.0, detuning_L=0.5)
    with pytest.raises(of.NoSolution, match="^G_L: "):
        of.steady_amplitudes(_with_vacuum_coupling(p), (1.3e308, 0.0))


def test_degenerate_denominator_raises():
    # kappa = 0, detuning 0, J = 0: the response denominator vanishes
    p = of.SystemParams(
        omega_mL=TWO_PI * 5.8e9, omega_mR=TWO_PI * 5.8e9,
        kappa_eL=0.0, kappa_eR=0.0, kappa_iL=0.0, kappa_iR=0.0,
        gamma_eL=TWO_PI * 1e6, gamma_eR=TWO_PI * 1e6,
        gamma_iL=TWO_PI * 1e6, gamma_iR=TWO_PI * 1e6,
        optical_hop=0.0, mechanical_hop=0.0,
        G_L=0.0, G_R=0.0,
        detuning_L=0.0, detuning_R=0.0,
    )
    with pytest.raises(of.DegenerateBlock):
        of.steady_amplitudes(p, (1.0, 1.0))


def test_drive_response_matrix_columns():
    # columns of T are the unit responses of each drive
    p = replace(of.from_table1(1e6), phi_L=0.3, phi_R=-0.1)
    t = drive_response_matrix(p)
    a = of.steady_amplitudes(p, (1.0, 0.0))
    b = of.steady_amplitudes(p, (0.0, 1.0))
    assert t[0][0] == a.alpha_L and t[1][0] == a.alpha_R
    assert t[0][1] == b.alpha_L and t[1][1] == b.alpha_R
