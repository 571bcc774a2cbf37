import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

import optoflux as of
from optoflux import linsys
from optoflux.model import TWO_PI

from helpers import (
    exact_inverse,
    max_entrywise_relative,
    random_omega,
    random_params,
    scaled_params,
)

# entry-by-entry scripted evaluation of M(omega) for the reference parameters
# with V = 2pi*1 MHz, phi_L = pi/2, phi_R = 0 at omega/2pi = 5.8 GHz
M_58GHZ = np.array([
    [3235840433.197487 - 72884949.56328583j, 691150383.7897545j,
     207345115.13692635 + 1.2696226578563814e-08j, 0.0],
    [691150383.7897545j, 2356194490.1923447 - 131318572.92005157j,
     0.0, 194778744.52256718j],
    [-207345115.13692635 + 1.2696226578563814e-08j, 0.0,
     16650441.064025903 - 72884949.56328583j, 6283185.307179586j],
    [0.0, 194778744.52256718j, 6283185.307179586j,
     21676989.30976957 - 131318572.92005157j],
])


def _params_58():
    return replace(of.from_table1(1e6), phi_L=math.pi / 2)


def test_build_matrix_reference_point():
    m = of.build_matrix(_params_58(), TWO_PI * 5.8e9)
    assert np.allclose(m, M_58GHZ, rtol=1e-12, atol=1e-6)


def test_matrix_block_structure():
    p = of.from_table1(3e6, flux=0.9)
    m = of.build_matrix(p, TWO_PI * 5.85e9)
    assert m[0, 1] == 1j * p.optical_hop
    assert m[1, 0] == 1j * p.optical_hop
    assert m[2, 3] == 1j * p.mechanical_hop
    assert m[3, 2] == 1j * p.mechanical_hop
    # D = -C* elementwise for the diagonal conversion blocks
    assert np.allclose(m[2:, :2], -np.conj(m[:2, 2:]), rtol=0, atol=1e-16 * p.G_L)
    chi = of.susceptibilities(p, TWO_PI * 5.85e9)
    assert m[0, 0] == chi.chi_aL_inv
    assert m[1, 1] == chi.chi_aR_inv
    assert m[2, 2] == chi.chi_bL_inv
    assert m[3, 3] == chi.chi_bR_inv


def test_matrix_decoupled_limits():
    p = replace(of.from_table1(1e6), G_L=0.0, G_R=0.0)
    m = of.build_matrix(p, TWO_PI * 5.8e9)
    assert np.all(m[:2, 2:] == 0)
    assert np.all(m[2:, :2] == 0)

    q = replace(of.from_table1(0.0), optical_hop=0.0)
    m = of.build_matrix(q, TWO_PI * 5.8e9)
    assert m[0, 1] == 0 and m[1, 0] == 0
    assert m[2, 3] == 0 and m[3, 2] == 0


def test_matrix_entries_read_only():
    p = of.from_table1(1e6)
    for m in (of.build_matrix(p, TWO_PI * 5.8e9), of.effective_blocks(p, TWO_PI * 5.8e9)):
        assert type(m) is np.ndarray and m.dtype == complex and m.shape == (4, 4)
        with pytest.raises(ValueError):
            m[0, 0] = 0.0


def test_invert_dense_identity_and_diagonal():
    assert np.array_equal(of.invert_dense(np.eye(4, dtype=complex)), np.eye(4))
    d = np.diag([1.0 + 2.0j, -3.0j, 0.5, 4.0 + 0.0j])
    inv = of.invert_dense(d)
    assert np.allclose(inv, np.diag(1.0 / np.diag(d)), rtol=1e-15, atol=0)


def test_invert_dense_residual_bound():
    p = of.from_table1(1e6, flux=1.1)
    m = of.build_matrix(p, TWO_PI * 5.9e9)
    inv = of.invert_dense(m)
    residual = np.max(np.abs(m @ inv - np.eye(4)))
    assert residual <= 1e-10 * np.max(np.abs(m))


def test_invert_dense_rejects_singular():
    singular = np.array([
        [1.0, 2.0, 0.0, 0.0],
        [2.0, 4.0, 0.0, 0.0],
        [0.0, 0.0, 1.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
    ], dtype=complex)
    with pytest.raises(of.SingularMatrix):
        of.invert_dense(singular)
    with pytest.raises(of.SingularMatrix):
        of.invert_dense(np.zeros((4, 4), dtype=complex))
    with pytest.raises(ValueError):
        of.invert_dense(np.zeros((3, 4), dtype=complex))


def test_effective_blocks_match_dense_randomized():
    rng = np.random.default_rng(20240501)
    worst = 0.0
    for _ in range(200):
        p = random_params(rng)
        omega = random_omega(rng)
        dense = of.invert_dense(of.build_matrix(p, omega))
        closed = of.effective_blocks(p, omega)
        worst = max(worst, max_entrywise_relative(closed, dense))
    assert worst <= 1e-10



def test_both_routes_match_exact_inverse_at_range_corners():
    # every corner of the random_params box (each rate group 10^-2 or 10^2
    # times its reference) on either mechanical resonance: weak optical
    # decay with strong G_L, G_R there is where a closed form that subtracts
    # nearly equal products loses digits, so the exact rational inverse
    # decides, at the criterion-1 entry bound
    worst = {"closed form": 0.0, "dense": 0.0}
    for exponents in itertools.product((-2.0, 2.0), repeat=8):
        p = scaled_params(10.0 ** np.array(exponents), phi_L=0.3, phi_R=1.1)
        for omega in (p.omega_mL, p.omega_mR):
            m = of.build_matrix(p, omega)
            exact = exact_inverse(m)
            for route, inv in (("closed form", of.effective_blocks(p, omega)),
                               ("dense", of.invert_dense(m))):
                worst[route] = max(worst[route], max_entrywise_relative(inv, exact))
    assert worst["closed form"] <= 1e-9 and worst["dense"] <= 1e-9, worst


def test_effective_blocks_determinants():
    p = of.from_table1(2.5e6, flux=0.37)
    omega = TWO_PI * 5.88e9
    chi = of.susceptibilities(p, omega)
    det_A = chi.chi_aR_inv * chi.chi_aL_inv + p.optical_hop ** 2
    assert linsys.optical_det(chi, p.optical_hop) == det_A
    assert linsys.checked_optical_det(chi, p.optical_hop) == det_A


def test_mechanical_offdiagonals_coincide_at_integer_flux():
    p = of.from_table1(1.7e6)
    omega = TWO_PI * 5.86e9
    for n in (-2, -1, 0, 1, 2):
        B_eff_inv = of.effective_blocks(p.with_flux(n * math.pi), omega)[2:, 2:]
        b01 = B_eff_inv[0, 1]
        b10 = B_eff_inv[1, 0]
        assert abs(b01 - b10) <= 1e-12 * abs(b01)


def test_flux_gauge_invariance():
    # common drive-phase shifts change no block magnitude
    rng = np.random.default_rng(7)
    p = of.from_table1(2e6, flux=0.81)
    omega = TWO_PI * 5.91e9
    reference = np.abs(of.effective_blocks(p, omega))
    for shift in rng.uniform(-10, 10, size=5):
        shifted = np.abs(of.effective_blocks(
            replace(p, phi_L=p.phi_L + shift, phi_R=p.phi_R + shift), omega))
        assert np.max(np.abs(shifted - reference) / reference) <= 1e-9


def test_no_optical_dressing_without_enhanced_coupling():
    # G = 0 leaves the mechanical block bare: B_eff^-1 = B^-1
    p = replace(of.from_table1(4e6), G_L=0.0, G_R=0.0)
    omega = TWO_PI * 5.83e9
    chi = of.susceptibilities(p, omega)
    V = p.mechanical_hop
    det_B = chi.chi_bR_inv * chi.chi_bL_inv + V * V
    inv = of.effective_blocks(p, omega)
    assert inv[2, 3] == -1j * V / det_B
    assert inv[3, 2] == -1j * V / det_B
    assert np.all(inv[2:, :2] == 0)
    assert np.all(inv[:2, 2:] == 0)
    dense = of.invert_dense(of.build_matrix(p, omega))
    assert max_entrywise_relative(inv, dense) <= 1e-9


def test_degenerate_block_raised_for_undamped_resonance():
    # zero mechanical damping, equal frequencies: det_B = 0 at omega = omega_m + V
    omega_m = TWO_PI * 5.8e9
    omega = omega_m + TWO_PI * 1e6
    V = omega - omega_m  # exact float difference so det_B cancels exactly
    p = of.SystemParams.red_detuned(
        omega_mL=omega_m, omega_mR=omega_m,
        kappa_eL=0.0, kappa_eR=0.0, kappa_iL=0.0, kappa_iR=0.0,
        gamma_eL=0.0, gamma_eR=0.0, gamma_iL=0.0, gamma_iR=0.0,
        optical_hop=TWO_PI * 110e6, mechanical_hop=V,
        G_L=TWO_PI * 33e6, G_R=TWO_PI * 31e6,
    )
    with pytest.raises(of.DegenerateBlock):
        of.effective_blocks(p, omega)
    # off the resonance the zero-decay system still inverts cleanly
    closed = of.effective_blocks(p, omega_m + 3 * V)
    dense = of.invert_dense(of.build_matrix(p, omega_m + 3 * V))
    assert max_entrywise_relative(closed, dense) <= 1e-9


def test_degenerate_block_is_a_singular_matrix():
    assert issubclass(of.DegenerateBlock, of.SingularMatrix)
