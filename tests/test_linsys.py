import math
from dataclasses import replace

import numpy as np
import pytest

import optoflux as of
from optoflux.model import TWO_PI

from helpers import max_entrywise_relative, random_omega, random_params

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
    assert np.allclose(m.entries, M_58GHZ, rtol=1e-12, atol=1e-6)


def test_matrix_block_structure():
    p = of.from_table1(3e6, flux=0.9)
    m = of.build_matrix(p, TWO_PI * 5.85e9)
    assert m.block_A[0, 1] == 1j * p.optical_hop
    assert m.block_A[1, 0] == 1j * p.optical_hop
    assert m.block_B[0, 1] == 1j * p.mechanical_hop
    assert m.block_B[1, 0] == 1j * p.mechanical_hop
    # D = -C* elementwise for the diagonal conversion blocks
    assert np.allclose(m.block_D, -np.conj(m.block_C), rtol=0, atol=1e-16 * p.G_L)
    chi = of.susceptibilities(p, TWO_PI * 5.85e9)
    assert m.entries[0, 0] == chi.chi_aL_inv
    assert m.entries[1, 1] == chi.chi_aR_inv
    assert m.entries[2, 2] == chi.chi_bL_inv
    assert m.entries[3, 3] == chi.chi_bR_inv


def test_matrix_decoupled_limits():
    p = replace(of.from_table1(1e6), G_L=0.0, G_R=0.0)
    m = of.build_matrix(p, TWO_PI * 5.8e9)
    assert np.all(m.block_C == 0)
    assert np.all(m.block_D == 0)

    q = replace(of.from_table1(0.0), optical_hop=0.0)
    m = of.build_matrix(q, TWO_PI * 5.8e9)
    assert m.block_A[0, 1] == 0 and m.block_A[1, 0] == 0
    assert m.block_B[0, 1] == 0 and m.block_B[1, 0] == 0


def test_matrix_entries_read_only():
    m = of.build_matrix(of.from_table1(1e6), TWO_PI * 5.8e9)
    with pytest.raises(ValueError):
        m.entries[0, 0] = 0.0


def test_invert_dense_identity_and_diagonal():
    assert np.array_equal(of.invert_dense(np.eye(4, dtype=complex)), np.eye(4))
    d = np.diag([1.0 + 2.0j, -3.0j, 0.5, 4.0 + 0.0j])
    inv = of.invert_dense(d)
    assert np.allclose(inv, np.diag(1.0 / np.diag(d)), rtol=1e-15, atol=0)


def test_invert_dense_residual_bound():
    p = of.from_table1(1e6, flux=1.1)
    m = of.build_matrix(p, TWO_PI * 5.9e9)
    inv = of.invert_dense(m)
    residual = np.max(np.abs(m.entries @ inv - np.eye(4)))
    assert residual <= 1e-10 * np.max(np.abs(m.entries))


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
        assembled = of.effective_blocks(p, omega).assemble()
        worst = max(worst, max_entrywise_relative(assembled, dense))
    assert worst <= 1e-10


def test_effective_blocks_determinants():
    p = of.from_table1(2.5e6, flux=0.37)
    omega = TWO_PI * 5.88e9
    chi = of.susceptibilities(p, omega)
    blocks = of.effective_blocks(p, omega)
    assert blocks.det_A == chi.chi_aR_inv * chi.chi_aL_inv + p.optical_hop ** 2
    assert blocks.det_B == chi.chi_bR_inv * chi.chi_bL_inv + p.mechanical_hop ** 2


def test_mechanical_offdiagonals_coincide_at_integer_flux():
    p = of.from_table1(1.7e6)
    omega = TWO_PI * 5.86e9
    for n in (-2, -1, 0, 1, 2):
        blocks = of.effective_blocks(p.with_flux(n * math.pi), omega)
        b01 = blocks.B_eff_inv[0, 1]
        b10 = blocks.B_eff_inv[1, 0]
        assert abs(b01 - b10) <= 1e-12 * abs(b01)


def test_flux_gauge_invariance():
    # common drive-phase shifts change no block magnitude
    rng = np.random.default_rng(7)
    p = of.from_table1(2e6, flux=0.81)
    omega = TWO_PI * 5.91e9
    reference = np.abs(of.effective_blocks(p, omega).assemble())
    for shift in rng.uniform(-10, 10, size=5):
        shifted = np.abs(of.effective_blocks(
            replace(p, phi_L=p.phi_L + shift, phi_R=p.phi_R + shift), omega).assemble())
        assert np.max(np.abs(shifted - reference) / reference) <= 1e-9


def test_no_optical_dressing_without_enhanced_coupling():
    # G = 0 leaves the mechanical block bare: B_eff^-1 = B^-1
    p = replace(of.from_table1(4e6), G_L=0.0, G_R=0.0)
    omega = TWO_PI * 5.83e9
    chi = of.susceptibilities(p, omega)
    V = p.mechanical_hop
    det_B = chi.chi_bR_inv * chi.chi_bL_inv + V * V
    blocks = of.effective_blocks(p, omega)
    assert blocks.B_eff_inv[0, 1] == -1j * V / det_B
    assert blocks.B_eff_inv[1, 0] == -1j * V / det_B
    assert np.all(blocks.conv_photon_to_phonon == 0)
    assert np.all(blocks.conv_phonon_to_photon == 0)
    dense = of.invert_dense(of.build_matrix(p, omega))
    assert max_entrywise_relative(blocks.assemble(), dense) <= 1e-9


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
    blocks = of.effective_blocks(p, omega_m + 3 * V)
    dense = of.invert_dense(of.build_matrix(p, omega_m + 3 * V))
    assert max_entrywise_relative(blocks.assemble(), dense) <= 1e-9


def test_degenerate_block_is_a_singular_matrix():
    assert issubclass(of.DegenerateBlock, of.SingularMatrix)
