"""Frequency-domain coupling matrix of the plaquette and its inverse, twice.

The linearized Langevin equations in the frequency domain read
``M(omega) O(omega) = Omega N_in`` with mode vector O = (a_L, a_R, b_L, b_R).
That mode ordering is a hard API contract for every 4x4 matrix produced here.

The matrix splits into 2x2 blocks ``M = [[A, C], [D, B]]``:

    A = [[chi_aL_inv, iJ], [iJ, chi_aR_inv]]        optical
    B = [[chi_bL_inv, iV], [iV, chi_bR_inv]]        mechanical
    C = diag(iG_L e^{-i phi_L}, iG_R e^{-i phi_R})  sound -> light
    D = diag(iG_L e^{+i phi_L}, iG_R e^{+i phi_R})  light -> sound

M is inverted two independent ways: :func:`invert_dense` does plain Gaussian
elimination with partial pivoting (the numerical oracle), while
:func:`effective_blocks` evaluates the closed-form block inverses

    M^-1 = [[A_eff^-1, -A_eff^-1 C B^-1], [-B_eff^-1 D A^-1, B_eff^-1]]
    A_eff = A - C B^-1 D,   B_eff = B - D A^-1 C

with every 2x2 inverse written out explicitly.  Agreement of the two routes
is the backbone of the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateBlock, SingularMatrix
from .model import SystemParams, susceptibilities

#: relative threshold below which a pivot or determinant counts as vanished
DEGENERACY_RTOL = 1e-14


def _frozen(array):
    array.setflags(write=False)
    return array


@dataclass(frozen=True, eq=False)
class CouplingMatrix:
    """M(omega) with read-only entries and 2x2 block views."""

    entries: np.ndarray

    @property
    def block_A(self) -> np.ndarray:
        return self.entries[:2, :2]

    @property
    def block_B(self) -> np.ndarray:
        return self.entries[2:, 2:]

    @property
    def block_C(self) -> np.ndarray:
        return self.entries[:2, 2:]

    @property
    def block_D(self) -> np.ndarray:
        return self.entries[2:, :2]


@dataclass(frozen=True, eq=False)
class EffectiveBlocks:
    """All four blocks of M^-1 from the closed forms, plus the determinants.

    conv_photon_to_phonon is the lower-left block -B_eff^-1 D A^-1 (mechanical
    response to optical inputs); conv_phonon_to_photon is the upper-right
    block -A_eff^-1 C B^-1.
    """

    A_eff_inv: np.ndarray
    B_eff_inv: np.ndarray
    conv_photon_to_phonon: np.ndarray
    conv_phonon_to_photon: np.ndarray
    det_A: complex
    det_B: complex
    det_A_eff: complex
    det_B_eff: complex

    def assemble(self) -> np.ndarray:
        """The full 4x4 inverse in (a_L, a_R, b_L, b_R) ordering."""
        out = np.empty((4, 4), dtype=complex)
        out[:2, :2] = self.A_eff_inv
        out[:2, 2:] = self.conv_phonon_to_photon
        out[2:, :2] = self.conv_photon_to_phonon
        out[2:, 2:] = self.B_eff_inv
        return out


def build_matrix(params: SystemParams, omega: float) -> CouplingMatrix:
    """Assemble M(omega) for one probe frequency."""
    chi = susceptibilities(params, omega)
    J = params.optical_hop
    V = params.mechanical_hop
    cL = 1j * params.G_L * np.exp(-1j * params.phi_L)
    cR = 1j * params.G_R * np.exp(-1j * params.phi_R)
    dL = 1j * params.G_L * np.exp(1j * params.phi_L)
    dR = 1j * params.G_R * np.exp(1j * params.phi_R)
    m = np.array(
        [
            [chi.chi_aL_inv, 1j * J, cL, 0.0],
            [1j * J, chi.chi_aR_inv, 0.0, cR],
            [dL, 0.0, chi.chi_bL_inv, 1j * V],
            [0.0, dR, 1j * V, chi.chi_bR_inv],
        ],
        dtype=complex,
    )
    return CouplingMatrix(entries=_frozen(m))


def invert_dense(m) -> np.ndarray:
    """Invert a 4x4 complex matrix by LU elimination with partial pivoting.

    Accepts a :class:`CouplingMatrix` or a plain array.  Raises
    :class:`SingularMatrix` when a pivot falls below
    ``DEGENERACY_RTOL * max|M|``, which for this system can only happen at an
    undamped resonance.
    """
    if isinstance(m, CouplingMatrix):
        m = m.entries
    a = np.array(m, dtype=complex)
    n = a.shape[0]
    if a.shape != (n, n):
        raise ValueError(f"square matrix expected, got shape {a.shape}")
    scale = np.max(np.abs(a))
    if scale == 0.0:
        raise SingularMatrix("all-zero matrix")
    perm = np.arange(n)
    for col in range(n):
        p = col + int(np.argmax(np.abs(a[col:, col])))
        if abs(a[p, col]) < DEGENERACY_RTOL * scale:
            raise SingularMatrix(
                f"pivot {abs(a[p, col]):.3e} below {DEGENERACY_RTOL:.0e} * max|M| in column {col}"
            )
        if p != col:
            a[[col, p]] = a[[p, col]]
            perm[[col, p]] = perm[[p, col]]
        a[col + 1 :, col] /= a[col, col]
        a[col + 1 :, col + 1 :] -= np.outer(a[col + 1 :, col], a[col, col + 1 :])
    inv = np.empty((n, n), dtype=complex)
    for rhs in range(n):
        y = np.zeros(n, dtype=complex)
        for i in range(n):
            y[i] = (1.0 if perm[i] == rhs else 0.0) - a[i, :i] @ y[:i]
        x = np.zeros(n, dtype=complex)
        for i in range(n - 1, -1, -1):
            x[i] = (y[i] - a[i, i + 1 :] @ x[i + 1 :]) / a[i, i]
        inv[:, rhs] = x
    return inv


def _check_det(name, det, scale):
    if abs(det) < DEGENERACY_RTOL * scale or scale == 0.0:
        raise DegenerateBlock(f"{name} = {det!r} vanishes at this frequency")


def optical_det(chi, J):
    """det(A) = chi_aL_inv chi_aR_inv + J^2; broadcasts over array-valued chi."""
    return chi.chi_aR_inv * chi.chi_aL_inv + J * J


def checked_optical_det(chi, J) -> complex:
    """:func:`optical_det` at one frequency; :class:`DegenerateBlock` if it vanishes."""
    det_A = optical_det(chi, J)
    _check_det("det_A", det_A, abs(chi.chi_aR_inv) * abs(chi.chi_aL_inv) + J * J)
    return det_A


def effective_blocks(params: SystemParams, omega: float) -> EffectiveBlocks:
    """Closed-form block inverses of M(omega).

    Pure algebra, no elimination.  Raises :class:`DegenerateBlock` when any
    of det(A), det(B), det(A_eff), det(B_eff) vanishes relative to its own
    term magnitudes (possible only with some total decay exactly zero).
    """
    chi = susceptibilities(params, omega)
    J = params.optical_hop
    V = params.mechanical_hop
    gl = params.G_L
    gr = params.G_R
    zphi = np.exp(1j * params.synthetic_flux)
    zphic = np.conj(zphi)

    det_A = checked_optical_det(chi, J)
    det_B = chi.chi_bR_inv * chi.chi_bL_inv + V * V
    _check_det("det_B", det_B, abs(chi.chi_bR_inv) * abs(chi.chi_bL_inv) + V * V)

    # dressed optical block (mechanical bath integrated out)
    aL_eff = chi.chi_aL_inv + gl * gl * chi.chi_bR_inv / det_B
    aR_eff = chi.chi_aR_inv + gr * gr * chi.chi_bL_inv / det_B
    off_a_p = J - V * gl * gr * zphi / det_B
    off_a_m = J - V * gl * gr * zphic / det_B
    det_A_eff = aL_eff * aR_eff + off_a_p * off_a_m
    _check_det("det_A_eff", det_A_eff, abs(aL_eff * aR_eff) + abs(off_a_p * off_a_m))
    A_eff_inv = np.array(
        [[aR_eff, -1j * off_a_m], [-1j * off_a_p, aL_eff]], dtype=complex
    ) / det_A_eff

    # dressed mechanical block (optical bath integrated out)
    bL_eff = chi.chi_bL_inv + gl * gl * chi.chi_aR_inv / det_A
    bR_eff = chi.chi_bR_inv + gr * gr * chi.chi_aL_inv / det_A
    off_b_p = V - J * gl * gr * zphi / det_A
    off_b_m = V - J * gl * gr * zphic / det_A
    det_B_eff = bL_eff * bR_eff + off_b_p * off_b_m
    _check_det("det_B_eff", det_B_eff, abs(bL_eff * bR_eff) + abs(off_b_p * off_b_m))
    B_eff_inv = np.array(
        [[bR_eff, -1j * off_b_p], [-1j * off_b_m, bL_eff]], dtype=complex
    ) / det_B_eff

    A_inv = np.array(
        [[chi.chi_aR_inv, -1j * J], [-1j * J, chi.chi_aL_inv]], dtype=complex
    ) / det_A
    B_inv = np.array(
        [[chi.chi_bR_inv, -1j * V], [-1j * V, chi.chi_bL_inv]], dtype=complex
    ) / det_B
    C = np.diag([1j * gl * np.exp(-1j * params.phi_L), 1j * gr * np.exp(-1j * params.phi_R)])
    D = np.diag([1j * gl * np.exp(1j * params.phi_L), 1j * gr * np.exp(1j * params.phi_R)])

    return EffectiveBlocks(
        A_eff_inv=_frozen(A_eff_inv),
        B_eff_inv=_frozen(B_eff_inv),
        conv_photon_to_phonon=_frozen(-B_eff_inv @ D @ A_inv),
        conv_phonon_to_photon=_frozen(-A_eff_inv @ C @ B_inv),
        det_A=complex(det_A),
        det_B=complex(det_B),
        det_A_eff=complex(det_A_eff),
        det_B_eff=complex(det_B_eff),
    )
