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
:func:`effective_blocks` evaluates the closed-form block inverse

    M^-1 = [[A_eff^-1, -A_eff^-1 C B^-1], [-B^-1 D A_eff^-1, B_eff^-1]]
    A_eff = A - C B^-1 D,   B_eff = B - D A^-1 C

The first block row and the lower-left block follow from the Schur
complement A_eff of B, the lower-right block from the Schur complement B_eff
of A, and every 2x2 inverse is adjugate over determinant.  The two routes
share only the assembly of M; their agreement is the backbone of the tests.
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateBlock, SingularMatrix
from .model import DEGENERACY_RTOL, SystemParams, real, susceptibilities


def build_matrix(params: SystemParams, omega: float) -> np.ndarray:
    """M(omega) for one probe frequency, as a read-only complex 4x4 array."""
    chi = susceptibilities(params, real("omega", omega))
    J = params.optical_hop
    V = params.mechanical_hop
    cL = 1j * params.G_L * np.exp(-1j * params.phi_L)
    cR = 1j * params.G_R * np.exp(-1j * params.phi_R)
    dL = 1j * params.G_L * np.exp(1j * params.phi_L)
    dR = 1j * params.G_R * np.exp(1j * params.phi_R)
    m = np.array([
        [chi.chi_aL_inv, 1j * J, cL, 0.0],
        [1j * J, chi.chi_aR_inv, 0.0, cR],
        [dL, 0.0, chi.chi_bL_inv, 1j * V],
        [0.0, dR, 1j * V, chi.chi_bR_inv],
    ], dtype=complex)
    m.setflags(write=False)
    return m


def invert_dense(m) -> np.ndarray:
    """Invert a 4x4 complex matrix by LU elimination with partial pivoting.

    Raises :class:`SingularMatrix` when a pivot falls below
    ``DEGENERACY_RTOL * max|M|``, which for this system can only happen at an
    undamped resonance.
    """
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


def _inverse_2x2(block, name):
    """Adjugate over determinant; :class:`DegenerateBlock` if det (``name``) vanishes."""
    (a, b), (c, d) = block
    det = a * d - b * c
    _check_det(name, det, abs(a * d) + abs(b * c))
    return np.array([[d, -b], [-c, a]]) / det


def effective_blocks(params: SystemParams, omega: float) -> np.ndarray:
    """Closed-form M(omega)^-1, as a read-only complex 4x4 array.

    Four 2x2 inverses, of A, B, A_eff and B_eff, composed as in the module
    docstring.  Both conversion blocks pair the dressed optical inverse with
    the bare mechanical one.  The textbook -B_eff^-1 D A^-1 is equal in exact
    arithmetic, but with weak optical decay and strong G_L, G_R each of its
    off-diagonal entries sums two terms that cancel by eight decades.

    Raises :class:`DegenerateBlock` when det(A), det(B), det(A_eff) or
    det(B_eff) vanishes (possible only with some total decay exactly zero).
    """
    m = build_matrix(params, omega)
    A, C, D, B = m[:2, :2], m[:2, 2:], m[2:, :2], m[2:, 2:]
    A_inv = _inverse_2x2(A, "det_A")
    B_inv = _inverse_2x2(B, "det_B")
    A_eff_inv = _inverse_2x2(A - C @ B_inv @ D, "det_A_eff")
    B_eff_inv = _inverse_2x2(B - D @ A_inv @ C, "det_B_eff")
    inv = np.block([[A_eff_inv, -A_eff_inv @ C @ B_inv], [-B_inv @ D @ A_eff_inv, B_eff_inv]])
    inv.setflags(write=False)
    return inv
