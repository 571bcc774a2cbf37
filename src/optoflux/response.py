"""Closed-form nonreciprocity measures of the plaquette.

Each isolation is 10*log10 of a forward/backward power ratio, equivalently
20*log10 of the amplitude ratio.  The three channels and the element ratios
of M^-1 they correspond to (1-based indices inside each 2x2 block):

    phonon transport       B_eff^-1[2,1] / B_eff^-1[1,2]
    photon -> phonon       (-B_eff^-1 D A^-1)[2,1] / (-B_eff^-1 D A^-1)[1,2]
    phonon -> photon       (-A_eff^-1 C B^-1)[2,1] / (-A_eff^-1 C B^-1)[1,2]

Every amplitude, in either direction of any channel, has one form

    |g V X + Y w|,   w = e^{-i phi} forward,  w = e^{+i phi} backward,

with terms (g, X, Y) that depend on neither the flux phi nor the mechanical
hop V (:func:`amplitude_terms`):

    phonon             both directions   (1, det_A, -J G_L G_R)
    photon -> phonon   forward           (G_L, chi_aR_inv, J G_R chi_bL_inv)
                       backward          (G_R, chi_aL_inv, J G_L chi_bR_inv)
    phonon -> photon   the photon -> phonon terms with the directions swapped

Divided by det_A the phonon amplitude is |V - Gamma_A e^{-+i phi}|, where
Gamma_A = J G_L G_R / det_A is the optically mediated mechanical coupling:
the direct hop V interferes with the optical bridge, and the interference
differs between the two directions unless Gamma_A is real or phi is an
integer multiple of pi.  The swap is the conversion duality: phonon ->
photon at flux phi is exactly minus photon -> phonon at -phi.

These cleared-denominator forms are algebraically identical to the
block-element ratios but remain finite for vanishing couplings and at
undamped optical resonances.  Because the terms depend on neither phi nor
V, sweeps and searches over those two build them once per frequency grid
and rerun only :func:`amplitude_kernel`.
"""

from __future__ import annotations

import math

import numpy as np

from . import linsys
from .errors import ZeroCoupling
# the channel names stay importable from here
from .model import (PHONON, PHONON_TO_PHOTON, PHOTON_TO_PHONON,  # noqa: F401
                    QUANTITIES, SystemParams, susceptibilities)

#: amplitudes below this count as an exact null (perfect isolation sentinel)
UNDERFLOW = 1e-300


def gamma_A(params: SystemParams, omega: float) -> complex:
    """Optically mediated mechanical coupling Gamma_A = J G_L G_R / det_A.

    Raises :class:`ZeroCoupling` when the bridge J G_L G_R vanishes and
    :class:`DegenerateBlock` when det_A does.
    """
    bridge = params.optical_hop * params.G_L * params.G_R
    if bridge == 0.0:
        raise ZeroCoupling("Gamma_A = 0: no optical bridge to interfere with")
    chi = susceptibilities(params, omega)
    return complex(bridge / linsys.checked_optical_det(chi, params.optical_hop))


def _ratio_db(num, den, mask):
    """Overwrite ``num`` with 20*log10(num/den) and return it.

    Bitwise-equal amplitudes give exactly 0 dB.  A numerator or denominator
    below UNDERFLOW reports -inf or +inf (+inf is the perfect-isolation
    sentinel); both below gives nan.  ``den`` and the bool array ``mask``
    are scratch and are overwritten too.

    One minimum per amplitude decides whether any sentinel can fire.  The
    guard is negated because a nan minimum must fail it: a nan amplitude
    beside a tiny one still needs the sentinel path.
    """
    if not (num.min() >= UNDERFLOW and den.min() >= UNDERFLOW):
        with np.errstate(divide="ignore", invalid="ignore"):
            db = 20.0 * (np.log10(num) - np.log10(den))
        tiny_n = num < UNDERFLOW
        tiny_d = den < UNDERFLOW
        db = np.where(tiny_d & ~tiny_n, math.inf, db)
        db = np.where(tiny_n & ~tiny_d, -math.inf, db)
        db = np.where(tiny_n & tiny_d, math.nan, db)
        num[...] = np.where(num == den, 0.0, db)
        return num
    np.equal(num, den, out=mask)
    np.log10(num, out=num)
    np.log10(den, out=den)
    # inf - inf is nan; the mask puts equal infinite amplitudes back to 0 dB
    with np.errstate(invalid="ignore"):
        np.subtract(num, den, out=num)
    np.multiply(num, 20.0, out=num)
    np.copyto(num, 0.0, where=mask)
    return num


def amplitude_terms(params: SystemParams, omega, quantity: str):
    """The flux- and V-independent terms of one channel at ``omega``.

    Returns ``((g, X, Y) forward, (g, X, Y) backward)`` for
    :func:`amplitude_kernel`; X and Y broadcast like ``omega``.
    """
    if quantity not in QUANTITIES:
        raise ValueError(f"unknown quantity {quantity!r}, expected one of {QUANTITIES}")
    chi = susceptibilities(params, omega)
    J = params.optical_hop
    if quantity == PHONON:
        terms = (1.0, linsys.optical_det(chi, J), -(J * params.G_L * params.G_R))
        return terms, terms
    from_left = (params.G_L, chi.chi_aR_inv, J * params.G_R * chi.chi_bL_inv)
    from_right = (params.G_R, chi.chi_aL_inv, J * params.G_L * chi.chi_bR_inv)
    if quantity == PHOTON_TO_PHONON:
        return from_left, from_right
    return from_right, from_left


def amplitude_kernel(terms):
    """The isolation in dB of one set of :func:`amplitude_terms`.

    Returns ``db(mechanical_hop, flux, out=None)``: |g V X + Y e^{-i flux}|
    over |g V X + Y e^{+i flux}| in dB, written into ``out`` (a fresh array
    when None) and returned.  The scratch space is allocated here, once, so
    a sweep or search that reruns the kernel allocates nothing per call.
    """
    (g_f, x_f, y_f), (g_b, x_b, y_b) = terms
    shape = np.broadcast_shapes(*(np.shape(t) for t in (x_f, y_f, x_b, y_b)))
    hop_x, y_w = np.empty(shape, complex), np.empty(shape, complex)
    backward, mask = np.empty(shape), np.empty(shape, bool)

    def db(mechanical_hop, flux, out=None):
        if out is None:
            out = np.empty(shape)
        z = np.exp(1j * flux)
        for g, x, y, w, amplitude in ((g_f, x_f, y_f, np.conj(z), out),
                                      (g_b, x_b, y_b, z, backward)):
            np.multiply(g * mechanical_hop, x, out=hop_x)
            np.add(hop_x, np.multiply(y, w, out=y_w), out=hop_x)
            np.abs(hop_x, out=amplitude)
        return _ratio_db(out, backward, mask)

    return db


def isolation_db(params: SystemParams, omega, quantity: str = PHONON):
    """Isolation in dB for one transport/conversion channel.

    ``omega`` may be a float or an ndarray of probe frequencies; the return
    matches.
    """
    terms = amplitude_terms(params, np.asarray(omega, dtype=float), quantity)
    db = amplitude_kernel(terms)(params.mechanical_hop, params.synthetic_flux)
    return float(db) if db.ndim == 0 else db


def transmission_matrix(params: SystemParams, omega: float) -> np.ndarray:
    """Mode-amplitude response to unit coherent inputs at the four ports.

    Returns M^-1(omega) . diag(sqrt(kappa_eL), sqrt(kappa_eR),
    sqrt(gamma_eL), sqrt(gamma_eR)): the closed-form inverse of
    :func:`linsys.effective_blocks` with each column scaled by its port's
    root external coupling.  Those factors cancel out of same-species ratios
    only when the two ports share the coupling rate; :func:`isolation_db`
    follows the bare block-element convention instead.
    """
    ports = np.sqrt([params.kappa_eL, params.kappa_eR, params.gamma_eL, params.gamma_eR])
    return linsys.effective_blocks(params, omega) * ports
