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
undamped optical resonances.  A sweep or search runs one
:func:`amplitude_kernel` over the flux and one coupling (a search, only its
``peak``), which computes the susceptibilities once per frequency grid and
rebuilds the terms only for a new value of J, G_L or G_R.
"""

from __future__ import annotations

import math
import struct
import sys
from dataclasses import replace

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


def _ratio_db(num, den):
    """Overwrite ``num`` with 20*log10(num/den) and return it; ``den`` is
    scratch and is overwritten too.

    A numerator or denominator below UNDERFLOW reports -inf or +inf (+inf
    is the perfect-isolation sentinel); both below gives nan, or 0 dB where
    they are equal.  An infinite amplitude, one that overflowed, gives nan.
    Equal amplitudes in between give exactly 0 dB through the logs.
    """
    tiny_n, tiny_d = num < UNDERFLOW, den < UNDERFLOW
    equal = tiny_n & (num == den)
    over = np.isinf(num) | np.isinf(den)
    # log10(0) and inf - inf: the sentinels rewrite those cells
    with np.errstate(divide="ignore", invalid="ignore"):
        np.log10(num, out=num)
        np.log10(den, out=den)
        np.subtract(num, den, out=num)
        np.multiply(num, 20.0, out=num)
    np.copyto(num, math.inf, where=tiny_d & ~tiny_n)
    np.copyto(num, -math.inf, where=tiny_n & ~tiny_d)
    np.copyto(num, math.nan, where=tiny_n & tiny_d)
    np.copyto(num, 0.0, where=equal)
    np.copyto(num, math.nan, where=over)
    return num


def amplitude_terms(params: SystemParams, chi, quantity: str):
    """The flux- and V-independent terms of one channel, from the
    susceptibilities ``chi`` of ``params``: ``((g, X, Y) forward,
    (g, X, Y) backward)``, X and Y broadcast like ``chi``'s fields.
    """
    J = params.optical_hop
    if quantity == PHONON:
        terms = (1.0, linsys.optical_det(chi, J), -(J * params.G_L * params.G_R))
        return terms, terms
    from_left = (params.G_L, chi.chi_aR_inv, J * params.G_R * chi.chi_bL_inv)
    from_right = (params.G_R, chi.chi_aL_inv, J * params.G_L * chi.chi_bR_inv)
    if quantity == PHOTON_TO_PHONON:
        return from_left, from_right
    return from_right, from_left


def amplitude_kernel(params: SystemParams, omega, quantity: str, coupling: str):
    """The isolation in dB of one channel at ``omega``, over the flux and the
    field of ``params`` named ``coupling``, one of AUX_PARAMETERS.

    Returns ``db(value, flux, out=None)``: the isolation with that field set
    to ``value``, written into ``out`` (a fresh array when None) and returned.
    ``db.peak(value, flux)`` is ``float(np.fmax.reduce(db(...), axis=None))``
    bit for bit, with the log taken only where that maximum can be.  For a
    1-D ``omega``, ``db.grid(value, flux, columns)`` takes a 1-D array of
    fluxes and a slice of the frequencies, and returns a new array whose row
    i is ``db(value, flux[i])[columns]`` bit for bit, computed in one
    broadcast call.  The susceptibilities and
    scratch space are made here, once; the terms are rebuilt only when the
    coupling's bits change (never for V, which enters none), and
    Y e^{-+i flux} only when the terms or the flux's bits do.
    """
    if quantity not in QUANTITIES:
        raise ValueError(f"unknown quantity {quantity!r}, expected one of {QUANTITIES}")
    chi = susceptibilities(params, omega)
    with np.errstate(over="ignore", invalid="ignore"):  # see amplitudes
        terms = amplitude_terms(params, chi, quantity)
    if coupling == "mechanical_hop":  # no term to rebuild, so no chi to keep
        chi = None
    elif quantity == PHONON:  # whose terms read only the optical fields
        chi = replace(chi, chi_bL_inv=None, chi_bR_inv=None)
    shape = np.broadcast_shapes(*(np.shape(t) for _, x, y in terms for t in (x, y)))
    hop_x, y_wf, y_wb = (np.empty(shape, complex) for _ in range(3))
    forward, backward, mask = np.empty(shape), np.empty(shape), np.empty(shape, bool)
    ratio = np.ndarray(shape, buffer=hop_x)  # peak's ratio, once hop_x is free
    built = struct.pack("d", getattr(params, coupling))  # the coupling bits of the terms
    held = None  # the flux bits of Y_f e^{-i flux} in y_wf, Y_b e^{+i flux} in y_wb

    def amplitudes(value, flux, out, back=backward, columns=None):
        """The forward amplitudes into ``out`` and the backward into ``back``;
        with ``columns``, at a column of fluxes and those frequencies."""
        nonlocal terms, built, held
        hop = value if chi is None else params.mechanical_hop
        # a product beyond the float range makes an inf or nan term or
        # amplitude, which _ratio_db turns into nan
        with np.errstate(over="ignore", invalid="ignore"):
            if chi is not None and (bits := struct.pack("d", value)) != built:
                built = terms = None  # freed before the new terms are made
                terms = amplitude_terms(replace(params, **{coupling: value}), chi, quantity)
                built, held = bits, None
            (g_f, x_f, y_f), (g_b, x_b, y_b) = terms
            if columns is None:
                bits = struct.pack("d", flux)
                if bits != held:
                    held = None
                    z = np.exp(1j * flux)
                    np.multiply(y_f, np.conj(z), out=y_wf)
                    np.multiply(y_b, z, out=y_wb)
                    held = bits
                sums, w_f, w_b = hop_x, y_wf, y_wb
            else:  # a term that is one number at every frequency is not sliced
                x_f, y_f, x_b, y_b = (t[columns] if np.ndim(t) else t for t in (x_f, y_f, x_b, y_b))
                z = np.exp(1j * flux)
                sums, w_f, w_b = np.empty(out.shape, complex), y_f * np.conj(z), y_b * z
            for g, x, y_w, amplitude in ((g_f, x_f, w_f, out), (g_b, x_b, w_b, back)):
                np.multiply(g * hop, x, out=sums)
                np.add(sums, y_w, out=sums)
                np.abs(sums, out=amplitude)

    def db(value, flux, out=None):
        if out is None:
            out = np.empty(shape)
        amplitudes(value, flux, out)
        return _ratio_db(out, backward)

    def grid(value, flux, columns):
        flux = np.reshape(flux, (-1, 1))
        out, back = (np.empty((flux.size, len(range(shape[0])[columns]))) for _ in range(2))
        amplitudes(value, flux, out, back, columns)
        return _ratio_db(out, back)

    def peak(value, flux):
        amplitudes(value, flux, forward)
        if forward.min() >= UNDERFLOW and backward.min() >= UNDERFLOW:
            with np.errstate(over="ignore", invalid="ignore"):
                np.divide(forward, backward, out=ratio)
            top = ratio.max()
            # Past the guard, _ratio_db is 20 (log10 f - log10 b) cell by cell
            # (nan where an amplitude is inf, whose ratio is inf, nan or 0), within
            # ~1e-11 dB of 20 log10 of the once-rounded ratio: each log10 is off
            # by a few ulp of at most ~310.  A cell whose ratio is below top
            # (1 - 1e-9) lies 8.7e-9 dB lower and cannot hold the maximum if top
            # is normal; a subnormal ratio can be off by half, inf or nan by all.
            if sys.float_info.min <= top < math.inf:
                keep = np.greater_equal(ratio, top * (1.0 - 1e-9), out=mask).nonzero()
                cells = 20.0 * (np.log10(forward[keep]) - np.log10(backward[keep]))
                return float(cells.max())
        return float(np.fmax.reduce(_ratio_db(forward, backward), axis=None))

    db.peak, db.grid = peak, grid
    return db


def isolation_db(params: SystemParams, omega, quantity: str = PHONON):
    """Isolation in dB for one transport/conversion channel.

    ``omega`` may be a float or an ndarray of probe frequencies; the return
    matches.
    """
    db = amplitude_kernel(params, np.asarray(omega, dtype=float), quantity, "mechanical_hop")(
        params.mechanical_hop, params.synthetic_flux)
    return float(db) if db.ndim == 0 else db

