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
undamped optical resonances.  A spectrum or map reads the stateless
:func:`amplitude_db` of terms it builds once.  A search scores its candidates
through one :func:`amplitude_kernel`, which computes the susceptibilities
once per frequency grid and rebuilds the terms only for a new J, G_L or G_R.
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
                    QUANTITIES, SystemParams, real, susceptibilities)

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
    chi = susceptibilities(params, real("omega", omega))
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
    if quantity not in QUANTITIES:
        raise ValueError(f"unknown quantity {quantity!r}, expected one of {QUANTITIES}")
    J = params.optical_hop
    # a product beyond the float range makes an inf or nan term or
    # amplitude, which _ratio_db turns into nan
    with np.errstate(over="ignore", invalid="ignore"):
        if quantity == PHONON:
            terms = (1.0, linsys.optical_det(chi, J), -(J * params.G_L * params.G_R))
            return terms, terms
        from_left = (params.G_L, chi.chi_aR_inv, J * params.G_R * chi.chi_bL_inv)
        from_right = (params.G_R, chi.chi_aL_inv, J * params.G_L * chi.chi_bR_inv)
    if quantity == PHOTON_TO_PHONON:
        return from_left, from_right
    return from_right, from_left


def amplitude_db(terms, hop, flux, columns=slice(None)):
    """The isolation in dB from the ``terms`` of :func:`amplitude_terms`, at
    mechanical hop ``hop`` and ``flux``, as a new array (0-d for scalar
    terms).  A column of fluxes broadcasts against the frequencies
    ``columns`` of 1-D terms; a term that is one number at every frequency
    is not sliced.
    """
    z = np.exp(1j * flux)
    with np.errstate(over="ignore", invalid="ignore"):  # see amplitude_terms
        sums = []
        for (g, x, y), w in zip(terms, (np.conj(z), z)):
            x, y = (t[columns] if np.ndim(t) else t for t in (x, y))
            sums.append(np.add(np.multiply(g * hop, x), np.multiply(y, w)))
        shape = np.broadcast_shapes(*map(np.shape, sums))
        amplitudes = [np.abs(s, out=np.empty(shape)) for s in sums]
    return _ratio_db(*amplitudes)


def amplitude_kernel(params: SystemParams, omega, quantity: str, coupling: str):
    """The search's kernel over a 1-D ``omega``: ``peak(value, flux)`` is
    ``(db, index)``, the peak isolation of one channel with the field of
    ``params`` named ``coupling`` (one of AUX_PARAMETERS) set to ``value``,
    and the first frequency holding it (0 where every cell is nan).

    The pair is, bit for bit, ``np.fmax.reduce`` and the nan-masked
    ``np.argmax`` of :func:`amplitude_db` at that point, with the log taken
    only where that maximum can be.  The susceptibilities and scratch space
    are made here, once; the terms are rebuilt only when the coupling's bits
    change (never for V, which enters none), and Y e^{-+i flux} only when the
    terms or the flux's bits do.
    """
    chi = susceptibilities(params, omega)
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

    def peak(value, flux):
        nonlocal terms, built, held
        hop = value if chi is None else params.mechanical_hop
        if chi is not None and (bits := struct.pack("d", value)) != built:
            built = terms = None  # freed before the new terms are made
            terms = amplitude_terms(replace(params, **{coupling: value}), chi, quantity)
            built, held = bits, None
        (g_f, x_f, y_f), (g_b, x_b, y_b) = terms
        with np.errstate(over="ignore", invalid="ignore"):  # see amplitude_terms
            if (bits := struct.pack("d", flux)) != held:
                held = None
                z = np.exp(1j * flux)
                np.multiply(y_f, np.conj(z), out=y_wf)
                np.multiply(y_b, z, out=y_wb)
                held = bits
            for g, x, y_w, amplitude in ((g_f, x_f, y_wf, forward), (g_b, x_b, y_wb, backward)):
                np.multiply(g * hop, x, out=hop_x)
                np.add(hop_x, y_w, out=hop_x)
                np.abs(hop_x, out=amplitude)
            if forward.min() >= UNDERFLOW and backward.min() >= UNDERFLOW:
                np.divide(forward, backward, out=ratio)
                top = ratio.max()
                # Past the guard, _ratio_db is 20 (log10 f - log10 b) cell by cell
                # (nan where an amplitude is inf, whose ratio is inf, nan or 0), within
                # ~1e-11 dB of 20 log10 of the once-rounded ratio: each log10 is off
                # by a few ulp of at most ~310.  A cell whose ratio is below top
                # (1 - 1e-9) lies 8.7e-9 dB lower and cannot hold the maximum if top
                # is normal; a subnormal ratio can be off by half, inf or nan by all.
                if sys.float_info.min <= top < math.inf:
                    keep = np.flatnonzero(np.greater_equal(ratio, top * (1.0 - 1e-9), out=mask))
                    cells = 20.0 * (np.log10(forward[keep]) - np.log10(backward[keep]))
                    i = int(cells.argmax())
                    return float(cells[i]), int(keep[i])
        cells = _ratio_db(forward, backward)
        top = float(np.fmax.reduce(cells, axis=None))
        np.copyto(cells, -math.inf, where=np.isnan(cells, out=mask))
        return top, int(cells.argmax())

    return peak


def isolation_db(params: SystemParams, omega, quantity: str = PHONON):
    """Isolation in dB for one transport/conversion channel.

    ``omega`` may be a float or an ndarray of probe frequencies; the return
    matches.
    """
    db = amplitude_db(amplitude_terms(params, susceptibilities(params, omega), quantity),
                      params.mechanical_hop, params.synthetic_flux)
    return float(db) if db.ndim == 0 else db

