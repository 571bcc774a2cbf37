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
By the triangle inequality, without the flux, the forward amplitude is at
most |g V||X_f| + |Y_f| and the backward one at least ||g V||X_b| - |Y_b||:
the kernel computes the amplitudes only at the cells where these bounds let
the ratio reach a floor the caller gives: the scan's running best, or the
descent's other interior point.  A row of fluxes at one coupling value, as a
scan makes them, shares one set of such cells, whose amplitudes are one
broadcast per block of its fluxes.
"""

from __future__ import annotations

import math
import struct
import sys
from dataclasses import replace

import numpy as np

from .errors import ZeroCoupling
# the channel names stay importable from here
from .model import (PHONON, PHONON_TO_PHOTON, PHOTON_TO_PHONON,  # noqa: F401
                    QUANTITIES, SystemParams, checked_optical_det, optical_det, real,
                    susceptibilities)

#: amplitudes below this count as an exact null (perfect isolation sentinel)
UNDERFLOW = 1e-300
# the relative slack of the search kernel's flux-free bounds, 64 ulp of 1.0;
# see amplitude_kernel
_SLACK = 64 * sys.float_info.epsilon


def gamma_A(params: SystemParams, omega: float) -> complex:
    """Optically mediated mechanical coupling Gamma_A = J G_L G_R / det_A.

    Raises :class:`ZeroCoupling` when the bridge J G_L G_R vanishes and
    :class:`DegenerateBlock` when det_A does or leaves the float range.
    """
    bridge = params.optical_hop * params.G_L * params.G_R
    if bridge == 0.0:
        raise ZeroCoupling("Gamma_A = 0: no optical bridge to interfere with")
    chi = susceptibilities(params, real("omega", omega))
    return complex(bridge / checked_optical_det(chi, params.optical_hop))


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
            terms = (1.0, optical_det(chi, J), -(J * params.G_L * params.G_R))
            return terms, terms
        from_left = (params.G_L, chi.chi_aR_inv, J * params.G_R * chi.chi_bL_inv)
        from_right = (params.G_R, chi.chi_aL_inv, J * params.G_L * chi.chi_bR_inv)
    if quantity == PHOTON_TO_PHONON:
        return from_left, from_right
    return from_right, from_left


def _amplitudes(terms, hop, flux, cells=slice(None)):
    """The forward and backward amplitudes of the ``terms`` of
    :func:`amplitude_terms` at ``hop`` and ``flux``, new arrays broadcast
    together, at the frequencies ``cells`` (a slice or an index array) of 1-D
    terms; a term that is one number at every frequency is not sliced."""
    z = np.exp(1j * flux)
    with np.errstate(over="ignore", invalid="ignore"):  # see amplitude_terms
        sums = []
        for (g, x, y), w in zip(terms, (np.conj(z), z)):
            x, y = (t[cells] if np.ndim(t) else t for t in (x, y))
            sums.append(np.add(np.multiply(g * hop, x), np.multiply(y, w)))
        shape = np.broadcast_shapes(*map(np.shape, sums))
        return [np.abs(s, out=np.empty(shape)) for s in sums]


def amplitude_db(terms, hop, flux, columns=slice(None)):
    """The isolation in dB from the ``terms`` of :func:`amplitude_terms`, at
    mechanical hop ``hop`` and ``flux``, as a new array (0-d for scalar
    terms).  A column of fluxes broadcasts against the frequencies
    ``columns`` of 1-D terms; a term that is one number at every frequency
    is not sliced.
    """
    return _ratio_db(*_amplitudes(terms, hop, flux, columns))


def _peak_of(forward, backward, level=0.0):
    """``(db, i)``: the peak isolation of the cells whose amplitudes are
    ``forward`` and ``backward``, and the first cell holding it; ``(-inf,
    0)`` when every ratio lies below ``level (1 - 2e-9)``; None where only
    :func:`_ratio_db`'s sentinels can tell.  For 2-D amplitudes, each row
    (the last axis) is scored so, into two arrays of a pair per row, and
    None is for some row.

    Past the guards, _ratio_db is 20 (log10 f - log10 b) cell by cell, within
    ~1e-11 dB of 20 log10 of the once-rounded ratio: each log10 is off by a
    few ulp of at most ~310.  A cell whose ratio is below its row's top (1 -
    1e-9) lies 8.7e-9 dB lower and cannot hold the row's maximum if top is
    normal; a subnormal ratio can be off by half, inf or nan by all.
    """
    if not (forward.min(initial=math.inf) >= UNDERFLOW
            and backward.min(initial=math.inf) >= UNDERFLOW):  # nan fails too
        return None
    with np.errstate(over="ignore", invalid="ignore"):  # inf / inf is nan, caught below
        ratio = forward / backward
    if ratio.ndim == 1:  # one row, in scalar steps
        top = ratio.max(initial=0.0)
        if top < level * (1.0 - 2e-9):
            return -math.inf, 0
        if not sys.float_info.min <= top < math.inf:
            return None
        keep = np.flatnonzero(ratio >= top * (1.0 - 1e-9))
        cells = 20.0 * (np.log10(forward[keep]) - np.log10(backward[keep]))
        i = int(cells.argmax())
        return float(cells[i]), int(keep[i])
    top = ratio.max(axis=-1, initial=0.0)
    low = top < level * (1.0 - 2e-9)
    if low.all():
        return np.full(low.shape, -math.inf), np.zeros(low.shape, int)
    if not (low | (sys.float_info.min <= top) & (top < math.inf)).all():
        return None
    keep = np.flatnonzero(ratio >= np.where(low, math.inf, top * (1.0 - 1e-9))[..., None])
    cells = 20.0 * (np.log10(forward.take(keep)) - np.log10(backward.take(keep)))
    ratio.fill(-math.inf)  # now the rows' dB, finite only on the shortlist
    ratio.put(keep, cells)
    return ratio.max(axis=-1), ratio.argmax(axis=-1)


def _bounds(terms, sizes, span, q, fub, blb, mask):
    """Write into ``q``, per cell, an upper bound of the forward amplitude
    over a lower bound of the backward one, each holding at every mechanical
    hop V of ``span`` = (lo, hi), a lone V being (V, V) (+inf where the lower
    bound is 0 or less or nan; nan where both bounds are 0, which makes the
    least forward bound 0), from the magnitudes ``sizes`` = (|X_f|, |Y_f|,
    |X_b|, |Y_b|) of ``terms``; return the least forward bound, or None
    where g V is not finite.  ``fub``, ``blb`` and ``mask`` end as the
    forward bound, the backward one and scratch.  See amplitude_kernel for
    the rounding."""
    (g_f, _, _), (g_b, _, _) = terms
    lo, hi = span
    gv_f, gv_lo, gv_hi = abs(g_f * hi), abs(g_b * lo), abs(g_b * hi)
    if not math.isfinite(gv_f + gv_lo + gv_hi):
        return None
    x_f, y_f, x_b, y_b = sizes
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        # ||gV||X_b| - |Y_b||, lowered, at lo into blb, its sign in mask
        np.multiply(x_b, gv_lo, out=q)
        np.subtract(q, y_b, out=blb)
        np.less(blb, 0.0, out=mask)
        np.abs(blb, out=blb)
        np.add(q, y_b, out=q)
        np.multiply(q, _SLACK, out=q)
        np.subtract(blb, q, out=blb)  # nan for inf - inf
        # and at hi into q, its slack in fub: 0 where the sign changes.  A
        # lone V's bound there is the one at lo, bit for bit, so it skips it
        if lo != hi:
            np.multiply(x_b, gv_hi, out=q)
            np.add(q, y_b, out=fub)
            np.multiply(fub, _SLACK, out=fub)
            np.subtract(q, y_b, out=q)
            np.minimum(q, 0.0, out=q, where=mask)
            np.abs(q, out=q)
            np.subtract(q, fub, out=q)
            np.minimum(blb, q, out=blb)  # the lesser end, nan kept
        np.fmax(blb, 0.0, out=blb)
        np.multiply(x_f, gv_f, out=fub)
        np.add(fub, y_f, out=fub)
        np.multiply(fub, 1.0 + _SLACK, out=fub)  # |gV||X_f| + |Y_f| at hi, raised
        np.divide(fub, blb, out=q)
    return float(fub.min())


def amplitude_kernel(params: SystemParams, omega, quantity: str, coupling: str):
    """The search's kernel over a 1-D ``omega``: ``peak(value, flux,
    floor=-inf, span=None)`` is ``(db, index)``, the peak isolation of one
    channel with the field of ``params`` named ``coupling`` (one of
    AUX_PARAMETERS) set to ``value``, and the first frequency holding it (0
    where every cell is nan); for a 1-D array of fluxes, a row of a scan, it
    is a list of those pairs, one per flux.

    Whenever that peak is at least ``floor``, the pair is, bit for bit,
    ``np.fmax.reduce`` and the nan-masked ``np.argmax`` of
    :func:`amplitude_db` at that point; otherwise (a peak below ``floor``, or
    nan) it is that pair or one whose ``db`` is below ``floor``, (-inf, 0).
    Flux-free bounds rule out every cell whose ratio cannot reach the floor;
    the amplitudes are computed only at the others (the survivors), and the
    log only where the maximum can be.  A row finds its survivors once and
    computes their amplitudes one broadcast per block of its fluxes; a row
    the bounds cannot serve is scored one full pass per flux, without trying
    them again.  Without a floor, or where the bounds cannot tell, every
    cell is scored, by the :func:`_amplitudes` that :func:`amplitude_db`
    reads.  The susceptibilities and the bounds' scratch space are made
    here, once; the terms are rebuilt only when the coupling's bits change
    (never for V, which enters none), and their magnitudes and bounds at a
    row or at a floored call that repeats the value (at a new V's first
    while the last try of the bounds paid, or whose span's bounds are kept).

    ``span``, a pair ``0 <= lo <= value <= hi`` such as a golden section's
    bracket, lets a kernel over the mechanical hop make one set of bounds
    that holds at every V from lo to hi, kept under the span's bits, so
    that the calls of one bracket share it: the forward bound is the one at
    hi, which every rounded step of it makes the largest; the backward one
    is the lesser of the two ends' bounds, 0 where |gV||X_b| - |Y_b|
    changes sign between them.  A span that is None or holds no such pair,
    and any span of a kernel over another coupling, is ``(value, value)``.
    The pruning argument beside ``pruned`` shows why the pair's bits do not
    depend on the span.
    """
    chi = susceptibilities(params, omega)
    terms = amplitude_terms(params, chi, quantity)
    if coupling == "mechanical_hop":  # no term to rebuild, so no chi to keep
        chi = None
    elif quantity == PHONON:  # whose terms read only the optical fields
        chi = replace(chi, chi_bL_inv=None, chi_bR_inv=None)
    shape = np.broadcast_shapes(*(np.shape(t) for _, x, y in terms for t in (x, y)))
    fub, blb, mask = np.empty(shape), np.empty(shape), np.empty(shape, bool)
    built = struct.pack("d", getattr(params, coupling))  # the coupling bits of the last call
    sizes = None  # |X_f|, |Y_f|, |X_b|, |Y_b| of the terms, () if one is not finite
    q = np.empty(shape)  # _bounds at the coupling value
    bounded = None  # (the span's bits, the least forward bound) of q
    pruning = False  # whether the last try of the bounds paid

    # Why a pruned peak has the full pass's bits.  With u = 2^-53, peak makes
    # an amplitude as |fl(fl(gV X) + fl(Y w))|, w = e^{-+i flux} as rounded
    # (|w| within 4u of 1): gV X rounds each component once, the complex
    # product Y w is within sqrt(2) 2u |Y||w| (Higham, Accuracy and Stability
    # of Numerical Algorithms, 2nd ed., SIAM 2002, sec. 3.6), the add within
    # u of the sum of magnitudes and abs within 2u.  So a forward amplitude
    # is at most (|gV||X_f| + |Y_f|)(1 + 10u) and a backward one at least
    # ||gV||X_b| - |Y_b|| - 12u (|gV||X_b| + |Y_b|).  The magnitudes (2u
    # each) and the bounds' own operations add a few u, ~20u in all, and
    # _SLACK is 128u: fub >= forward and blb <= backward.  Underflow adds at
    # most ~1e-322 to an amplitude, inside the slack wherever the amplitude
    # or the bound is above UNDERFLOW; an amplitude below it reads -inf
    # (forward) or +inf (backward), and the second cannot be pruned (below).
    # The survivors' amplitudes come from _amplitudes on gathered cells,
    # broadcast against a column of a row's fluxes, which gives each cell the
    # bits the full pass gives it at each flux.
    #   The level L is 10^(floor / 20) (1 - 1e-9): a cell whose dB reaches
    # the floor has a ratio above L, as its dB is within ~1e-11 dB of 20
    # log10 of its ratio.  A pruned cell, fl(fub / blb) < fl(L (1 - 4e-9)),
    # has a ratio below L (1 - 4e-9 + 3u) at every flux and, as min(fub) / L
    # >= UNDERFLOW, a backward amplitude above UNDERFLOW: its dB is not +inf,
    # nor nan unless the backward amplitude is inf.  _peak_of sees every
    # survivor at least UNDERFLOW and a normal top ratio in each flux's row
    # that reaches L (1 - 2e-9), or peak scores each flux with the full pass.
    # If a row's top >= L (1 - 2e-9), every pruned ratio is below top (1 -
    # 1e-9), outside the full pass's shortlist, so the full pass, in either
    # branch, gives these bits.  Otherwise no ratio of the row reaches L (1 -
    # 2e-9) and its peak is below the floor.  A non-finite magnitude or g V,
    # or a quarter of the cells surviving, also sends peak to the full pass.
    #   A span's bounds hold at each V of it, so all of the above holds at
    # each V.  Over 0 <= lo <= V <= hi, fl(|gV|) and fl(fl(|gV|)|X|) rise
    # with V, and so does every rounded step of fub: fub at hi is at least
    # fub at V.  The sign of gV|X_b| - |Y_b| is that of its rounded
    # difference, and can change only once over the span, from - to +; where
    # it does, blb is 0, the least it is at any V.  Where it is -, blb at V
    # is a rounded term falling with V less a rounded one rising, so it
    # falls and is least at hi.  Where it is +, both rounded terms rise, and
    # the rounding of the two can break blb's rise only by a few u of the
    # terms, inside _SLACK's margin (128u allowed against ~20u used): the
    # value at lo is below the backward amplitude at every V of the span.
    # So the lesser of the two ends' blb bounds every backward amplitude of
    # the span, and its survivors hold those of each V in it.
    @np.errstate(over="ignore", invalid="ignore", divide="ignore")
    def pruned(key, span, hop, flux, floor):
        # [(db, index)], a pair per flux of a row or one for a scalar flux,
        # or None where the bounds cannot serve
        nonlocal sizes, bounded
        level = 10.0 ** (min(floor, 6000.0) / 20.0) if floor >= -6000.0 else 0.0  # nan too
        level *= 1.0 - 1e-9
        if not level >= UNDERFLOW:
            return None
        if sizes is None:
            sizes = [np.abs(t) for _, x, y in terms for t in (x, y)]
            if not all(np.isfinite(s).all() for s in sizes):
                sizes = ()
        if not sizes:
            return None
        if bounded is None or bounded[0] != key:
            bounded = None  # q is rewritten
            bounded = key, _bounds(terms, sizes, span, q, fub, blb, mask)
        least = bounded[1]
        if least is None:
            return None
        fluxes = np.ravel(flux)
        cells = np.flatnonzero(np.greater_equal(q, level * (1.0 - 4e-9), out=mask))
        if not fluxes.size or 4 * cells.size > mask.size or least / level < UNDERFLOW:
            return None
        # a block of fluxes by survivors holds about an eighth of the grid's
        # cells, so that its temporaries (~48 bytes a cell) take no more
        # memory than a float array over the grid.  One flux stays a scalar:
        # numpy multiplies a 1 x 1 block of complex numbers with its loop for
        # two contiguous operands, whose bits can differ from those of the
        # full pass's loop for an array by a scalar
        step = max(1, mask.size // max(8 * cells.size, 1))
        pairs = []
        for lo in range(0, fluxes.size, step):
            block = fluxes[lo:lo + step]
            found = _peak_of(*_amplitudes(terms, hop, block[:, None] if block.size > 1
                                          else block[0], cells), level)
            if found is None:
                return None
            pairs += zip(*(a.tolist() for a in found)) if block.size > 1 else [found]
        return [(db, int(cells[i]) if db > -math.inf else 0) for db, i in pairs]

    def peak(value, flux, floor=-math.inf, span=None):
        nonlocal terms, built, sizes, bounded, pruning
        hop = value if chi is None else params.mechanical_hop
        bits = struct.pack("d", value)
        again = bits == built
        if chi is not None and not again:
            built = terms = sizes = bounded = None  # freed before the new terms are made
            terms = amplitude_terms(replace(params, **{coupling: value}), chi, quantity)
        built = bits
        if not (chi is None and span is not None and 0.0 <= span[0] <= value <= span[1]):
            span = hop, hop
        key = struct.pack("dd", *span)  # new terms drop their bounds, so it tells V's apart
        # a row tries the bounds at once, as they pay over its fluxes; a lone
        # flux only with a floor, and new terms at their second call, where
        # their magnitudes tend to pay, or a new V while the last try paid or
        # its span's bounds are kept (a V's bounds cost about a fifth of a
        # full pass, a span's a third, once for all of its V)
        row = np.ndim(flux) > 0
        kept = bounded is not None and bounded[0] == key
        if row or floor > -math.inf and (again or chi is None and (pruning or kept)):
            found = pruned(key, span, hop, flux, floor)
            pruning = found is not None
            if pruning:
                return found if row else found[0]
            if row:
                return [peak(value, f) for f in flux]  # no floor: the bounds failed at it
        forward, backward = _amplitudes(terms, hop, flux)
        found = _peak_of(forward, backward)
        if found is None:
            cells = _ratio_db(forward, backward)
            top = float(np.fmax.reduce(cells, axis=None))
            np.copyto(cells, -math.inf, where=np.isnan(cells))
            found = top, int(cells.argmax())
        return found

    return peak


def isolation_db(params: SystemParams, omega, quantity: str = PHONON):
    """Isolation in dB for one transport/conversion channel.

    ``omega`` may be a float or an ndarray of probe frequencies; the return
    matches.
    """
    db = amplitude_db(amplitude_terms(params, susceptibilities(params, omega), quantity),
                      params.mechanical_hop, params.synthetic_flux)
    return float(db) if db.ndim == 0 else db

