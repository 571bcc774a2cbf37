"""Deterministic tuning of flux and coupling for peak isolation.

Phonon isolation diverges where the direct mechanical hop V destructively
interferes with the optically mediated bridge, i.e. where
V - Gamma_A(omega) e^{i flux} = 0.  :func:`interference_condition` solves
that condition in closed form; :func:`tune` is a derivative-free search
(coarse scan plus golden-section coordinate descent with a fixed budget)
that maximises the grid-peak isolation of any quantity over flux and,
optionally, one auxiliary coupling, scoring each candidate with the
amplitude kernel's ``peak``.  Both are fully deterministic.

A call to :func:`tune` may fork: the coarse scan of a large search is scored
by up to one process per usable CPU (see :mod:`optoflux.fanout`), with the
same result bit for bit.
"""

from __future__ import annotations

import cmath
import math
import numbers
from array import array
from dataclasses import dataclass, replace

import numpy as np

from . import fanout, response, sweep
from .model import (AUX_PARAMETERS, DEFAULT_COARSE_POINTS, DEFAULT_DESCENT_SWEEPS,
                    DEFAULT_GOLDEN_ITERATIONS, SystemParams)

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
# the fewest kernel point evaluations (one isolation value at one frequency)
# one process is given to score in a coarse scan.  On a 2-CPU x86 host a
# candidate took 27 us plus 10.6 ns per point, and forking and reaping a 45 MB
# process 3-4 ms.  A scan of 1,089 candidates over 1,001 points (1.09M) took
# 40 ms in one process and 29 ms in two, or 6 ms longer in two when the other
# CPU was busy, so each process gets at least ~10 ms of work
MIN_POINTS_PER_PIECE = 1_000_000


@dataclass(frozen=True)
class InterferenceSolution:
    """Closed-form null of the backward phonon amplitude at one frequency.

    ``degenerate`` flags a purely real Gamma_A (arg in {0, pi}): there the
    forward amplitude nulls together with the backward one, transport stays
    reciprocal, and the returned point does not isolate.
    """

    flux: float
    mechanical_hop: float
    degenerate: bool


@dataclass(frozen=True)
class SearchSpace:
    """Bounds and budget for :func:`tune`.

    Collapsed bounds (lo == hi) pin that coordinate.  ``aux_name`` must be a
    name in AUX_PARAMETERS when given, with ``aux_bounds`` in angular units.
    """

    flux_bounds: tuple
    aux_name: str | None = None
    aux_bounds: tuple | None = None
    frequency_grid: sweep.FrequencyGrid | None = None
    coarse_points: int = DEFAULT_COARSE_POINTS
    golden_iterations: int = DEFAULT_GOLDEN_ITERATIONS
    descent_sweeps: int = DEFAULT_DESCENT_SWEEPS


@dataclass(frozen=True)
class TuneResult:
    """Best point found by :func:`tune`.

    ``trace`` records every accepted improvement as ((flux, aux), objective);
    the objective column never decreases.  ``best_aux`` is None when no
    auxiliary parameter was searched.
    """

    best_flux: float
    best_aux: float | None
    peak_db: float
    peak_frequency: float
    trace: tuple


def interference_condition(params: SystemParams, omega: float) -> InterferenceSolution:
    """Flux and mechanical hop that null the backward phonon amplitude.

    Returns flux* = -arg Gamma_A(omega) and V* = |Gamma_A(omega)| so that
    V* - Gamma_A e^{i flux*} = 0 exactly.  Raises :class:`ZeroCoupling` when
    Gamma_A vanishes (J or an enhanced coupling is zero).
    """
    gamma = response.gamma_A(params, omega)
    return InterferenceSolution(
        flux=-cmath.phase(gamma),
        mechanical_hop=abs(gamma),
        degenerate=(gamma.imag == 0.0),
    )


def _finite_bounds(name, bounds):
    lo, hi = bounds
    if not -math.inf < lo <= hi < math.inf:
        raise ValueError(f"{name} must be finite with lo <= hi, got {bounds!r}")
    return lo, hi


def _golden_section_max(fn, lo, hi, iterations):
    """Deterministic golden-section maximiser; returns the best sampled point."""
    a, b = lo, hi
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc = fn(c)
    fd = fn(d)
    if fc >= fd:
        best_x, best_f = c, fc
    else:
        best_x, best_f = d, fd
    for _ in range(iterations):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = fn(c)
            if fc > best_f:
                best_x, best_f = c, fc
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = fn(d)
            if fd > best_f:
                best_x, best_f = d, fd
    return best_x, best_f


def tune(params: SystemParams, quantity: str, search_space: SearchSpace) -> TuneResult:
    """Maximise the grid-peak isolation over flux (and one optional coupling).

    Strategy: exhaustive coarse scan over the product grid, then coordinate
    descent where each pass refines one coordinate by golden section inside
    a bracket around the incumbent.  The budget is fixed by the search space,
    every candidate is evaluated on the same frequency grid, and improvements
    are accepted only when strictly better, so the returned result and its
    trace are reproducible bit for bit.

    The coarse scan's candidates are cut into contiguous ranges in scan
    order, one per usable CPU but each worth at least MIN_POINTS_PER_PIECE
    kernel point evaluations.  This process scores the first range and
    forked children score the others (where the platform can fork;
    elsewhere one process scores them all).  The objectives are joined in
    scan order before the strictly-better reduction, so the result does not
    depend on the cut.  A failed child makes this raise OSError naming its
    range and exit status.  On Python >= 3.12, forking while numpy's BLAS
    threads exist raises a DeprecationWarning.
    """
    if quantity not in response.QUANTITIES:
        raise ValueError(f"unknown quantity {quantity!r}")
    for name, minimum in (("coarse_points", 1), ("golden_iterations", 0), ("descent_sweeps", 0)):
        value = getattr(search_space, name)
        if not (isinstance(value, numbers.Integral) and value >= minimum):
            raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")
    flux_lo, flux_hi = _finite_bounds("flux_bounds", search_space.flux_bounds)
    aux_name = search_space.aux_name
    has_aux = aux_name is not None
    if has_aux:
        if aux_name not in AUX_PARAMETERS:
            raise ValueError(
                f"unknown auxiliary parameter {aux_name!r}, "
                f"expected one of {sorted(AUX_PARAMETERS)}"
            )
        if search_space.aux_bounds is None:
            raise ValueError("aux_bounds required when aux_name is set")
        aux_lo, aux_hi = _finite_bounds("aux_bounds", search_space.aux_bounds)
        for bound in (aux_lo, aux_hi):
            try:
                replace(params, **{aux_name: bound})
            except ValueError as exc:
                raise ValueError(f"aux_bounds: {exc}") from None
    open_coords = flux_lo < flux_hi or (has_aux and aux_lo < aux_hi)
    if open_coords and search_space.coarse_points < 2:
        raise ValueError("coarse_points must be >= 2 for a non-collapsed search space")
    grid = search_space.frequency_grid or sweep.default_frequency_grid()
    omega = grid.values()

    # the amplitude terms depend on neither the flux nor V, so one kernel
    # serves every candidate unless the searched coupling enters the terms
    shared = (response.amplitude_kernel(response.amplitude_terms(params, omega, quantity))
              if aux_name in (None, "mechanical_hop") else None)

    def kernel(aux):
        if shared is not None:
            return shared
        return response.amplitude_kernel(
            response.amplitude_terms(replace(params, **{aux_name: aux}), omega, quantity))

    def point(flux, aux):
        hop = aux if aux_name == "mechanical_hop" else params.mechanical_hop
        return hop, params.carried_flux(flux)

    def objective(flux, aux):
        # the peak skips nan cells; only a spectrum that is nan everywhere gives nan
        peak = kernel(aux).peak(*point(flux, aux))
        return -math.inf if math.isnan(peak) else peak

    def axis(lo, hi):
        if lo == hi:
            return np.array([lo])
        return np.linspace(lo, hi, search_space.coarse_points)

    flux_axis = axis(flux_lo, flux_hi)
    if has_aux:
        aux_axis = axis(aux_lo, aux_hi)
    else:
        aux_axis = np.array([math.nan])  # placeholder, never applied

    def record(flux, aux, obj):
        return ((flux, aux if has_aux else None), obj)

    # candidate i of the scan is (flux_axis[i // m], aux_axis[i % m])
    m = len(aux_axis)
    candidates = len(flux_axis) * m

    def scores(lo, hi):
        return array("d", (objective(flux_axis[i // m], aux_axis[i % m]) for i in range(lo, hi)))

    bounds = fanout.cut(candidates, candidates * len(omega), MIN_POINTS_PER_PIECE)
    with fanout.forked(bounds, lambda lo, hi, part: part.write(scores(lo, hi)),
                       "the coarse scan of candidates") as parts:
        objectives = scores(0, bounds[1])
        for part in parts:
            objectives.frombytes(part.read())

    best_flux = best_aux = None
    best_obj = -math.inf
    for i, obj in enumerate(objectives):
        if best_flux is None or obj > best_obj:
            best_flux, best_aux, best_obj = float(flux_axis[i // m]), float(aux_axis[i % m]), obj
    trace = [record(best_flux, best_aux, best_obj)]

    coords = []
    if flux_lo < flux_hi:
        half = (flux_hi - flux_lo) / (search_space.coarse_points - 1)
        coords.append(("flux", flux_lo, flux_hi, half))
    if has_aux and aux_lo < aux_hi:
        half = (aux_hi - aux_lo) / (search_space.coarse_points - 1)
        coords.append(("aux", aux_lo, aux_hi, half))

    # each sweep quarters the brackets, down to 0 (0.25 ** k underflows quietly)
    for sweep_index in range(search_space.descent_sweeps if coords else 0):
        for name, lo, hi, half in coords:
            width = half * 0.25 ** sweep_index
            if name == "flux":
                bracket = (max(lo, best_flux - width), min(hi, best_flux + width))
                fn = lambda x: objective(x, best_aux)
            else:
                bracket = (max(lo, best_aux - width), min(hi, best_aux + width))
                fn = lambda x: objective(best_flux, x)
            x, fx = _golden_section_max(fn, bracket[0], bracket[1],
                                        search_space.golden_iterations)
            if fx > best_obj:
                if name == "flux":
                    best_flux = float(x)
                else:
                    best_aux = float(x)
                best_obj = fx
                trace.append(record(best_flux, best_aux, best_obj))

    final = kernel(best_aux)(*point(best_flux, best_aux))
    masked = np.where(np.isnan(final), -math.inf, final)
    peak_index = int(np.argmax(masked))
    return TuneResult(
        best_flux=best_flux,
        best_aux=best_aux if has_aux else None,
        peak_db=float(final[peak_index]),
        peak_frequency=float(omega[peak_index]),
        trace=tuple(trace),
    )
