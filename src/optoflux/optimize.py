"""Deterministic tuning of flux and coupling for peak isolation.

Phonon isolation diverges where the direct mechanical hop V destructively
interferes with the optically mediated bridge, i.e. where
V - Gamma_A(omega) e^{i flux} = 0.  :func:`interference_condition` solves
that condition in closed form; :func:`tune` is a derivative-free search
(coarse scan plus golden-section coordinate descent with a fixed budget)
that maximises the grid-peak isolation of any quantity over flux and,
optionally, one auxiliary coupling.  The coarse scan walks the coupling
outer and scores each coupling value's row of fluxes with one call of the
amplitude kernel's ``peak``, so that the kernel bounds each value once, and
hands it the running best at the start of the row as the floor below which
a candidate need not be scored exactly.  Each candidate of the descent is
one more call, floored by the golden section's other interior point, which
a candidate below it loses to; one more call, floored by the best score,
which it repeats, gives the result's peak and its frequency.  Both are
fully deterministic and run in the calling process.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import response, sweep
from .model import (AUX_PARAMETERS, DEFAULT_COARSE_POINTS, DEFAULT_DESCENT_SWEEPS,
                    DEFAULT_GOLDEN_ITERATIONS, SystemParams, pair, real)

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


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
    name in AUX_PARAMETERS when given, with ``aux_bounds`` in angular units;
    without one, ``aux_bounds`` must be None and the mechanical hop stays at
    the params' own value.  Each count must be at most sys.maxsize.
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
    the objective column never decreases.  ``best_aux``, and the aux of
    every trace entry, is None when no auxiliary parameter was asked for.
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


def _finite_bounds(name, bounds, minimum=None):
    lo, hi = (real(f"{name}[{i}]", bound, minimum) for i, bound in enumerate(pair(name, bounds)))
    # the span too: the coarse scan's step is (hi - lo) / (coarse_points - 1)
    if not (lo <= hi and float(hi) - float(lo) < math.inf):
        raise ValueError(f"{name} must have lo <= hi and hi - lo finite, got {(lo, hi)!r}")
    return lo, hi


def _golden_section_max(fn, lo, hi, iterations):
    """Deterministic golden-section maximiser; returns the best sampled point.

    ``fn(x, floor)`` is f(x), or any value below ``floor`` where f(x) is:
    each new point's floor is the other interior point's value (the first
    point's is -inf), which a point below it loses to and is dropped for,
    so the points visited and the result are those of f.
    """
    a, b = lo, hi
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc = fn(c, -math.inf)
    fd = fn(d, fc)
    if fc >= fd:
        best_x, best_f = c, fc
    else:
        best_x, best_f = d, fd
    for _ in range(iterations):
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = fn(c, fd)
            if fc > best_f:
                best_x, best_f = c, fc
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = fn(d, fc)
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

    The coarse scan scores each row of candidates, one coupling value over
    every flux, with one kernel call (coupling outer, flux inner).  Each row
    passes the kernel the running best at its start as the floor, so a
    candidate below it may score anything lower, and every candidate that
    holds the maximum is scored exactly; the scan's first candidate, which
    has no floor yet, is scored alone and gives one to the rest of its row.
    The objectives are put back in flux-major order before the first
    maximum is taken, so the result is that of scoring every candidate
    exactly.  Each candidate of the descent passes the golden section's
    other interior point as its floor, which a candidate below it loses to,
    so the descent too takes the steps of exact scores; the final peak
    passes the best score, which is its own.
    """
    for name, minimum in (("coarse_points", 1), ("golden_iterations", 0), ("descent_sweeps", 0)):
        count = real(name, getattr(search_space, name), minimum, integer=True)
        if count > sys.maxsize:  # past the size of any array or loop that spends it
            raise ValueError(f"{name} must be an integer <= sys.maxsize, "
                             f"got an int of {count.bit_length()} bits")
    flux_bounds = _finite_bounds("flux_bounds", search_space.flux_bounds)
    aux_name, aux_bounds = search_space.aux_name, search_space.aux_bounds
    if aux_name is None:
        if aux_bounds is not None:
            raise ValueError("aux_bounds only applicable when aux_name is set")
        # no aux is a mechanical hop collapsed to the params' own value
        aux_name, aux_bounds = "mechanical_hop", (params.mechanical_hop,) * 2
    elif aux_name not in AUX_PARAMETERS:
        raise ValueError(
            f"unknown auxiliary parameter {aux_name!r}, "
            f"expected one of {sorted(AUX_PARAMETERS)}"
        )
    elif aux_bounds is None:
        raise ValueError("aux_bounds required when aux_name is set")
    aux_bounds = _finite_bounds("aux_bounds", aux_bounds, 0.0)  # each aux is a magnitude
    box = (flux_bounds, aux_bounds)  # the coordinates, flux then aux
    if any(lo < hi for lo, hi in box) and search_space.coarse_points < 2:
        raise ValueError("coarse_points must be >= 2 for a non-collapsed search space")
    grid = search_space.frequency_grid or sweep.default_frequency_grid()
    omega = grid.values()

    peak = response.amplitude_kernel(params, omega, quantity, aux_name)

    def objective(flux, aux, floor=-math.inf):
        # the peak skips nan cells; only a spectrum that is nan everywhere gives nan
        db, _ = peak(aux, params.carried_flux(flux), floor)
        return -math.inf if math.isnan(db) else db

    def axis(lo, hi):
        if lo == hi:
            return np.array([lo])
        return np.linspace(lo, hi, search_space.coarse_points)

    # the scan walks the coupling outer: each row of fluxes, one coupling
    # value, is one kernel call, so that the value's bounds serve the whole
    # row, with the running best at the start of the row as its floor
    flux_axis, aux_axis = (axis(lo, hi) for lo, hi in box)
    fluxes = params.carried_flux(flux_axis)
    objectives = np.empty((len(aux_axis), len(flux_axis)))
    floor = -math.inf
    for aux, row in zip(aux_axis, objectives):
        first = int(floor == -math.inf)  # no floor yet: the row's first candidate sets one
        if first:
            row[0] = floor = objective(flux_axis[0], aux)
        # nan to -inf, as in objective
        np.fmax([db for db, _ in peak(aux, fluxes[first:], floor)], -math.inf, out=row[first:])
        floor = max(floor, float(row.max()))

    # the first maximum in flux-major order, where candidate (i, j) is
    # (flux_axis[i], aux_axis[j]): no objective is nan, and every candidate
    # holding the maximum was scored exactly
    objectives = objectives.T
    i, j = np.unravel_index(np.argmax(objectives), objectives.shape)
    best = [float(flux_axis[i]), float(aux_axis[j])]  # [flux, aux]
    best_obj = float(objectives[i, j])

    trace = [(tuple(best), best_obj)]
    # the open coordinates: (index in best, lo, hi, the coarse scan's step)
    coords = [(k, lo, hi, (hi - lo) / (search_space.coarse_points - 1))
              for k, (lo, hi) in enumerate(box) if lo < hi]

    # each sweep quarters the brackets, down to 0 (0.25 ** k underflows quietly)
    for sweep_index in range(search_space.descent_sweeps if coords else 0):
        for k, lo, hi, half in coords:
            width = half * 0.25 ** sweep_index
            x, fx = _golden_section_max(
                lambda v, floor: objective(*best[:k], v, *best[k + 1:], floor),
                max(lo, best[k] - width), min(hi, best[k] + width), search_space.golden_iterations)
            if fx > best_obj:
                best[k], best_obj = float(x), fx
                trace.append((tuple(best), best_obj))

    # best_obj is this point's exact score, so the pair comes back exact
    peak_db, peak_index = peak(best[1], params.carried_flux(best[0]), best_obj)
    if search_space.aux_name is None:  # no aux was asked for, so none is reported
        trace = [((flux, None), obj) for (flux, _), obj in trace]
    (best_flux, best_aux), _ = trace[-1]
    return TuneResult(
        best_flux=best_flux,
        best_aux=best_aux,
        peak_db=peak_db,
        peak_frequency=float(omega[peak_index]),
        trace=tuple(trace),
    )
