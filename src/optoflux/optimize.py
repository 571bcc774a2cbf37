"""Deterministic tuning of flux and coupling for peak isolation.

Phonon isolation diverges where the direct mechanical hop V destructively
interferes with the optically mediated bridge, i.e. where
V - Gamma_A(omega) e^{i flux} = 0.  :func:`interference_condition` solves
that condition in closed form; :func:`tune` is a derivative-free search
(coarse scan plus golden-section coordinate descent with a fixed budget)
that maximises the grid-peak isolation of any quantity over flux and,
optionally, one auxiliary coupling.  One call of the amplitude kernel's
``peak`` scores each candidate, and one more gives the result's peak and
its frequency.  The coarse scan walks the coupling outer and the flux inner,
so that the kernel bounds each coupling value once, and hands ``peak`` its
running best as the floor below which a candidate need not be scored
exactly.  Both are fully deterministic.

A call to :func:`tune` may fork: the coarse scan of a large search is scored
by the fan-out of :mod:`optoflux.fanout`, with the same result bit for bit.
"""

from __future__ import annotations

import cmath
import math
import sys
from array import array
from dataclasses import dataclass

import numpy as np

from . import fanout, response, sweep
from .model import (AUX_PARAMETERS, DEFAULT_COARSE_POINTS, DEFAULT_DESCENT_SWEEPS,
                    DEFAULT_GOLDEN_ITERATIONS, SystemParams, real)

_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
# the fewest kernel point evaluations (one isolation value at one frequency)
# one process is given to score in a coarse scan.  On a 2-CPU x86 host a
# candidate took 27 us plus 10.6 ns per point, and forking and reaping a 45 MB
# process 3-4 ms.  A scan of 1,089 candidates over 1,001 points (1.09M) took
# 40 ms in one process and 29 ms in two, or 6 ms longer in two when the other
# CPU was busy, so each process gets at least ~10 ms of work.  Each candidate
# counts as if every cell were scored, though the kernel now scores most from
# a few cells (~50 us each on the same host)
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
    lo, hi = (real(f"{name}[{i}]", bound, minimum) for i, bound in enumerate(bounds))
    # the span too: the coarse scan's step is (hi - lo) / (coarse_points - 1)
    if not (lo <= hi and float(hi) - float(lo) < math.inf):
        raise ValueError(f"{name} must have lo <= hi and hi - lo finite, got {(lo, hi)!r}")
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

    The coarse scan's candidates are scored in contiguous ranges of scan
    order (coupling outer, flux inner), each worth at least
    MIN_POINTS_PER_PIECE kernel point evaluations, by the fan-out of
    :mod:`optoflux.fanout`.  Each range passes the kernel its running best
    as the floor, so a candidate below it may score anything lower, and
    every candidate that holds the maximum is scored exactly.  The
    objectives are joined in scan order and put back in flux-major order
    before the first maximum is taken, so the result does not depend on the
    cut.  A failed child makes this raise OSError naming its range and exit
    status.  The descent and the final peak pass no floor.
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

    # candidate k of the scan is (flux_axis[k % n], aux_axis[k // n]): each aux
    # value's kernel bounds serve its whole row of fluxes
    flux_axis, aux_axis = (axis(lo, hi) for lo, hi in box)
    n, m = len(flux_axis), len(aux_axis)
    candidates = n * m

    def scores(lo, hi):
        # a candidate that cannot beat the range's running best scores below it
        best, out = -math.inf, array("d")
        for k in range(lo, hi):
            out.append(objective(flux_axis[k % n], aux_axis[k // n], best))
            best = max(best, out[-1])
        return out

    bounds = fanout.cut(candidates, candidates * len(omega), MIN_POINTS_PER_PIECE)
    with fanout.forked(bounds, lambda lo, hi, part: part.write(scores(lo, hi)),
                       "the coarse scan of candidates") as parts:
        objectives = scores(0, bounds[1])
        for part in parts:
            objectives.frombytes(part.read())

    # back to flux-major order, where candidate i is (flux_axis[i // m],
    # aux_axis[i % m]), for the first maximum: no objective is nan, and every
    # candidate holding the maximum was scored exactly
    objectives = np.frombuffer(objectives).reshape(m, n).T.ravel()
    i = int(np.argmax(objectives))
    best = [float(flux_axis[i // m]), float(aux_axis[i % m])]  # [flux, aux]
    best_obj = float(objectives[i])

    trace = [(tuple(best), best_obj)]
    # the open coordinates: (index in best, lo, hi, the coarse scan's step)
    coords = [(k, lo, hi, (hi - lo) / (search_space.coarse_points - 1))
              for k, (lo, hi) in enumerate(box) if lo < hi]

    # each sweep quarters the brackets, down to 0 (0.25 ** k underflows quietly)
    for sweep_index in range(search_space.descent_sweeps if coords else 0):
        for k, lo, hi, half in coords:
            width = half * 0.25 ** sweep_index
            x, fx = _golden_section_max(lambda v: objective(*best[:k], v, *best[k + 1:]),
                                        max(lo, best[k] - width), min(hi, best[k] + width),
                                        search_space.golden_iterations)
            if fx > best_obj:
                best[k], best_obj = float(x), fx
                trace.append((tuple(best), best_obj))

    peak_db, peak_index = peak(best[1], params.carried_flux(best[0]))
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
