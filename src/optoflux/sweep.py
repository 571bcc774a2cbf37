"""Spectra and flux-frequency maps of the isolation quantities.

Reproduces the data products behind the standard figures: 1D isolation
spectra at fixed synthetic flux and 2D maps over (flux, frequency), whose
rows are computed when they are read.  The default grids resolve the
MHz-wide interference features the reference mechanical linewidths produce
inside the 5.6-6.1 GHz band.
"""

from __future__ import annotations

import copy
import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from . import response
from .model import (DEFAULT_FLUX_POINTS, DEFAULT_FREQ_POINTS, DEFAULT_FREQ_START_HZ,
                    DEFAULT_FREQ_STOP_HZ, TWO_PI, SystemParams, real)


@dataclass(frozen=True)
class FrequencyGrid:
    """Uniform probe-frequency grid in angular units."""

    start: float
    stop: float
    points: int

    def __post_init__(self):
        object.__setattr__(self, "start", real("start", self.start))
        object.__setattr__(self, "stop", real("stop", self.stop))
        points = real("points", self.points, 2, integer=True)
        if points > sys.maxsize:  # past the size of any numpy array
            raise ValueError("points must be an integer <= sys.maxsize, "
                             f"got an int of {points.bit_length()} bits")
        object.__setattr__(self, "points", points)
        # the span too: linspace's step is (stop - start) / (points - 1)
        if not (self.start < self.stop and float(self.stop) - float(self.start) < math.inf):
            raise ValueError(f"start {self.start!r} must be < stop {self.stop!r} by a finite span")

    @classmethod
    def from_hz(cls, start_hz: float, stop_hz: float, points: int) -> "FrequencyGrid":
        return cls(TWO_PI * real("start_hz", start_hz), TWO_PI * real("stop_hz", stop_hz), points)

    def values(self) -> np.ndarray:
        return np.linspace(self.start, self.stop, self.points)


def default_frequency_grid() -> FrequencyGrid:
    return FrequencyGrid.from_hz(DEFAULT_FREQ_START_HZ, DEFAULT_FREQ_STOP_HZ, DEFAULT_FREQ_POINTS)


def default_flux_grid() -> np.ndarray:
    """Flux axis from -2*pi to 2*pi (radians)."""
    return np.linspace(-2.0 * math.pi, 2.0 * math.pi, DEFAULT_FLUX_POINTS)


def spectrum(params: SystemParams, quantity: str, grid: FrequencyGrid) -> np.ndarray:
    """Isolation in dB at every grid frequency, in grid order.

    Undefined points surface as non-finite sentinel values (inf for a perfect
    null, nan for degenerate input) instead of aborting the sweep.
    """
    return response.isolation_db(params, grid.values(), quantity)


class FluxMap:
    """2D isolation map of one quantity: ``values[i, j]`` at (``flux_axis[i]``,
    frequency j), computed when it is read.

    Making it checks the axes and builds and holds the flux-independent
    amplitude terms, so that a bad axis or scenario fails there.  It reads
    as the read-only array ``values`` does, each read a new array: ``fm[i]``
    and ``fm[lo:hi]`` are flux rows, one ``response.amplitude_db`` call
    each, and ``fm.T[lo:hi]`` are rows of the transpose, frequencies lo:hi
    at every flux in one broadcast call, with the same bits.  ``values``
    itself is ``fm[:]``, read on first use and then kept.
    """

    ndim = 2

    def __init__(self, params: SystemParams, quantity: str, flux_grid, freq_grid: FrequencyGrid):
        flux_axis = np.array(real("flux_grid", flux_grid, array=True))
        if flux_axis.ndim != 1 or flux_axis.size < 1:
            raise ValueError("flux_grid must be a non-empty 1D array of radians")
        flux_axis.setflags(write=False)
        self.flux_axis, self.freq_axis, self.quantity = flux_axis, freq_grid, quantity
        self.shape = (flux_axis.size, freq_grid.points)
        self.size = flux_axis.size * freq_grid.points
        self._transposed = False
        self._hop, self._flux = params.mechanical_hop, params.carried_flux(flux_axis)
        # response's susceptibilities, the name bench/shim.py times
        self._terms = response.amplitude_terms(
            params, response.susceptibilities(params, freq_grid.values()), quantity)

    @functools.cached_property
    def values(self) -> np.ndarray:
        values = self[:]
        values.setflags(write=False)
        return values

    @property
    def T(self) -> "FluxMap":
        view = copy.copy(self)
        view.__dict__.pop("values", None)  # the kept values are this map's, untransposed
        view.shape, view._transposed = self.shape[::-1], not self._transposed
        return view

    def __len__(self):
        return self.shape[0]

    def __getitem__(self, key):
        """Row ``key`` (an int) or the rows of the slice ``key``."""
        rows = range(len(self))[key]
        if isinstance(rows, int):
            return self[rows:rows + 1][0]
        if self._transposed:
            return response.amplitude_db(self._terms, self._hop, self._flux[:, None], key).T
        values = np.empty((len(rows), self.shape[1]))
        for row, i in zip(values, rows):
            row[:] = response.amplitude_db(self._terms, self._hop, self._flux[i])
        return values


def flux_map(params: SystemParams, quantity: str, flux_grid, freq_grid: FrequencyGrid) -> FluxMap:
    """One quantity over a full (flux, frequency) product grid, as a
    :class:`FluxMap`: checked and set up here, computed when read."""
    return FluxMap(params, quantity, flux_grid, freq_grid)
