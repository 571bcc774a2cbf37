"""Spectra and flux-frequency maps of the isolation quantities.

Reproduces the data products behind the standard figures: 1D isolation
spectra at fixed synthetic flux and 2D maps over (flux, frequency).  The
default grids resolve the MHz-wide interference features the reference
mechanical linewidths produce inside the 5.6-6.1 GHz band.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from . import response
from .model import (DEFAULT_FLUX_POINTS, DEFAULT_FREQ_POINTS, DEFAULT_FREQ_START_HZ,
                    DEFAULT_FREQ_STOP_HZ, TWO_PI, SystemParams)


@dataclass(frozen=True)
class FrequencyGrid:
    """Uniform probe-frequency grid in angular units."""

    start: float
    stop: float
    points: int

    def __post_init__(self):
        try:
            operator.index(self.points)
        except TypeError:
            raise ValueError(f"grid points must be an integer, got {self.points!r}") from None
        if not -math.inf < self.start < self.stop < math.inf:
            raise ValueError(f"grid start {self.start!r} must be < stop {self.stop!r}, both finite")
        if self.points < 2:
            raise ValueError(f"grid needs at least 2 points, got {self.points}")

    @classmethod
    def from_hz(cls, start_hz: float, stop_hz: float, points: int) -> "FrequencyGrid":
        return cls(start=TWO_PI * start_hz, stop=TWO_PI * stop_hz, points=points)

    def values(self) -> np.ndarray:
        return np.linspace(self.start, self.stop, self.points)


def default_frequency_grid() -> FrequencyGrid:
    return FrequencyGrid.from_hz(DEFAULT_FREQ_START_HZ, DEFAULT_FREQ_STOP_HZ, DEFAULT_FREQ_POINTS)


def default_flux_grid() -> np.ndarray:
    """Flux axis from -2*pi to 2*pi (radians)."""
    return np.linspace(-2.0 * math.pi, 2.0 * math.pi, DEFAULT_FLUX_POINTS)


@dataclass(frozen=True, eq=False)
class FluxMap:
    """2D isolation map: values[i, j] at (flux_axis[i], frequency j)."""

    flux_axis: np.ndarray
    freq_axis: FrequencyGrid
    values: np.ndarray
    quantity: str


def spectrum(params: SystemParams, quantity: str, grid: FrequencyGrid) -> np.ndarray:
    """Isolation in dB at every grid frequency, in grid order.

    Undefined points surface as non-finite sentinel values (inf for a perfect
    null, nan for degenerate input) instead of aborting the sweep.
    """
    return response.isolation_db(params, grid.values(), quantity)


def flux_map(params: SystemParams, quantity: str, flux_grid, freq_grid: FrequencyGrid) -> FluxMap:
    """Evaluate one quantity over a full (flux, frequency) product grid.

    The flux-independent amplitude terms are built once; each row then
    costs one kernel evaluation, written straight into the map.
    """
    flux_axis = np.asarray(flux_grid, dtype=float)
    if flux_axis.ndim != 1 or flux_axis.size < 1:
        raise ValueError("flux grid must be a non-empty 1D array of radians")
    if not np.all(np.isfinite(flux_axis)):
        raise ValueError("flux grid values must be finite")
    omega = freq_grid.values()
    db = response.amplitude_kernel(response.amplitude_terms(params, omega, quantity))
    values = np.empty((flux_axis.size, omega.size), dtype=float)
    for i, flux in enumerate(params.carried_flux(flux_axis)):
        db(params.mechanical_hop, flux, out=values[i])
    values.setflags(write=False)
    flux_axis = flux_axis.copy()
    flux_axis.setflags(write=False)
    return FluxMap(flux_axis=flux_axis, freq_axis=freq_grid, values=values, quantity=quantity)
