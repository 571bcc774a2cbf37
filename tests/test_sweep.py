import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import optoflux as of
from optoflux import response
from optoflux.model import TWO_PI


def test_frequency_grid_validation():
    with pytest.raises(ValueError):
        of.FrequencyGrid(start=2.0, stop=1.0, points=10)
    with pytest.raises(ValueError):
        of.FrequencyGrid(start=1.0, stop=1.0, points=10)
    with pytest.raises(ValueError):
        of.FrequencyGrid(start=1.0, stop=2.0, points=1)


def test_frequency_grid_rejects_non_finite_bounds():
    # finite ends, a span that is not: linspace would write nan and inf
    for start, stop in ((-1e308, 1e308), (np.float64(-9e307), 9e307)):
        with pytest.raises(ValueError, match="by a finite span$"):
            of.FrequencyGrid(start=start, stop=stop, points=3)


def test_frequency_grid_rejects_non_integer_points():
    for points in (2.5, 3.0, "3", None):
        with pytest.raises(ValueError, match="integer"):
            of.FrequencyGrid(start=0.0, stop=1.0, points=points)
    assert of.FrequencyGrid(start=0.0, stop=1.0, points=np.int64(3)).values().shape == (3,)


def test_frequency_grid_values():
    grid = of.FrequencyGrid.from_hz(5.6e9, 6.1e9, 11)
    values = grid.values()
    assert values.shape == (11,)
    assert values[0] == TWO_PI * 5.6e9
    assert values[-1] == TWO_PI * 6.1e9
    assert np.all(np.diff(values) > 0)


def test_default_grids():
    grid = of.default_frequency_grid()
    assert grid.points == 2001
    flux = of.default_flux_grid()
    assert flux.shape == (401,)
    assert flux[0] == -2 * math.pi and flux[-1] == 2 * math.pi


def test_spectrum_zero_flux_phonon_is_flat_zero():
    p = of.from_table1(2e6, flux=0.0)
    values = of.spectrum(p, of.PHONON, of.FrequencyGrid.from_hz(5.6e9, 6.1e9, 101))
    assert values.shape == (101,)
    assert np.all(values == 0.0)


def test_spectrum_two_points():
    p = of.from_table1(2e6, flux=0.4)
    grid = of.FrequencyGrid.from_hz(5.7e9, 5.9e9, 2)
    values = of.spectrum(p, of.PHONON, grid)
    assert values.shape == (2,)
    assert np.array_equal(values, of.isolation_db(p, grid.values(), of.PHONON))


def test_spectrum_matches_scalar_operations():
    p = of.from_table1(1.5e6, flux=0.9)
    grid = of.FrequencyGrid.from_hz(5.7e9, 6.0e9, 17)
    for quantity in of.QUANTITIES:
        values = of.spectrum(p, quantity, grid)
        for omega, value in zip(grid.values()[::4], values[::4]):
            assert value == pytest.approx(of.isolation_db(p, float(omega), quantity), abs=1e-12)


def test_results_are_not_changed_by_later_evaluations():
    # every result owns its array: no later spectrum, map or tune may write
    # into one handed out before
    p = replace(of.from_table1(0.7e6), phi_L=0.9, phi_R=2.9)
    grid = of.FrequencyGrid.from_hz(5.8e9, 6.0e9, 31)
    spectra = {q: of.spectrum(p.with_flux(0.4), q, grid) for q in of.QUANTITIES}
    points = {q: of.isolation_db(p.with_flux(0.4), grid.values(), q) for q in of.QUANTITIES}
    before = {q: (spectra[q].tobytes(), points[q].tobytes()) for q in of.QUANTITIES}
    for q in of.QUANTITIES:
        of.spectrum(p.with_flux(-1.3), q, grid)
        of.isolation_db(p.with_flux(2.2), grid.values(), q)
        of.flux_map(p, q, [0.1, 0.2], grid)
        of.tune(p, q, of.SearchSpace(flux_bounds=(0.0, 1.0), aux_name="mechanical_hop",
                                     aux_bounds=(TWO_PI * 1e5, TWO_PI * 1e6),
                                     frequency_grid=grid, coarse_points=3,
                                     golden_iterations=2, descent_sweeps=1))
    assert {q: (spectra[q].tobytes(), points[q].tobytes()) for q in of.QUANTITIES} == before


def test_flux_map_shape_and_tag():
    p = of.from_table1(1e6)
    flux_axis = np.linspace(-math.pi, math.pi, 9)
    grid = of.FrequencyGrid.from_hz(5.7e9, 6.0e9, 21)
    fm = of.flux_map(p, of.PHOTON_TO_PHONON, flux_axis, grid)
    assert fm.values.shape == (9, 21)
    assert fm.quantity == of.PHOTON_TO_PHONON
    assert fm.freq_axis == grid
    assert np.array_equal(fm.flux_axis, flux_axis)


def test_flux_map_integer_flux_rows_are_zero():
    p = of.from_table1(0.8e6)
    flux_axis = np.array([-2 * math.pi, -math.pi, 0.0, math.pi, 2 * math.pi])
    grid = of.FrequencyGrid.from_hz(5.6e9, 6.1e9, 101)
    fm = of.flux_map(p, of.PHONON, flux_axis, grid)
    assert np.max(np.abs(fm.values)) <= 1e-12


def test_flux_map_antisymmetry_embedded():
    # rows at +flux and -flux are elementwise negatives for phonon transport
    p = of.from_table1(0.52e6)
    positive = np.linspace(0.1, 2 * math.pi, 25)
    flux_axis = np.concatenate([-positive[::-1], [0.0], positive])
    grid = of.FrequencyGrid.from_hz(5.6e9, 6.1e9, 201)
    fm = of.flux_map(p, of.PHONON, flux_axis, grid)
    assert np.max(np.abs(fm.values + fm.values[::-1, :])) <= 1e-9


def test_flux_map_deterministic():
    p = of.from_table1(0.52e6)
    grid = of.FrequencyGrid.from_hz(5.8e9, 5.95e9, 64)
    flux_axis = np.linspace(-1.0, 1.0, 11)
    a = of.flux_map(p, of.PHONON, flux_axis, grid)
    b = of.flux_map(p, of.PHONON, flux_axis, grid)
    assert np.array_equal(a.values, b.values)


def test_map_values_read_the_bits_of_the_flux_map():
    # computed where they are read: flux rows one kernel call each, rows of
    # the transpose one broadcast call each, with the bits of the whole map
    p = replace(of.from_table1(0.7e6), phi_L=0.9, phi_R=2.9)
    grid = of.FrequencyGrid.from_hz(5.8e9, 6.0e9, 37)
    flux_axis = np.linspace(-2 * math.pi, 2 * math.pi, 11)
    for q in of.QUANTITIES:
        whole = of.flux_map(p, q, flux_axis, grid).values
        values = of.flux_map(p, q, flux_axis, grid)
        assert (len(values), values.shape, values.size, values.ndim) == (11, (11, 37), 407, 2)
        assert (len(values.T), values.T.shape, values.T.T.shape) == (37, (37, 11), (11, 37))
        assert not values.flux_axis.flags.writeable
        assert np.array_equal(values.flux_axis, flux_axis)
        for got, want in ((values[:], whole), (values[3:7], whole[3:7]), (values[-1], whole[-1]),
                          (values.T[5], whole[:, 5]), (values.T.T[2], whole[2]),
                          *((values.T[lo:lo + 16], whole.T[lo:lo + 16]) for lo in (0, 16, 32))):
            assert got.tobytes() == want.tobytes()


def test_flux_map_values_are_kept_and_read_only():
    p = of.from_table1(0.52e6)
    grid = of.FrequencyGrid.from_hz(5.8e9, 5.95e9, 16)
    fm = of.flux_map(p, of.PHONON, np.linspace(-1.0, 1.0, 5), grid)
    assert fm.values is fm.values
    assert not fm.values.flags.writeable
    with pytest.raises(ValueError):
        fm.values[0, 0] = 0.0


def test_flux_map_transpose_values_are_the_transposed_values():
    p = replace(of.from_table1(0.7e6), phi_L=0.9, phi_R=2.9)
    grid = of.FrequencyGrid.from_hz(5.8e9, 6.0e9, 23)
    flux_axis = np.linspace(-2 * math.pi, 2 * math.pi, 9)
    for q in of.QUANTITIES:
        # the transpose taken before and after the map's values are kept
        fresh = of.flux_map(p, q, flux_axis, grid)
        transposed = fresh.T.values
        read = of.flux_map(p, q, flux_axis, grid)
        values = read.values
        for got in (transposed, read.T.values):
            assert got.shape == (23, 9) and not got.flags.writeable
            assert got.tobytes() == values.T.tobytes()
        assert read.T.T.values.tobytes() == values.tobytes()


def test_flux_map_computes_nothing_until_read(monkeypatch):
    # a row is one stateless call at one flux, a transposed read one call at
    # a column of fluxes; neither a map nor a spectrum builds a search kernel
    calls = []
    amplitude_db = response.amplitude_db

    def counted(terms, hop, flux, *args):
        calls.append("grid" if np.ndim(flux) else "row")
        return amplitude_db(terms, hop, flux, *args)

    monkeypatch.setattr(response, "amplitude_db", counted)
    monkeypatch.delattr(response, "amplitude_kernel")
    grid = of.FrequencyGrid.from_hz(5.8e9, 5.95e9, 16)
    fm = of.flux_map(of.from_table1(0.52e6), of.PHONON, np.linspace(-1.0, 1.0, 5), grid)
    assert calls == []
    fm[3]
    fm.T[2:6]
    assert calls == ["row", "grid"]
    fm.values
    fm.values
    assert calls == ["row", "grid"] + ["row"] * 5
    of.spectrum(of.from_table1(0.52e6), of.PHONON, grid)
    assert calls == ["row", "grid"] + ["row"] * 6


def test_flux_map_rejects_bad_axis():
    p = of.from_table1(1e6)
    grid = of.FrequencyGrid.from_hz(5.8e9, 5.9e9, 4)
    with pytest.raises(ValueError):
        of.flux_map(p, of.PHONON, np.zeros((2, 2)), grid)
    with pytest.raises(ValueError):
        of.flux_map(p, of.PHONON, [], grid)


def test_flux_map_rejects_non_finite_flux():
    p = of.from_table1(1e6)
    grid = of.FrequencyGrid.from_hz(5.8e9, 5.9e9, 4)
    for bad in (math.inf, -math.inf, math.nan, 10**400):
        with pytest.raises(ValueError, match="finite"):
            of.flux_map(p, of.PHONON, [0.0, bad], grid)


def test_flux_map_values_peak_near_their_own_size():
    # values are read a row at a time into one array: the default 401x2001
    # map's 6.4 MB plus a row's temporaries, where one broadcast call over
    # the whole map would peak above 40 MB
    for quantity in of.QUANTITIES:
        fm = of.flux_map(of.from_table1(520e3), quantity, of.sweep.default_flux_grid(),
                         of.sweep.default_frequency_grid())
        tracemalloc.start()
        try:
            fm.values
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert fm.values.nbytes == 401 * 2001 * 8
        assert peak < 7.5e6


def test_flux_map_rows_match_isolation_db_exactly():
    # rows reuse one set of amplitude terms; each equals a fresh evaluation
    # phi_R = 2.9 makes (phi_R + flux) - phi_R differ from flux on 9 rows
    p = replace(of.from_table1(0.7e6), phi_L=0.9, phi_R=2.9)
    flux_axis = np.linspace(-2 * math.pi, 2 * math.pi, 41)
    grid = of.FrequencyGrid.from_hz(5.8e9, 6.0e9, 31)
    for quantity in of.QUANTITIES:
        fm = of.flux_map(p, quantity, flux_axis, grid)
        for flux, row in zip(flux_axis, fm.values):
            expected = of.isolation_db(p.with_flux(flux), grid.values(), quantity)
            assert np.array_equal(row, expected)


def test_sweep_rejects_unknown_quantity():
    p = of.from_table1(1e6)
    grid = of.FrequencyGrid.from_hz(5.8e9, 5.9e9, 4)
    with pytest.raises(ValueError):
        of.spectrum(p, "nonsense", grid)
