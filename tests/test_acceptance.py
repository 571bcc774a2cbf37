"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -s tests/test_acceptance.py`` to see the per-criterion
lines.  Every tolerance is pinned here, none are calibrated at run time.
"""

import functools
import math
import time
from dataclasses import replace

import numpy as np

import optoflux as of
from optoflux.model import TWO_PI

from helpers import max_entrywise_relative, random_omega, random_params

# Golden peak for criterion 6, frozen from the first verified run of the
# interference-tuned reference spectrum (seed half a grid step above
# 5.9 GHz); the value is insensitive to 1-ulp parameter perturbations at
# the 1e-12 dB level.
GOLDEN_PEAK_DB = 65.17105013742537
GOLDEN_PEAK_TOL_DB = 1e-6


def _criterion(number, description, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {number:02d}] {status}: {description} {detail}".rstrip())
    assert ok, f"criterion {number}: {description} {detail}"


@functools.lru_cache(maxsize=1)
def _phonon_tuning():
    """Interference-tuned (flux, V) for the reference set, seeded off-grid."""
    grid = of.default_frequency_grid()
    omega = grid.values()
    k = int(np.argmin(np.abs(omega - TWO_PI * 5.9e9)))
    seed = 0.5 * (omega[k] + omega[k + 1])
    sol = of.interference_condition(of.from_table1(0.0), seed)
    return sol.flux, sol.mechanical_hop


@functools.lru_cache(maxsize=1)
def _conversion_tuning():
    """V tuned for photon->phonon isolation at pinned flux 1.42 pi."""
    space = of.SearchSpace(
        flux_bounds=(1.42 * math.pi, 1.42 * math.pi),
        aux_name="mechanical_hop",
        aux_bounds=(TWO_PI * 1e6, TWO_PI * 60e6),
    )
    return of.tune(of.from_table1(0.0), of.PHOTON_TO_PHONON, space)


def test_criterion_01_oracle_equivalence():
    started = time.monotonic()
    rng = np.random.default_rng(20240601)
    worst_block = 0.0
    worst_db = 0.0
    for _ in range(1000):
        p = random_params(rng)
        omega = random_omega(rng)
        dense = of.invert_dense(of.build_matrix(p, omega))
        assembled = of.effective_blocks(p, omega)
        worst_block = max(worst_block, max_entrywise_relative(assembled, dense))
        for quantity in of.QUANTITIES:
            closed = of.isolation_db(p, omega, quantity)
            (fi, fj), (bi, bj) = {
                of.PHONON: ((3, 2), (2, 3)),
                of.PHOTON_TO_PHONON: ((3, 0), (2, 1)),
                of.PHONON_TO_PHOTON: ((1, 2), (0, 3)),
            }[quantity]
            oracle = 20.0 * math.log10(abs(dense[fi, fj]) / abs(dense[bi, bj]))
            worst_db = max(worst_db, abs(closed - oracle))
    elapsed = time.monotonic() - started
    _criterion(
        1, "oracle equivalence over 1000 randomized parameter sets",
        worst_db <= 1e-6 and worst_block <= 1e-9 and elapsed < 10.0,
        f"(worst isolation diff {worst_db:.2e} dB, worst entry rel {worst_block:.2e}, "
        f"{elapsed:.2f} s)",
    )


def test_criterion_02_integer_flux_reciprocity():
    _, v_star = _phonon_tuning()
    params = replace(of.from_table1(0.0), mechanical_hop=v_star)
    omega = of.default_frequency_grid().values()
    worst = 0.0
    for n in (0, 1, -1, 2, -2):
        values = of.isolation_db(params.with_flux(n * math.pi), omega, of.PHONON)
        worst = max(worst, float(np.max(np.abs(values))))
    _criterion(
        2, "phonon isolation at integer flux stays below 1e-9 dB",
        worst <= 1e-9, f"(worst {worst:.2e} dB over 2001-point spectra)",
    )


def test_criterion_03_lossless_reciprocity():
    p = of.from_table1(0.52e6)
    p = replace(p, kappa_eL=0.0, kappa_iL=0.0, kappa_eR=0.0, kappa_iR=0.0,
                detuning_L=-p.omega_mL, detuning_R=-p.omega_mL)
    omega = of.default_frequency_grid().values()
    worst = 0.0
    for flux in np.linspace(-2 * math.pi, 2 * math.pi, 21):
        values = of.isolation_db(p.with_flux(float(flux)), omega, of.PHONON)
        worst = max(worst, float(np.max(np.abs(values))))
    _criterion(
        3, "optically lossless system is reciprocal at every flux",
        worst <= 1e-9, f"(worst {worst:.2e} dB)",
    )


def test_criterion_04_flux_antisymmetry():
    flux_star, v_star = _phonon_tuning()
    params = replace(of.from_table1(0.0), mechanical_hop=v_star)
    flux_axis = of.default_flux_grid()
    grid = of.default_frequency_grid()
    forward = of.flux_map(params, of.PHONON, flux_axis, grid)
    mirrored = of.flux_map(params, of.PHONON, -flux_axis, grid)
    worst = float(np.max(np.abs(forward.values + mirrored.values)))
    _criterion(
        4, "phonon isolation is antisymmetric in flux over the full map",
        worst <= 1e-9, f"(worst {worst:.2e} dB over {forward.values.shape})",
    )


def test_criterion_05_conversion_duality():
    rng = np.random.default_rng(20240602)
    worst = 0.0
    for _ in range(300):
        p = random_params(rng)
        omega = random_omega(rng)
        forward = of.isolation_db(p, omega, of.PHOTON_TO_PHONON)
        mirrored = of.isolation_db(p.with_flux(-p.synthetic_flux), omega,
                                   of.PHONON_TO_PHOTON)
        worst = max(worst, abs(forward + mirrored))
    _criterion(
        5, "photon->phonon equals negated phonon->photon at reversed flux",
        worst <= 1e-9, f"(worst {worst:.2e} dB over 300 randomized sets)",
    )


def test_criterion_06_phonon_peak_reproduction():
    started = time.monotonic()
    flux_star, v_star = _phonon_tuning()
    params = replace(of.from_table1(0.0), mechanical_hop=v_star).with_flux(flux_star)
    grid = of.default_frequency_grid()
    values = of.spectrum(params, of.PHONON, grid)
    peak = float(values.max())
    peak_freq_hz = grid.values()[int(np.argmax(values))] / TWO_PI
    elapsed = time.monotonic() - started
    _criterion(
        6, "interference-tuned phonon isolation peak exceeds 50 dB and matches "
           "the frozen golden value",
        peak > 50.0 and abs(peak - GOLDEN_PEAK_DB) <= GOLDEN_PEAK_TOL_DB
        and elapsed < 5.0,
        f"(peak {peak:.10f} dB at {peak_freq_hz/1e9:.6f} GHz, golden "
        f"{GOLDEN_PEAK_DB:.10f} dB, {elapsed:.2f} s)",
    )


def test_criterion_07_photon_to_phonon_peak():
    result = _conversion_tuning()
    peak_hz = result.peak_frequency / TWO_PI
    params = replace(of.from_table1(0.0), mechanical_hop=result.best_aux)
    flipped = of.isolation_db(params.with_flux(-1.42 * math.pi),
                              result.peak_frequency, of.PHOTON_TO_PHONON)
    _criterion(
        7, "photon->phonon isolation at flux 1.42 pi exceeds 30 dB in band and "
           "flips sign under flux reversal",
        result.peak_db > 30.0 and 5.7e9 <= peak_hz <= 6.1e9 and flipped < 0.0,
        f"(peak {result.peak_db:.2f} dB at {peak_hz/1e9:.4f} GHz with "
        f"V = {result.best_aux/TWO_PI/1e6:.3f} MHz, reversed-flux value "
        f"{flipped:.2f} dB)",
    )


def test_criterion_08_phonon_to_photon_peak():
    space = of.SearchSpace(
        flux_bounds=(1.4 * math.pi, 1.4 * math.pi),
        aux_name="mechanical_hop",
        aux_bounds=(TWO_PI * 1e6, TWO_PI * 60e6),
    )
    result = of.tune(of.from_table1(0.0), of.PHONON_TO_PHOTON, space)
    peak_hz = result.peak_frequency / TWO_PI
    params = replace(of.from_table1(0.0), mechanical_hop=result.best_aux)
    reversed_spectrum = of.isolation_db(params.with_flux(-1.4 * math.pi),
                                        of.default_frequency_grid().values(),
                                        of.PHONON_TO_PHOTON)
    dip = float(np.min(reversed_spectrum))
    _criterion(
        8, "phonon->photon isolation at flux 1.4 pi peaks positive near 6 GHz "
           "and dips negative at reversed flux",
        result.peak_db > 10.0 and 5.8e9 <= peak_hz <= 6.1e9 and dip < -10.0,
        f"(peak {result.peak_db:.2f} dB at {peak_hz/1e9:.4f} GHz, reversed-flux "
        f"dip {dip:.2f} dB)",
    )


def test_criterion_09_steady_state_round_trip():
    rng = np.random.default_rng(20240603)
    worst = 0.0
    for _ in range(100):
        p = random_params(rng)
        g = 10.0 ** rng.uniform(1, 4, size=2)
        p = replace(p, g_L=TWO_PI * g[0], g_R=TWO_PI * g[1])
        target = tuple(TWO_PI * 10.0 ** rng.uniform(4, 8, size=2))
        state = of.steady_amplitudes(p, of.drives_for_target_G(p, target))
        worst = max(worst,
                    abs(state.G_L - target[0]) / target[0],
                    abs(state.G_R - target[1]) / target[1])
    _criterion(
        9, "drive inversion round trip reproduces 100 randomized targets",
        worst <= 1e-9, f"(worst relative error {worst:.2e})",
    )


def test_criterion_10_zero_flux_conversion_nonreciprocity():
    result = _conversion_tuning()
    params = replace(of.from_table1(0.0), mechanical_hop=result.best_aux).with_flux(0.0)
    values = of.isolation_db(params, of.default_frequency_grid().values(),
                             of.PHOTON_TO_PHONON)
    largest = float(np.max(np.abs(values)))
    _criterion(
        10, "asymmetric parameters convert nonreciprocally even at zero flux",
        largest > 0.1, f"(max |isolation| {largest:.3f} dB in band)",
    )
