import cmath
import math
import os
import tempfile
import time
import warnings
from dataclasses import replace

import numpy as np
import pytest

import optoflux as of
from optoflux.model import TWO_PI

from helpers import force_ranges, hook_scan, random_omega, random_params

# scripted closed-form solution at omega/2pi = 5.85 GHz on the reference set
FLUX_STAR_585 = -0.2885137506677201
V_STAR_585 = 3374645.447844673  # angular


def test_interference_condition_reference_point():
    sol = of.interference_condition(of.from_table1(0.0), TWO_PI * 5.85e9)
    assert sol.flux == pytest.approx(FLUX_STAR_585, rel=1e-12)
    assert sol.mechanical_hop == pytest.approx(V_STAR_585, rel=1e-12)
    assert not sol.degenerate


def test_interference_condition_nulls_backward_amplitude():
    rng = np.random.default_rng(20240504)
    p0 = of.from_table1(0.0)
    omegas = [TWO_PI * 5.85e9, TWO_PI * 5.9e9] + [random_omega(rng) for _ in range(20)]
    for omega in omegas:
        gamma = of.gamma_A(p0, omega)
        sol = of.interference_condition(p0, omega)
        null = abs(sol.mechanical_hop - gamma * cmath.exp(1j * sol.flux))
        assert null <= 1e-12 * abs(gamma)


def test_interference_condition_randomized_params():
    rng = np.random.default_rng(20240505)
    for _ in range(50):
        p = random_params(rng)
        omega = random_omega(rng)
        gamma = of.gamma_A(p, omega)
        sol = of.interference_condition(p, omega)
        assert abs(sol.mechanical_hop - gamma * cmath.exp(1j * sol.flux)) <= 1e-12 * abs(gamma)


def test_interference_condition_quadrature_case():
    # purely imaginary gamma_A: flux* = -pi/2 and the forward amplitude
    # doubles while the backward one nulls, so isolation is enormous
    omega = TWO_PI * 5.8e9
    delta = TWO_PI * 110e6 - omega
    J = omega + delta  # exact float so that omega + delta == J bitwise
    # omega + delta = J on both sites and kappa_R = 0 make det_A = -i kappa_L J / 2
    p = of.SystemParams(
        omega_mL=TWO_PI * 5.7884e9, omega_mR=TWO_PI * 5.7884e9,
        kappa_eL=TWO_PI * 0.74e9, kappa_eR=0.0, kappa_iL=0.0, kappa_iR=0.0,
        gamma_eL=TWO_PI * 4.3e6, gamma_eR=TWO_PI * 4.3e6,
        gamma_iL=TWO_PI * 1.0e6, gamma_iR=TWO_PI * 1.0e6,
        optical_hop=J, mechanical_hop=0.0,
        G_L=TWO_PI * 33e6, G_R=TWO_PI * 31e6,
        detuning_L=delta, detuning_R=delta,
    )
    gamma = of.gamma_A(p, omega)
    assert gamma.real == 0.0 and gamma.imag > 0.0
    sol = of.interference_condition(p, omega)
    assert sol.flux == -math.pi / 2
    assert sol.mechanical_hop == abs(gamma)
    assert not sol.degenerate
    tuned = replace(p, mechanical_hop=sol.mechanical_hop).with_flux(sol.flux)
    assert of.isolation_db(tuned, omega, of.PHONON) > 300.0


def test_interference_condition_flags_real_gamma():
    # optically lossless system: gamma_A purely real, tuning degenerate
    p = of.from_table1(0.0)
    p = replace(p, kappa_eL=0.0, kappa_iL=0.0, kappa_eR=0.0, kappa_iR=0.0,
                detuning_L=-p.omega_mL, detuning_R=-p.omega_mL)
    sol = of.interference_condition(p, TWO_PI * 5.9e9)
    assert sol.degenerate
    assert not of.interference_condition(of.from_table1(0.0), TWO_PI * 5.9e9).degenerate


def test_interference_condition_rejects_zero_bridge():
    with pytest.raises(of.ZeroCoupling):
        of.interference_condition(replace(of.from_table1(1e6), optical_hop=0.0),
                                  TWO_PI * 5.85e9)
    with pytest.raises(of.ZeroCoupling):
        of.interference_condition(replace(of.from_table1(1e6), G_R=0.0),
                                  TWO_PI * 5.85e9)


def _small_grid():
    return of.FrequencyGrid.from_hz(5.85e9, 5.95e9, 201)


def test_tune_collapsed_space_returns_the_point():
    p = of.from_table1(0.0)
    space = of.SearchSpace(
        flux_bounds=(0.4, 0.4),
        aux_name="mechanical_hop",
        aux_bounds=(TWO_PI * 2e6, TWO_PI * 2e6),
        frequency_grid=_small_grid(),
    )
    result = of.tune(p, of.PHONON, space)
    assert result.best_flux == 0.4
    assert result.best_aux == TWO_PI * 2e6
    values = of.isolation_db(replace(p, mechanical_hop=TWO_PI * 2e6).with_flux(0.4),
                             _small_grid().values(), of.PHONON)
    assert result.peak_db == values.max()
    assert len(result.trace) == 1


def test_tune_trace_is_monotone_and_consistent():
    p = of.from_table1(0.0)
    space = of.SearchSpace(
        flux_bounds=(-math.pi, 0.0),
        aux_name="mechanical_hop",
        aux_bounds=(TWO_PI * 0.1e6, TWO_PI * 2e6),
        frequency_grid=_small_grid(),
        coarse_points=9,
        golden_iterations=15,
        descent_sweeps=2,
    )
    result = of.tune(p, of.PHONON, space)
    objectives = [obj for _, obj in result.trace]
    assert objectives == sorted(objectives)
    assert result.trace[-1][1] == result.peak_db
    # reported peak matches a direct evaluation at the reported point
    check = of.isolation_db(
        replace(p, mechanical_hop=result.best_aux).with_flux(result.best_flux),
        result.peak_frequency, of.PHONON)
    assert abs(check - result.peak_db) <= 1e-9


def test_tune_is_reproducible():
    p = of.from_table1(0.0)
    space = of.SearchSpace(
        flux_bounds=(-1.0, 0.0),
        aux_name="mechanical_hop",
        aux_bounds=(TWO_PI * 0.3e6, TWO_PI * 1e6),
        frequency_grid=_small_grid(),
        coarse_points=7,
        golden_iterations=10,
        descent_sweeps=2,
    )
    a = of.tune(p, of.PHONON, space)
    b = of.tune(p, of.PHONON, space)
    assert a == b


def test_tune_phonon_seeded_by_interference_condition():
    # search bracketed around the analytic seed reaches strong isolation
    p0 = of.from_table1(0.0)
    grid = _small_grid()
    omega_seed = 0.5 * (grid.values()[100] + grid.values()[101])
    sol = of.interference_condition(p0, omega_seed)
    space = of.SearchSpace(
        flux_bounds=(sol.flux - 0.2, sol.flux + 0.2),
        aux_name="mechanical_hop",
        aux_bounds=(0.5 * sol.mechanical_hop, 2.0 * sol.mechanical_hop),
        frequency_grid=grid,
        coarse_points=11,
        golden_iterations=20,
        descent_sweeps=2,
    )
    result = of.tune(p0, of.PHONON, space)
    assert result.peak_db >= 50.0


def test_tune_flux_only_search():
    p = of.from_table1(0.52e6)
    space = of.SearchSpace(flux_bounds=(-math.pi, math.pi),
                           frequency_grid=_small_grid(),
                           coarse_points=17, golden_iterations=10, descent_sweeps=1)
    result = of.tune(p, of.PHONON, space)
    assert result.best_aux is None
    assert result.peak_db > 0.0
    assert all(it[1] is None for it, _ in result.trace)


def test_tune_rejects_nan_bounds():
    p = of.from_table1(1e6)
    for flux_bounds in ((math.nan, 1.0), (0.0, math.nan)):
        with pytest.raises(ValueError):
            of.tune(p, of.PHONON, of.SearchSpace(flux_bounds=flux_bounds))
    with pytest.raises(ValueError):
        of.tune(p, of.PHONON, of.SearchSpace(flux_bounds=(0, 1), aux_name="G_L",
                                             aux_bounds=(math.nan, 1.0)))


def test_tune_rejects_non_finite_bounds():
    p = of.from_table1(1e6)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # finite ends and a span that is not
        for flux_bounds in ((-1e308, 1e308), (np.float64(-9e307), 9e307)):
            with pytest.raises(ValueError, match="^flux_bounds must have lo <= hi and hi - lo "):
                of.tune(p, of.PHONON, of.SearchSpace(flux_bounds=flux_bounds))


def test_tune_peak_matches_isolation_db_exactly():
    # candidates skip building SystemParams and share one kernel; every
    # objective in the trace, and the reported peak, must still be exactly
    # what isolation_db gives at that point
    p = replace(of.from_table1(2e6), phi_L=0.5, phi_R=0.37)
    grid = _small_grid()
    bounds = {"mechanical_hop": (TWO_PI * 0.1e6, TWO_PI * 20e6),
              "optical_hop": (TWO_PI * 50e6, TWO_PI * 200e6),
              "G_L": (TWO_PI * 10e6, TWO_PI * 60e6),
              "G_R": (TWO_PI * 10e6, TWO_PI * 60e6),
              None: None}
    for quantity in of.QUANTITIES:
        for aux_name, aux_bounds in bounds.items():
            space = of.SearchSpace(flux_bounds=(-math.pi, math.pi), aux_name=aux_name,
                                   aux_bounds=aux_bounds, frequency_grid=grid,
                                   coarse_points=5, golden_iterations=6, descent_sweeps=1)
            result = of.tune(p, quantity, space)
            for (flux, aux), objective in result.trace:
                point = p.with_flux(flux)
                if aux_name is not None:
                    point = replace(point, **{aux_name: aux})
                assert objective == np.nanmax(of.isolation_db(point, grid.values(), quantity))
            assert result.trace[-1][0] == (result.best_flux, result.best_aux)
            assert result.trace[-1][1] == result.peak_db


def test_all_nan_spectrum_scores_minus_inf(monkeypatch):
    # both amplitudes below UNDERFLOW and unequal: every cell is nan, so every
    # candidate scores -inf, the first coarse point is kept, and no all-nan
    # RuntimeWarning escapes
    def tiny_terms(params, chi, quantity):
        return ((1.0, np.full(chi.chi_aL_inv.shape, 1e-320 + 0j), 0.0),
                (1.0, np.full(chi.chi_aL_inv.shape, 3e-320 + 0j), 0.0))

    monkeypatch.setattr(of.response, "amplitude_terms", tiny_terms)
    space = of.SearchSpace(flux_bounds=(0.0, 1.0), aux_name="mechanical_hop",
                           aux_bounds=(TWO_PI * 1e5, TWO_PI * 1e6),
                           frequency_grid=_small_grid(), coarse_points=3,
                           golden_iterations=2, descent_sweeps=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = of.tune(of.from_table1(1e6), of.PHOTON_TO_PHONON, space)
    assert result.trace == (((0.0, TWO_PI * 1e5), -math.inf),)
    assert math.isnan(result.peak_db)


def test_tune_validates_inputs():
    p = of.from_table1(1e6)
    with pytest.raises(ValueError, match="^unknown quantity 'bogus'"):
        of.tune(p, "bogus", of.SearchSpace(flux_bounds=(0, 1)))
    with pytest.raises(ValueError):
        of.tune(p, of.PHONON, of.SearchSpace(flux_bounds=(1, 0)))
    with pytest.raises(ValueError):
        of.tune(p, of.PHONON, of.SearchSpace(flux_bounds=(0, 1), aux_name="bogus",
                                             aux_bounds=(0, 1)))
    with pytest.raises(ValueError):
        of.tune(p, of.PHONON, of.SearchSpace(flux_bounds=(0, 1), aux_name="G_L"))
    # bounds without a coupling to bound, reversed here, used to be ignored
    with pytest.raises(ValueError, match="^aux_bounds only applicable when aux_name is set$"):
        of.tune(p, of.PHONON, of.SearchSpace(flux_bounds=(0, 1), aux_bounds=(5.0, 1.0),
                                             frequency_grid=_small_grid()))


def test_tune_validates_budget():
    p = of.from_table1(1e6)
    grid = of.FrequencyGrid.from_hz(5.8e9, 5.9e9, 3)
    # the minima themselves are a valid budget: a collapsed space needs no
    # coarse row and no descent
    space = of.SearchSpace(flux_bounds=(0.5, 0.5), frequency_grid=grid, coarse_points=1,
                           golden_iterations=0, descent_sweeps=0)
    assert of.tune(p, of.PHONON, space).best_flux == 0.5


def test_tune_survives_long_descent_budgets():
    # past 511 sweeps the bracket width underflows to 0 instead of 4.0 ** k
    # overflowing; a collapsed space skips the sweeps instead of idling
    p = of.from_table1(1e6)
    grid = of.FrequencyGrid.from_hz(5.8e9, 5.9e9, 3)
    space = of.SearchSpace(flux_bounds=(0.0, 1.0), frequency_grid=grid, coarse_points=3,
                           golden_iterations=0, descent_sweeps=600)
    result = of.tune(p, of.PHONON, space)
    assert 0.0 <= result.best_flux <= 1.0
    collapsed = of.SearchSpace(flux_bounds=(0.5, 0.5), frequency_grid=grid,
                               descent_sweeps=10**18)
    assert of.tune(p, of.PHONON, collapsed).best_flux == 0.5


# every searched coupling from 0 up: a candidate can switch a channel off
_AUX_BOUNDS_HZ = {None: None, "mechanical_hop": (0.0, 3e6), "optical_hop": (0.0, 160e6),
                  "G_L": (0.0, 40e6), "G_R": (0.0, 40e6)}


def _scan_space(aux, coarse_points=5):
    bounds = _AUX_BOUNDS_HZ[aux]
    return of.SearchSpace(flux_bounds=(math.pi, TWO_PI), aux_name=aux,
                          aux_bounds=None if aux is None else tuple(TWO_PI * b for b in bounds),
                          frequency_grid=of.FrequencyGrid.from_hz(5.85e9, 5.95e9, 41),
                          coarse_points=coarse_points, golden_iterations=6, descent_sweeps=2)


def _bits(result):
    """Every field of a TuneResult and every trace entry, floats by float.hex."""
    def hexed(x):
        return None if x is None else float(x).hex()

    return (hexed(result.best_flux), hexed(result.best_aux), hexed(result.peak_db),
            hexed(result.peak_frequency),
            [((hexed(flux), hexed(aux)), hexed(obj)) for (flux, aux), obj in result.trace])


def test_tune_builds_one_kernel_whatever_it_searches(monkeypatch):
    kernels = []
    kernel = of.response.amplitude_kernel

    def counted_kernel(*args):
        kernels.append(args[3])
        return kernel(*args)

    monkeypatch.setattr(of.response, "amplitude_kernel", counted_kernel)
    for aux in _AUX_BOUNDS_HZ:
        kernels.clear()
        of.tune(of.from_table1(520e3), of.PHONON_TO_PHOTON, _scan_space(aux))
        assert kernels == [aux or "mechanical_hop"]


@pytest.mark.parametrize("params, quantity, aux", [
    *(pytest.param(of.from_table1(520e3), quantity, aux, id=f"{quantity}-{aux}")
      for quantity in of.QUANTITIES for aux in _AUX_BOUNDS_HZ),
    # no bridge and no left coupling: the backward amplitude is 0, so the
    # candidates at V = 0 are nan everywhere (-inf) and all others +inf
    pytest.param(replace(of.from_table1(520e3), optical_hop=0.0, G_L=0.0),
                 of.PHONON_TO_PHOTON, "mechanical_hop", id="infinite peak"),
])
def test_split_scan_gives_the_same_bits(monkeypatch, params, quantity, aux):
    results = []
    for ranges in (1, 2, 3):
        forks = force_ranges(monkeypatch, ranges)
        results.append(_bits(of.tune(params, quantity, _scan_space(aux))))
        assert len(forks) == ranges - 1
    assert results[1] == results[0]
    assert results[2] == results[0]
    if params.optical_hop == 0.0:
        assert results[0][2] == "inf"


def _interrupt():
    raise KeyboardInterrupt


def _sleep():
    time.sleep(60)  # until the parent kills this child


def _fail():
    raise RuntimeError("scoring failed")


@pytest.mark.parametrize("parent, child", [(lambda: None, _fail), (_interrupt, _sleep)],
                         ids=["child fails", "parent interrupted"])
def test_failed_split_scan_leaves_nothing_behind(monkeypatch, tmp_path, parent, child):
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    force_ranges(monkeypatch, 2)
    hook_scan(monkeypatch, parent, child)
    space = _scan_space("mechanical_hop", coarse_points=9)
    started = time.monotonic()
    if child is _fail:
        # 81 candidates, cut at 40
        with pytest.raises(OSError, match=r"^the coarse scan of candidates 40-81 failed "
                                          r"\(exit status 1\)$"):
            of.tune(of.from_table1(520e3), of.PHOTON_TO_PHONON, space)
    else:
        with pytest.raises(KeyboardInterrupt):
            of.tune(of.from_table1(520e3), of.PHOTON_TO_PHONON, space)
    assert time.monotonic() - started < 30  # a sleeping child was killed
    with pytest.raises(ChildProcessError):  # every child was reaped
        os.waitpid(-1, os.WNOHANG)
    assert os.listdir(tmp_path) == []
