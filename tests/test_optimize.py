import cmath
import hashlib
import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

import optoflux as of
from optoflux.model import TWO_PI

import tune_cpu
from helpers import force_ranges, random_omega, random_params

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


def test_peak_of_a_nan_and_minus_inf_spectrum_is_minus_inf(monkeypatch):
    # a forward amplitude below UNDERFLOW makes -inf cells, and one tiny
    # backward amplitude a nan first cell: the peak is the spectrum's
    # maximum, -inf, as its trace says, at the first frequency
    def tiny_terms(params, chi, quantity):
        backward = np.full(chi.chi_aL_inv.shape, 2.0 + 0j)
        backward[0] = 3e-320
        return ((1.0, np.full(chi.chi_aL_inv.shape, 1e-320 + 0j), 0.0), (1.0, backward, 0.0))

    monkeypatch.setattr(of.response, "amplitude_terms", tiny_terms)
    space = of.SearchSpace(flux_bounds=(0.0, 1.0), frequency_grid=_small_grid(),
                           coarse_points=3, golden_iterations=1, descent_sweeps=1)
    result = of.tune(of.from_table1(1e6), of.PHOTON_TO_PHONON, space)
    assert result.trace == (((0.0, None), -math.inf),)
    assert result.peak_db == -math.inf
    assert result.peak_frequency == _small_grid().values()[0]


def test_overflowed_amplitudes_score_without_a_warning():
    # amplitudes past the float range are inf, whose ratio inf / inf is nan:
    # the kernel's full pass scores them without a RuntimeWarning, as
    # isolation_db does.  V up to 2 pi 1e300 overflows every candidate but
    # V = 0, whose 0 dB wins; couplings of 1e300 overflow every flux
    grid = _small_grid()
    p = of.from_table1(1e6)
    result = of.tune(p, of.PHONON, of.SearchSpace(
        flux_bounds=(0.0, math.pi), aux_name="mechanical_hop", aux_bounds=(0.0, TWO_PI * 1e300),
        frequency_grid=grid, coarse_points=3, golden_iterations=2, descent_sweeps=1))
    assert (result.best_flux, result.best_aux, result.peak_db) == (0.0, 0.0, 0.0)
    assert result.trace == (((0.0, 0.0), 0.0),)
    big = replace(p, mechanical_hop=1e300, optical_hop=1e300, G_L=1e300, G_R=1e300)
    result = of.tune(big, of.PHOTON_TO_PHONON, of.SearchSpace(
        flux_bounds=(0.0, math.pi), frequency_grid=grid, coarse_points=3,
        golden_iterations=2, descent_sweeps=1))
    assert result.trace == (((0.0, None), -math.inf),)
    assert math.isnan(result.peak_db)
    assert np.isnan(of.isolation_db(big, grid.values(), of.PHOTON_TO_PHONON)).all()


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


def test_golden_section_takes_the_exact_steps_below_its_floors():
    # each new point is passed the other interior point's value as its
    # floor: a function that answers any value below the floor wherever its
    # value lies below it must visit the same points and return the same
    # (x, f) as the exact function.  Seeded step functions on a grid of few
    # levels have many maxima, ties, plateaus and -inf cells
    levels = [-math.inf, -3.0, 0.0, 0.5, 2.0, 7.25]
    answered_below = 0
    for seed in range(200):
        rng = np.random.default_rng(seed)
        cells = rng.choice(levels[:int(rng.integers(1, 7))], size=int(rng.integers(1, 60)))
        lo, hi = sorted(rng.uniform(-5.0, 5.0, size=2))
        iterations = int(rng.integers(0, 30))

        def f(x):
            return float(cells[min(max(int((x - lo) / (hi - lo) * cells.size), 0),
                                   cells.size - 1)])

        def exact(x, floor):
            visits[0].append(x)
            return f(x)

        def floored(x, floor):
            nonlocal answered_below
            visits[1].append(x)
            if not f(x) < floor:
                return f(x)
            answered_below += 1
            return float(rng.choice([-math.inf, f(x) - rng.uniform(0.0, 9.0),
                                     np.nextafter(floor, -math.inf), floor - 100.0]))

        visits = [], []
        want = of.optimize._golden_section_max(exact, lo, hi, iterations)
        assert of.optimize._golden_section_max(floored, lo, hi, iterations) == want
        assert visits[0] == visits[1]
    assert answered_below


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
    # and reads no full spectrum: the final point is one more peak
    kernels = []
    kernel = of.response.amplitude_kernel

    def counted_kernel(*args):
        kernels.append(args[3])
        return kernel(*args)

    monkeypatch.setattr(of.response, "amplitude_kernel", counted_kernel)
    monkeypatch.delattr(of.response, "amplitude_db")
    for aux in _AUX_BOUNDS_HZ:
        kernels.clear()
        of.tune(of.from_table1(520e3), of.PHONON_TO_PHOTON, _scan_space(aux))
        assert kernels == [aux or "mechanical_hop"]


@pytest.mark.parametrize("aux", [None, "mechanical_hop", "G_L", "optical_hop"])
@pytest.mark.parametrize("quantity", of.QUANTITIES)
def test_tune_matches_a_kernel_without_floors(monkeypatch, quantity, aux):
    # the scan's rows and the descent's candidates pass the kernel floors,
    # below which it may answer any lower value, and each candidate of a
    # golden section along the coupling passes its bracket as the span of
    # the kernel's bounds; a kernel whose every call drops its floor and its
    # span scores each candidate exactly, and must give an equal result,
    # trace included, bit for bit.  Some descent candidate must have scored
    # below the floor it was passed, or no floor was tested, and every
    # search along a coupling must have passed spans
    params = of.from_table1(520e3)
    kernel = of.response.amplitude_kernel
    below = []  # per scalar call, whether it scored below its floor
    spans = []  # per call, the span it passed

    def kernel_without_floors(*args):
        peak = kernel(*args)
        return lambda value, flux, floor=-math.inf, span=None: peak(value, flux)

    def kernel_with_floors(*args):
        peak = kernel(*args)

        def recorded(value, flux, floor=-math.inf, span=None):
            got = peak(value, flux, floor, span)
            if np.ndim(flux) == 0:
                below.append(got[0] < floor)
            spans.append(span)
            return got

        return recorded

    monkeypatch.setattr(of.response, "amplitude_kernel", kernel_without_floors)
    exact = of.tune(params, quantity, _scan_space(aux))
    monkeypatch.setattr(of.response, "amplitude_kernel", kernel_with_floors)
    result = of.tune(params, quantity, _scan_space(aux))
    assert result == exact and _bits(result) == _bits(exact)
    assert any(below)
    assert any(spans) == (aux is not None)


def test_a_golden_section_over_v_bounds_its_bracket_once(monkeypatch):
    # the bench-sized photon->phonon tune over V makes one bounds pass per
    # coarse-scan row (33), per sweep one for the golden section over the
    # flux at the incumbent V and one for that over V's bracket (3 + 3), and
    # one for the final peak: 40 passes, against 159 when each candidate of a
    # section over V had its own.  It computes amplitudes in 309 calls, a
    # block of survivors or a full pass each, 280,647 pairs in all: a change
    # that adds work to the kernel fails here
    spans = []
    bounds = of.response._bounds
    amplitudes = of.response._amplitudes
    pairs = []  # the amplitude pairs each call computes

    def counted(terms, sizes, span, *scratch):
        spans.append(span)
        return bounds(terms, sizes, span, *scratch)

    def counted_amplitudes(*args):
        forward, backward = amplitudes(*args)
        pairs.append(forward.size)
        return forward, backward

    monkeypatch.setattr(of.response, "_bounds", counted)
    monkeypatch.setattr(of.response, "_amplitudes", counted_amplitudes)
    space = of.SearchSpace(flux_bounds=(math.pi, TWO_PI), aux_name="mechanical_hop",
                           aux_bounds=(TWO_PI * 1e6, TWO_PI * 60e6),
                           frequency_grid=of.FrequencyGrid.from_hz(5.6e9, 6.1e9, 20001))
    of.tune(of.from_table1(520e3), of.PHOTON_TO_PHONON, space)
    assert len(spans) == 40
    assert sum(lo < hi for lo, hi in spans) == 3
    assert (len(pairs), sum(pairs)) == (309, 280647)


# sha256 of repr(_bits(...)) of each case's tune, as one process scored it
# when the coarse scan could still be cut into forked ranges
_ONE_RANGE_BITS = {
    "phonon-None": "ea26149eda8eac4e",
    "phonon-mechanical_hop": "0d1094b6b7b503e6",
    "phonon-optical_hop": "f11f39e2fc8adb69",
    "phonon-G_L": "fab6edc9e8e208f9",
    "phonon-G_R": "ace99d9d57c0a8ea",
    "photon_to_phonon-None": "8a81d65d2a7678c5",
    "photon_to_phonon-mechanical_hop": "fb6fca8c32482ed7",
    "photon_to_phonon-optical_hop": "fe00b22e56b12569",
    "photon_to_phonon-G_L": "6db941d88f869ddc",
    "photon_to_phonon-G_R": "a072e9c4ac782539",
    "phonon_to_photon-None": "9b25c54388da9e7f",
    "phonon_to_photon-mechanical_hop": "aa0e6b6bebdc267a",
    "phonon_to_photon-optical_hop": "4e471ddd12943a26",
    "phonon_to_photon-G_L": "ba2397fdee8b6a2e",
    "phonon_to_photon-G_R": "df8e039f9c45b417",
    "infinite peak": "b36a013edfdbb1a7",
}


@pytest.mark.parametrize("params, quantity, aux", [
    *(pytest.param(of.from_table1(520e3), quantity, aux, id=f"{quantity}-{aux}")
      for quantity in of.QUANTITIES for aux in _AUX_BOUNDS_HZ),
    # no bridge and no left coupling: the backward amplitude is 0, so the
    # candidates at V = 0 are nan everywhere (-inf) and all others +inf
    pytest.param(replace(of.from_table1(520e3), optical_hop=0.0, G_L=0.0),
                 of.PHONON_TO_PHOTON, "mechanical_hop", id="infinite peak"),
])
def test_tune_forks_nothing_and_keeps_the_one_range_bits(request, monkeypatch, params,
                                                         quantity, aux):
    # with three usable CPUs and a fan-out minimum of one, tune still scores
    # its whole scan, a row of fluxes per kernel call, in this process
    forks = force_ranges(monkeypatch, 3)
    bits = _bits(of.tune(params, quantity, _scan_space(aux)))
    assert forks == []
    assert hashlib.sha256(repr(bits).encode()).hexdigest()[:16] == \
        _ONE_RANGE_BITS[request.node.callspec.id]
    if params.optical_hop == 0.0:
        assert bits[2] == "inf"


def test_scan_peaks_near_the_kernel_scratch():
    # a 33 x 33 tune over V on 20,001 points: past the kernel's scratch, a
    # block of a row's fluxes by survivors holds about an eighth of the grid's
    # cells.  The traced peak read 3.71 MB with one kernel call per candidate
    # and 3.73 MB with one per row; a block of a row's fluxes by the whole
    # grid, 10.6 MB of complex numbers alone, would be far above
    p = of.from_table1(520e3)
    space = of.SearchSpace(flux_bounds=(math.pi, TWO_PI), aux_name="mechanical_hop",
                           aux_bounds=(TWO_PI * 1e6, TWO_PI * 60e6),
                           frequency_grid=of.FrequencyGrid.from_hz(5.6e9, 6.1e9, 20001))
    of.tune(p, of.PHOTON_TO_PHONON, space)  # first-call costs, such as imports, happen here
    tracemalloc.start()
    try:
        of.tune(p, of.PHOTON_TO_PHONON, space)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= (3.71 + 1.0) * 1e6


def test_tune_cpu_prints_a_line_per_configuration(capsys):
    # the informational tune_cpu script, on a small grid: a header, then a
    # CPU time and a count of minor faults per configuration
    assert tune_cpu.main(["--points", "201", "--runs", "1", "--rounds", "1"]) == 0
    header, *lines = capsys.readouterr().out.splitlines()
    assert header.split() == ["quantity", "coupling", "cpu_ms", "minor_faults"]
    assert [line.split()[:2] for line in lines] == [[q, aux] for q, aux, _ in tune_cpu.CONFIGS]
    for line in lines:
        cpu_ms, faults = line.split()[2:]
        assert float(cpu_ms) > 0.0 and int(faults) >= 0
