"""Physics invariants over drawn parameter sets (property tests).

Draws cover the same ranges as ``helpers.random_params``: every rate group
scaled over +-2 decades, any drive phases, any flux.  Generation is
derandomized, so each run checks the same examples.
"""

import math
import subprocess
import sys
import textwrap
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

import optoflux as of  # noqa: E402
from optoflux import response  # noqa: E402

from helpers import (  # noqa: E402
    max_entrywise_relative,
    oracle_isolation_db,
    random_params,
    ratio_db_reference,
    scaled_params,
)

PROPERTY = settings(max_examples=150, derandomize=True, database=None, deadline=None)

exponents = st.lists(st.floats(-2.0, 2.0), min_size=8, max_size=8)
phases = st.floats(0.0, of.TWO_PI)
fluxes = st.floats(-2.0 * math.pi, 2.0 * math.pi)
omegas = st.floats(5.0e9, 6.5e9).map(lambda hz: of.TWO_PI * hz)
quantities = st.sampled_from(of.QUANTITIES)
couplings = st.sets(st.sampled_from(["optical_hop", "mechanical_hop", "G_L", "G_R"]))

# a band across both mechanical resonances and the optical-hop sidebands
BAND = of.TWO_PI * np.linspace(5.0e9, 6.5e9, 97)


def _params(exponents, phi_L=0.0, phi_R=0.0):
    return scaled_params(10.0 ** np.array(exponents), phi_L, phi_R)


@PROPERTY
@given(exponents=exponents, zeroed=couplings, flux=fluxes)
@example(exponents=[0.0] * 8, zeroed={"optical_hop", "G_L"}, flux=0.3)
@example(exponents=[0.0] * 8, zeroed={"optical_hop", "G_L", "G_R"}, flux=0.3)
def test_conversion_duality_and_phonon_antisymmetry_are_exact(exponents, zeroed, flux):
    # phi_R = 0, so with_flux(+-flux) carries exactly +-flux; zeroed
    # couplings null whole amplitudes and exercise the +-inf / nan sentinels
    p = replace(_params(exponents), **dict.fromkeys(zeroed, 0.0))
    plus, minus = p.with_flux(flux), p.with_flux(-flux)
    forward = of.isolation_db(plus, BAND, of.PHOTON_TO_PHONON)
    mirrored = of.isolation_db(minus, BAND, of.PHONON_TO_PHOTON)
    assert np.array_equal(mirrored, -forward, equal_nan=True)
    phonon = of.isolation_db(plus, BAND, of.PHONON)
    assert np.array_equal(of.isolation_db(minus, BAND, of.PHONON), -phonon, equal_nan=True)


@PROPERTY
@given(exponents=exponents, phi_L=phases, phi_R=phases, flux=st.floats(-math.pi, math.pi),
       omega=omegas, quantity=quantities)
def test_flux_periodicity_over_draws(exponents, phi_L, phi_R, flux, omega, quantity):
    p = _params(exponents, phi_L, phi_R)
    base = of.isolation_db(p.with_flux(flux), omega, quantity)
    shifted = of.isolation_db(p.with_flux(flux + 2.0 * math.pi), omega, quantity)
    assert abs(base - shifted) <= 1e-9


@PROPERTY
@given(exponents=exponents, phi_L=phases, phi_R=phases, omega=omegas)
def test_closed_forms_match_dense_oracle_over_draws(exponents, phi_L, phi_R, omega):
    # the criterion-1 tolerances
    p = _params(exponents, phi_L, phi_R)
    dense = of.invert_dense(of.build_matrix(p, omega))
    assert max_entrywise_relative(of.effective_blocks(p, omega), dense) <= 1e-9
    for quantity in of.QUANTITIES:
        closed = of.isolation_db(p, omega, quantity)
        assert abs(closed - oracle_isolation_db(p, omega, quantity)) <= 1e-6


# amplitudes at and around the sentinel thresholds, with ordinary values so
# that whole arrays also hold no sentinel cell
TINY = np.nextafter(response.UNDERFLOW, 0.0)
amplitude_cells = st.one_of(
    st.sampled_from([0.0, 5e-324, 1e-310, TINY, response.UNDERFLOW, math.nan,
                     math.inf, -math.inf]),
    st.floats(min_value=response.UNDERFLOW, allow_nan=False),
    st.floats(1e-3, 1e3),
)


@st.composite
def amplitude_pairs(draw, min_size=0):
    n = draw(st.integers(min_size, 8))
    num = draw(st.lists(amplitude_cells, min_size=n, max_size=n))
    den = draw(st.lists(amplitude_cells, min_size=n, max_size=n))
    same = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    den = [a if s else b for a, b, s in zip(num, den, same)]
    return np.array(num), np.array(den)


@settings(max_examples=600, derandomize=True, database=None, deadline=None)
@given(pair=amplitude_pairs())
@example(pair=(np.array([math.nan, 1e-310]), np.array([1.0, 1.0])))
@example(pair=(np.array([1.0, math.nan]), np.array([2.0, 0.0])))
@example(pair=(np.array([]), np.array([])))
# infinite amplitudes and no tiny one
@example(pair=(np.array([2.0, math.inf, 3.0, math.inf, 1.0]),
               np.array([1.0, math.inf, 3.0, 1.0, math.inf])))
def test_ratio_db_matches_reference_bitwise(pair):
    # the in-place path must give exactly what one np.where per sentinel
    # rule gives, nan next to a tiny cell and empty arrays included
    num, den = pair
    expected = ratio_db_reference(num, den)
    got = response._ratio_db(num.copy(), den.copy())
    assert got.tobytes() == expected.tobytes()


def _assert_peak_is_full_max(params, quantity, hop, flux, floor=None):
    # the kernel's pair against the stateless spectrum: its maximum, and the
    # first frequency holding it, nan cells masked (0 where all are nan), at
    # one flux or at each of a row (a list) of fluxes; then a second call at
    # the same point, which the kernel may prune, with a floor ("peak" is the
    # exact peak, a row's largest, "peak+" the next float above it, "entry"
    # the peak of a row's middle flux): the same pairs, or, for a peak below
    # the floor or nan, a dB below the floor
    terms = response.amplitude_terms(params, of.susceptibilities(params, BAND), quantity)
    wants = []
    for f in np.atleast_1d(flux):
        spectrum = response.amplitude_db(terms, hop, f)
        wants.append((np.fmax.reduce(spectrum, axis=None),
                      np.argmax(np.where(np.isnan(spectrum), -math.inf, spectrum))))
    want = np.fmax.reduce([db for db, _ in wants])
    peak = response.amplitude_kernel(params, BAND, quantity, "mechanical_hop")
    floors = [-math.inf] if floor is None else [-math.inf, {
        "peak": want, "peak+": np.nextafter(want, math.inf),
        "entry": wants[len(wants) // 2][0]}.get(floor, floor)]
    for floor in floors:
        got = peak(hop, np.array(flux) if np.ndim(flux) else flux, float(floor))
        if np.ndim(flux):
            assert type(got) is list and len(got) == len(wants)
        else:
            got = [got]
        for (db, index), (want, first) in zip(got, wants):
            assert (type(db), type(index)) == (float, int)
            if not (want >= floor) and db < floor:
                continue
            assert np.float64(db).tobytes() == want.tobytes()
            assert index == first


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), quantity=quantities, hop_scale=st.floats(0.0, 40.0),
       flux=st.one_of(fluxes, st.lists(fluxes, min_size=1, max_size=33)),
       floor=st.sampled_from(["peak", "peak+", "entry", -math.inf, -30.0, 0.0, 30.0,
                              math.inf]))
def test_kernel_peak_matches_full_spectrum_over_draws(seed, quantity, hop_scale, flux, floor):
    p = random_params(np.random.default_rng(seed))
    _assert_peak_is_full_max(p, quantity, hop_scale * p.mechanical_hop, flux, floor)


# forward over backward: one ulp apart in ratio, the lower ratio with the
# higher dB on an AVX-512 host, and two ratios that round to 4 and 5 units
# of the smallest subnormal with the lower one again higher in dB
ULP_PAIR = (np.array([0.9750756532554867, 5330042.015499256]),
            np.array([0.0027244869251748936, 14892.823683349254]))
SUBNORMAL_PAIR = (np.array([1.1536763811861124e-44, 5.450091716805555e-118]),
                  np.array([5.1890377586554095e+278, 2.4513574315843347e+205]))


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
# a kernel's grid has a cell, so its peak always has a maximum
@given(pair=amplitude_pairs(min_size=1),
       scalar=st.sampled_from([None, "numerator", "denominator"]),
       flux=st.one_of(st.sampled_from([0.0, -0.0, 1.1]),
                      st.lists(st.sampled_from([0.0, -0.0, 1.1]), min_size=1, max_size=33)),
       floor=st.sampled_from(["peak", "peak+", "entry", -math.inf, -6000.0, 0.0, 6000.0,
                              math.inf]))
@example(pair=ULP_PAIR, scalar=None, flux=0.0, floor="peak")
@example(pair=SUBNORMAL_PAIR, scalar=None, flux=0.0, floor="peak")
# the ulp pair above 30 cells at a third, for a row of two fluxes: one block
@example(pair=(np.r_[ULP_PAIR[0], np.ones(30)], np.r_[ULP_PAIR[1], np.full(30, 3.0)]),
         scalar=None, flux=[0.0, 1.1], floor="peak")
@example(pair=(np.array([1e-305, 2.0]), np.array([1e-306, 1.0])), scalar=None, flux=0.0,
         floor="peak")
@example(pair=(np.array([1e-300, 3.0, 1e300]), np.array([1e300, 3.0, 1e-300])), scalar=None,
         flux=0.0, floor="peak")
@example(pair=(np.array([1e-300, 1e-290]), np.array([1e300, 1e300])), scalar=None, flux=0.0,
         floor="peak")
@example(pair=(np.full(5, 7.0), np.full(5, 2.0)), scalar=None, flux=0.0, floor="peak+")
@example(pair=(np.full(4, 3.0), np.full(4, 3.0)), scalar="denominator", flux=1.1, floor="peak")
@example(pair=(np.array([math.inf, 2.0]), np.array([math.inf, 1.0])), scalar=None, flux=0.0,
         floor="peak")
@example(pair=(np.array([math.nan, 2.0]), np.array([1.0, 1.0])), scalar=None, flux=0.0,
         floor="peak")
# every cell nan: both amplitudes tiny and unequal, one infinite, or one nan
@example(pair=(np.array([1e-320, math.inf, math.nan]), np.array([3e-320, 2.0, 1.0])),
         scalar=None, flux=0.0, floor=0.0)
# one cell in nine a bound can keep, the others far below the floor
@example(pair=(np.array([5.0] + [1.0] * 8), np.array([1.0] + [3.0] * 8)), scalar=None,
         flux=0.0, floor="peak")
@example(pair=(np.array([5.0] + [1e-310] * 8), np.array([1.0] + [3.0] * 8)), scalar=None,
         flux=0.0, floor=0.0)
@example(pair=(np.array([5.0] + [1.0] * 8), np.array([1.0] + [1e-290] * 8)), scalar=None,
         flux=0.0, floor=6000.0)
def test_kernel_peak_matches_full_spectrum_on_sentinels(pair, scalar, flux, floor):
    # hand-built terms g = 1, X = amplitude, Y = 0, standing in for
    # amplitude_terms, at V = 1 give each cell its drawn amplitude: 0,
    # subnormal, just below UNDERFLOW, nan, +-inf, plateaus and ratios that
    # overflow or underflow; one side may be a broadcast scalar
    num, den = pair
    if scalar == "numerator":
        num = num[:1].reshape(())
    elif scalar == "denominator":
        den = den[:1].reshape(())
    terms = ((1.0, num + 0j, 0.0), (1.0, den + 0j, 0.0))
    # an infinite term makes the complex products warn, in amplitude_db as in peak
    with np.errstate(invalid="ignore", over="ignore"), \
            mock.patch.object(response, "amplitude_terms", lambda *args: terms):
        _assert_peak_is_full_max(of.from_table1(1e6), of.PHONON, 1.0, flux, floor)


def test_a_failing_property_ends_only_its_test(tmp_path):
    # reporting a falsifying example imports libcst, which warns a
    # DeprecationWarning; pyproject.toml's filters must let the session go on
    pytest.importorskip("libcst")
    drawn = tmp_path / "test_drawn.py"
    drawn.write_text(textwrap.dedent("""
        from hypothesis import given, settings, strategies as st

        @settings(derandomize=True, database=None)
        @given(st.integers())
        def test_fails(n):
            assert n < 5

        def test_passes():
            pass
    """))
    config = Path(__file__).resolve().parents[1] / "pyproject.toml"
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           "-c", str(config), "--rootdir", str(tmp_path), str(drawn)],
                          cwd=tmp_path, capture_output=True, text=True)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout
