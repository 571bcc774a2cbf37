"""Physics invariants over drawn parameter sets (property tests).

Draws cover the same ranges as ``helpers.random_params``: every rate group
scaled over +-2 decades, any drive phases, any flux.  Generation is
derandomized, so each run checks the same examples.
"""

import math
from dataclasses import replace

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
# that whole arrays also clear the guard and take the in-place path
TINY = np.nextafter(response.UNDERFLOW, 0.0)
amplitude_cells = st.one_of(
    st.sampled_from([0.0, 5e-324, 1e-310, TINY, response.UNDERFLOW, math.nan,
                     math.inf, -math.inf]),
    st.floats(min_value=response.UNDERFLOW, allow_nan=False),
    st.floats(1e-3, 1e3),
)


@st.composite
def amplitude_pairs(draw):
    n = draw(st.integers(1, 8))
    num = draw(st.lists(amplitude_cells, min_size=n, max_size=n))
    den = draw(st.lists(amplitude_cells, min_size=n, max_size=n))
    same = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    den = [a if s else b for a, b, s in zip(num, den, same)]
    return np.array(num), np.array(den)


@settings(max_examples=600, derandomize=True, database=None, deadline=None)
@given(pair=amplitude_pairs())
@example(pair=(np.array([math.nan, 1e-310]), np.array([1.0, 1.0])))
@example(pair=(np.array([1.0, math.nan]), np.array([2.0, 0.0])))
@example(pair=(np.array([2.0, math.inf, 3.0]), np.array([1.0, math.inf, 3.0])))
def test_ratio_db_matches_reference_bitwise(pair):
    # the in-place fast path must give exactly what one np.where per
    # sentinel rule gives, nan next to a tiny cell included
    num, den = pair
    expected = ratio_db_reference(num, den)
    got = response._ratio_db(num.copy(), den.copy(), np.empty(num.shape, bool))
    assert got.tobytes() == expected.tobytes()
