import math
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

import optoflux as of
from optoflux.model import TWO_PI

# independently scripted evaluation of the four inverse susceptibilities for
# the reference parameters at omega/2pi = 5.9 GHz
CHI_59GHZ = {
    "chi_aL_inv": 3235840433.197487 - 701203480.2812424j,
    "chi_aR_inv": 2356194490.1923447 - 759637103.6380081j,
    "chi_bL_inv": 16650441.064025903 - 701203480.2812424j,
    "chi_bR_inv": 21676989.30976957 - 759637103.6380081j,
}


def test_table1_totals_and_detunings():
    p = of.from_table1(1e6)
    assert p.kappa_L == pytest.approx(TWO_PI * 1.03e9, rel=1e-14)
    assert p.kappa_R == pytest.approx(TWO_PI * 0.75e9, rel=1e-14)
    assert p.gamma_L == pytest.approx(TWO_PI * 5.3e6, rel=1e-14)
    assert p.gamma_R == pytest.approx(TWO_PI * 6.9e6, rel=1e-14)
    assert p.detuning_L == -TWO_PI * 5.7884e9
    assert p.detuning_R == -TWO_PI * 5.7791e9
    assert p.optical_hop == TWO_PI * 110e6
    assert p.G_L == TWO_PI * 33e6
    assert p.G_R == TWO_PI * 31e6
    assert p.mechanical_hop == TWO_PI * 1e6


def test_red_detuned_constructor_is_exact():
    p = of.from_table1(0.0)
    assert p.detuning_L == -p.omega_mL
    assert p.detuning_R == -p.omega_mR


def test_susceptibilities_at_5p9ghz():
    p = of.from_table1(1e6)
    chi = of.susceptibilities(p, TWO_PI * 5.9e9)
    for name, expected in CHI_59GHZ.items():
        got = getattr(chi, name)
        assert got.real == pytest.approx(expected.real, rel=1e-12)
        assert got.imag == pytest.approx(expected.imag, rel=1e-12)


def test_susceptibility_on_resonance_is_purely_real():
    p = of.from_table1(1e6)
    chi = of.susceptibilities(p, p.omega_mL)
    assert chi.chi_aL_inv.imag == 0.0
    assert chi.chi_aL_inv.real == p.kappa_L / 2.0
    assert chi.chi_bL_inv.imag == 0.0
    assert chi.chi_bL_inv.real == p.gamma_L / 2.0


def test_susceptibility_structure():
    # decay only in the real part, detuning only in the imaginary part
    p = of.from_table1(1e6)
    for omega in TWO_PI * np.linspace(5.0e9, 6.5e9, 11):
        chi = of.susceptibilities(p, omega)
        assert chi.chi_aL_inv.real == p.kappa_L / 2.0
        assert chi.chi_aR_inv.real == p.kappa_R / 2.0
        assert chi.chi_aL_inv.imag == -(omega + p.detuning_L)
        assert chi.chi_bR_inv.imag == -(omega - p.omega_mR)


def test_susceptibility_magnitude_floor():
    # |chi_aj_inv| >= kappa_j/2 with equality exactly on resonance
    p = of.from_table1(1e6)
    omegas = TWO_PI * np.linspace(5.0e9, 6.5e9, 101)
    chi = of.susceptibilities(p, omegas)
    mags = np.abs(chi.chi_aL_inv)
    assert np.all(mags >= p.kappa_L / 2.0)
    assert abs(of.susceptibilities(p, -p.detuning_L).chi_aL_inv) == p.kappa_L / 2.0
    off = omegas != -p.detuning_L
    assert np.all(mags[off] > p.kappa_L / 2.0)


def test_susceptibilities_deterministic():
    p = of.from_table1(2e6, flux=0.7)
    omega = TWO_PI * 5.8123e9
    a = of.susceptibilities(p, omega)
    b = of.susceptibilities(p, omega)
    assert (a.chi_aL_inv, a.chi_aR_inv, a.chi_bL_inv, a.chi_bR_inv) == (
        b.chi_aL_inv, b.chi_aR_inv, b.chi_bL_inv, b.chi_bR_inv)


def test_susceptibilities_accept_arrays():
    p = of.from_table1(1e6)
    omegas = TWO_PI * np.linspace(5.7e9, 6.0e9, 7)
    chi = of.susceptibilities(p, omegas)
    assert chi.chi_aL_inv.shape == (7,)
    scalar = of.susceptibilities(p, omegas[3]).chi_aL_inv
    assert chi.chi_aL_inv[3] == scalar


def test_synthetic_flux_and_with_flux():
    p = of.from_table1(1e6, flux=0.4)
    assert p.synthetic_flux == pytest.approx(0.4, rel=1e-15)
    q = p.with_flux(-1.3)
    assert q.synthetic_flux == pytest.approx(-1.3, rel=1e-15)
    assert q.phi_R == p.phi_R
    # original untouched (value semantics)
    assert p.synthetic_flux == pytest.approx(0.4, rel=1e-15)
    # carried_flux is exactly the flux a with_flux copy carries, on arrays too
    p = replace(p, phi_L=0.9, phi_R=2.9)
    fluxes = np.linspace(-2.0 * math.pi, 2.0 * math.pi, 41)
    carried = p.carried_flux(fluxes)
    assert carried.tolist() == [p.with_flux(f).synthetic_flux for f in fluxes]
    assert p.carried_flux(-1.3) == p.with_flux(-1.3).synthetic_flux


# every entry that takes one probe frequency reaches it through susceptibilities
@pytest.mark.parametrize("entry", ["susceptibilities", "gamma_A", "interference_condition",
                                   "build_matrix", "effective_blocks"])
def test_an_omega_beyond_the_float_range_is_rejected(entry):
    with pytest.raises(ValueError, match="^omega must be within the float range"):
        getattr(of, entry)(of.from_table1(5e5), 10**400)


def test_copy_helpers():
    # one field changes per replace; the original is untouched and immutable
    p = of.from_table1(1e6)
    q = replace(p, mechanical_hop=5.0, G_L=1.0)
    assert (q.mechanical_hop, q.G_L) == (5.0, 1.0)
    assert replace(q, mechanical_hop=p.mechanical_hop, G_L=p.G_L) == p
    assert p.mechanical_hop == TWO_PI * 1e6
    with pytest.raises(FrozenInstanceError):
        p.optical_hop = 7.0


# "field" sets -1.0; "field=value" sets float(value); a (field, value) pair
# sets value as it is.  Covers the sign and strictness rules of every field
# group, NaN / +-inf and an int beyond the float range, which the model must
# reject.
@pytest.mark.parametrize("field", [
    "optical_hop", "mechanical_hop", "G_L", "G_R",
    "kappa_eL=-1", "kappa_iL=-1", "g_L=-2", "omega_mL=0", "gamma_eL=-1",
    "G_L=nan", "kappa_eL=nan", "omega_mL=nan", "optical_hop=inf", "gamma_iR=-inf",
    "g_R=inf", "detuning_L=nan", "phi_L=inf",
    pytest.param(("optical_hop", 10**400), id="optical_hop=10**400"),
])
def test_system_params_rejects_negative_magnitudes(field):
    if isinstance(field, str):
        name, _, value = field.partition("=")
        field = name, float(value or -1.0)
    name, value = field
    with pytest.raises(ValueError):
        replace(of.from_table1(1e6), **{name: value})


def test_wrap_phase():
    assert of.wrap_phase(0.0) == 0.0
    assert of.wrap_phase(math.pi) == math.pi
    assert of.wrap_phase(-math.pi) == math.pi
    assert of.wrap_phase(3.0 * math.pi) == pytest.approx(math.pi)
    assert of.wrap_phase(0.25) == pytest.approx(0.25)
    assert of.wrap_phase(-0.25 + 4 * math.pi) == pytest.approx(-0.25, abs=1e-14)
