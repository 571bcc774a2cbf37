import cmath
import math
import tracemalloc
import types
from dataclasses import fields, replace

import numpy as np
import pytest

import optoflux as of
from optoflux.model import TWO_PI

from helpers import oracle_isolation_db, random_omega, random_params

# independently scripted values at omega/2pi = 5.85 GHz for the reference
# parameters (gamma terms are drive-independent)
GAMMA_585 = {
    "gamma_A": 3235163.9721812583 + 960180.1767164103j,
    "gamma_plus": 16803725.50905945 - 99279433.68122633j,
    "gamma_minus": 23898223.60937226 - 102133826.19038971j,
}
# isolations at that frequency for V = 2pi*12 MHz, phi_L = 0.83, phi_R = 0.21
ISO_585 = {
    of.PHONON: -0.13790638974801486,
    of.PHOTON_TO_PHONON: -6.085649958599781,
    of.PHONON_TO_PHOTON: -2.805449238826421,
}


def _params_585():
    return replace(of.from_table1(12e6), phi_L=0.83, phi_R=0.21)


def _lossless(flux=0.0, equal_detunings=True):
    p = replace(of.from_table1(2e6, flux=flux),
                kappa_eL=0.0, kappa_iL=0.0, kappa_eR=0.0, kappa_iR=0.0)
    if equal_detunings:
        p = replace(p, detuning_L=-p.omega_mL, detuning_R=-p.omega_mL)
    return p


def _ratio(terms):
    """Y / (g X): the mediated coupling the hop V interferes with."""
    g, x, y = terms
    return y / (g * x)


def test_gamma_terms_reference_point():
    p = _params_585()
    omega = TWO_PI * 5.85e9
    chi = of.susceptibilities(p, omega)
    phonon, _ = of.response.amplitude_terms(p, chi, of.PHONON)
    forward, backward = of.response.amplitude_terms(p, chi, of.PHOTON_TO_PHONON)
    got = {
        "gamma_A": of.gamma_A(p, omega),
        "gamma_A_from_terms": -_ratio(phonon),
        "gamma_plus": _ratio(backward),
        "gamma_minus": _ratio(forward),
    }
    for name, value in got.items():
        expected = GAMMA_585[name.replace("_from_terms", "")]
        assert value.real == pytest.approx(expected.real, rel=1e-12), name
        assert value.imag == pytest.approx(expected.imag, rel=1e-12), name


def test_gamma_terms_no_bridge():
    # J = 0 removes the bridge term Y from every amplitude
    p = replace(of.from_table1(1e6), optical_hop=0.0)
    omega = TWO_PI * 5.85e9
    for quantity in of.QUANTITIES:
        for _, _, y in of.response.amplitude_terms(p, of.susceptibilities(p, omega), quantity):
            assert y == 0
    with pytest.raises(of.ZeroCoupling):
        of.gamma_A(p, omega)


def test_gamma_terms_lossless_on_resonance():
    # kappa = 0 with omega on both (equal) resonances: gamma_A = G_L G_R / J real
    p = _lossless()
    omega = -p.detuning_L
    gamma = of.gamma_A(p, omega)
    assert gamma.imag == 0.0
    assert gamma.real == pytest.approx(p.G_L * p.G_R / p.optical_hop, rel=1e-14)
    # gamma_plus and gamma_minus are poles there (X = chi_a_inv = 0), but the
    # cleared-denominator conversion amplitudes stay finite
    chi = of.susceptibilities(p, omega)
    for g, x, y in of.response.amplitude_terms(p, chi, of.PHOTON_TO_PHONON):
        assert x == 0 and y != 0
    for quantity in (of.PHOTON_TO_PHONON, of.PHONON_TO_PHOTON):
        assert math.isfinite(of.isolation_db(p.with_flux(0.7), omega, quantity))


def test_gamma_terms_rejects_zero_enhanced_coupling():
    p = replace(of.from_table1(1e6), G_L=0.0)
    with pytest.raises(of.ZeroCoupling):
        of.gamma_A(p, TWO_PI * 5.85e9)


def test_isolations_reference_point():
    p = _params_585()
    omega = TWO_PI * 5.85e9
    for quantity, expected in ISO_585.items():
        assert of.isolation_db(p, omega, quantity) == pytest.approx(expected, abs=1e-9)


def test_phonon_isolation_zero_flux_is_exactly_reciprocal():
    p = of.from_table1(3e6, flux=0.0)
    values = of.isolation_db(p, TWO_PI * np.linspace(5.6e9, 6.1e9, 501), of.PHONON)
    assert np.all(values == 0.0)


def test_phonon_isolation_integer_flux():
    p = of.from_table1(0.55e6)
    omegas = TWO_PI * np.linspace(5.6e9, 6.1e9, 501)
    for n in (-2, -1, 0, 1, 2):
        values = of.isolation_db(p.with_flux(n * math.pi), omegas, of.PHONON)
        assert np.max(np.abs(values)) <= 1e-12


def test_phonon_isolation_lossless_is_reciprocal():
    # optically lossless cavities: gamma_A real, transport reciprocal at any flux
    omegas = TWO_PI * np.linspace(5.6e9, 6.1e9, 301)
    for flux in (0.3, 1.0, -2.2, 0.5 * math.pi):
        values = of.isolation_db(_lossless(flux), omegas, of.PHONON)
        assert np.max(np.abs(values)) <= 1e-12


def test_phonon_isolation_lossless_unequal_detunings():
    # det_A stays real for kappa = 0 even with delta_L != delta_R
    p = _lossless(flux=0.9, equal_detunings=False)
    values = of.isolation_db(p, TWO_PI * np.linspace(5.6e9, 6.1e9, 301), of.PHONON)
    assert np.max(np.abs(values)) <= 1e-12


def test_phonon_isolation_antisymmetric_in_flux():
    rng = np.random.default_rng(42)
    for _ in range(100):
        p = random_params(rng)
        omega = random_omega(rng)
        flux = rng.uniform(-2 * math.pi, 2 * math.pi)
        fwd = of.isolation_db(p.with_flux(flux), omega, of.PHONON)
        bwd = of.isolation_db(p.with_flux(-flux), omega, of.PHONON)
        assert abs(fwd + bwd) <= 1e-9


def test_flux_periodicity():
    rng = np.random.default_rng(43)
    for _ in range(50):
        p = random_params(rng)
        omega = random_omega(rng)
        flux = rng.uniform(-math.pi, math.pi)
        for quantity in of.QUANTITIES:
            base = of.isolation_db(p.with_flux(flux), omega, quantity)
            shifted = of.isolation_db(p.with_flux(flux + 2 * math.pi), omega, quantity)
            assert abs(base - shifted) <= 1e-9


def test_conversion_duality():
    # photon->phonon at flux equals the negated phonon->photon at -flux
    rng = np.random.default_rng(44)
    for _ in range(100):
        p = random_params(rng)
        omega = random_omega(rng)
        forward = of.isolation_db(p, omega, of.PHOTON_TO_PHONON)
        mirrored = of.isolation_db(p.with_flux(-p.synthetic_flux), omega,
                                   of.PHONON_TO_PHOTON)
        assert abs(forward + mirrored) <= 1e-9


def test_fully_symmetric_system_converts_reciprocally():
    p = of.SystemParams.red_detuned(
        omega_mL=TWO_PI * 5.78e9, omega_mR=TWO_PI * 5.78e9,
        kappa_eL=TWO_PI * 0.5e9, kappa_eR=TWO_PI * 0.5e9,
        kappa_iL=TWO_PI * 0.3e9, kappa_iR=TWO_PI * 0.3e9,
        gamma_eL=TWO_PI * 5e6, gamma_eR=TWO_PI * 5e6,
        gamma_iL=TWO_PI * 1e6, gamma_iR=TWO_PI * 1e6,
        optical_hop=TWO_PI * 110e6, mechanical_hop=TWO_PI * 2e6,
        G_L=TWO_PI * 33e6, G_R=TWO_PI * 33e6,
    )
    omegas = TWO_PI * np.linspace(5.6e9, 6.0e9, 101)
    assert np.all(of.isolation_db(p, omegas, of.PHOTON_TO_PHONON) == 0.0)
    assert np.all(of.isolation_db(p, omegas, of.PHONON_TO_PHOTON) == 0.0)


def test_closed_forms_match_dense_oracle():
    rng = np.random.default_rng(20240502)
    worst = 0.0
    for _ in range(300):
        p = random_params(rng)
        omega = random_omega(rng)
        for quantity in of.QUANTITIES:
            closed = of.isolation_db(p, omega, quantity)
            oracle = oracle_isolation_db(p, omega, quantity)
            worst = max(worst, abs(closed - oracle))
    assert worst <= 1e-6


def test_perfect_isolation_sentinels():
    # with J = 0 and G_L = 0 one conversion direction is dead: the forward
    # photon->phonon amplitude vanishes identically
    p = replace(of.from_table1(2e6), optical_hop=0.0, G_L=0.0)
    omega = TWO_PI * 5.8e9
    assert of.isolation_db(p, omega, of.PHOTON_TO_PHONON) == -math.inf
    assert of.isolation_db(p, omega, of.PHONON_TO_PHOTON) == math.inf


@pytest.mark.xfail(strict=True, reason="UNDERFLOW is absolute: the amplitudes, which scale "
                                       "as rate^3, fall below it and every cell reads 0 dB")
def test_isolation_does_not_depend_on_the_unit():
    # scaling every rate and frequency by 2^-400 is the same system in
    # another unit: the criterion-6 spectrum must read the same dB
    p = of.from_table1(515709.8644424447, flux=-0.1585105713191547 * math.pi)
    omega = np.linspace(TWO_PI * 5.85e9, TWO_PI * 5.95e9, 201)
    scaled = replace(p, **{f.name: math.ldexp(getattr(p, f.name), -400)
                           for f in fields(p) if f.name not in ("phi_L", "phi_R")})
    db = of.isolation_db(p, omega)
    assert np.all((11.0 < db) & (db < 66.0))
    assert np.max(np.abs(of.isolation_db(scaled, np.ldexp(omega, -400)) - db)) <= 1e-9


def test_amplitude_kernel_writes_only_its_output():
    # the kernel reuses its scratch between calls and returns two numbers;
    # amplitude_db returns a fresh array each call and writes none of its
    # terms, so neither call changes what the other gave or reads
    p = replace(of.from_table1(0.7e6), phi_L=0.9, phi_R=2.9)
    omegas = TWO_PI * np.linspace(5.8e9, 6.0e9, 31)
    for quantity in of.QUANTITIES:
        peak = of.response.amplitude_kernel(p, omegas, quantity, "mechanical_hop")
        terms = of.response.amplitude_terms(p, of.susceptibilities(p, omegas), quantity)
        kept_terms = [np.array(t) for term in terms for t in term]
        first = of.response.amplitude_db(terms, p.mechanical_hop, p.carried_flux(0.4))
        kept = first.copy()
        db, index = peak(p.mechanical_hop, -1.3)
        assert (type(db), type(index)) == (float, int)
        second = of.response.amplitude_db(terms, p.mechanical_hop, -1.3)
        peak(3.0 * p.mechanical_hop, p.carried_flux(0.4))
        assert second is not first
        assert np.array_equal(first, kept)
        assert all(np.array_equal(t, k) for t, k in
                   zip((t for term in terms for t in term), kept_terms))
        assert np.array_equal(first, of.isolation_db(p.with_flux(0.4), omegas, quantity))


def test_amplitude_kernel_reuse_matches_fresh_kernels():
    # the terms are kept while the coupling's bits repeat: one kernel per
    # channel and coupling, fed a sequence that repeats, alternates and
    # changes the coupling and the flux (0.0 and -0.0 included), gives
    # bitwise what a fresh kernel gives for each call
    p = replace(of.from_table1(0.7e6), phi_L=0.9, phi_R=2.9)
    omegas = TWO_PI * np.linspace(5.8e9, 6.0e9, 41)
    for coupling in of.AUX_PARAMETERS:
        own = getattr(p, coupling)
        calls = [(own, 0.4), (own, 0.4), (3.7 * own, 0.4), (3.7 * own, -1.3), (own, -1.3),
                 (3.7 * own, 0.4), (0.0, 0.4), (-0.0, 0.4), (0.0, 0.0), (-0.0, -0.0),
                 (0.0, -0.0), (np.float64(3.7 * own), 2.2), (3.7 * own, 2.2), (own, 2.2)]
        for quantity in of.QUANTITIES:
            peak = of.response.amplitude_kernel(p, omegas, quantity, coupling)
            for value, flux in calls:
                want = of.isolation_db(replace(p, **{coupling: value}).with_flux(flux), omegas,
                                       quantity)
                db, index = peak(value, p.carried_flux(flux))
                assert np.float64(db).tobytes() == np.fmax.reduce(want).tobytes()
                assert index == np.argmax(np.where(np.isnan(want), -math.inf, want))


@pytest.mark.parametrize("coupling", of.AUX_PARAMETERS)
def test_kernel_grid_rows_are_its_rows_bitwise(coupling):
    # amplitude_db at a column of fluxes and a slice of the frequencies is
    # one broadcast call: each of its rows has the bits of the call at that
    # flux, for every slice (a term that is one number at every frequency is
    # not sliced), for the terms of each value of the coupling, also where
    # every cell is a sentinel (no bridge, G_L = 0)
    for p in (replace(of.from_table1(0.7e6), phi_L=0.9, phi_R=2.9),
              replace(of.from_table1(2e6), optical_hop=0.0, G_L=0.0)):
        omegas = TWO_PI * np.linspace(5.8e9, 6.0e9, 41)
        chi = of.susceptibilities(p, omegas)
        flux = p.carried_flux(np.linspace(-2 * math.pi, 2 * math.pi, 13))
        for quantity in of.QUANTITIES:
            for value in (getattr(p, coupling), 3.7 * getattr(p, coupling) + 1.0):
                point = replace(p, **{coupling: value})
                terms = of.response.amplitude_terms(point, chi, quantity)
                rows = np.array([of.response.amplitude_db(terms, point.mechanical_hop, f)
                                 for f in flux])
                for columns in (slice(None), slice(0, 16), slice(16, 32), slice(32, 41),
                                slice(40, 41), slice(3, 30, 7)):
                    grid = of.response.amplitude_db(terms, point.mechanical_hop,
                                                    flux[:, None], columns)
                    assert grid.tobytes() == rows[:, columns].tobytes()


def _full_peak(spectrum):
    """The pair a kernel's peak gives when it scores every cell."""
    masked = np.where(np.isnan(spectrum), -math.inf, spectrum)
    return float(np.fmax.reduce(spectrum)), int(np.argmax(masked))


def _ulps(x, k):
    """x moved by k units in the last place (down for k < 0)."""
    for _ in range(abs(k)):
        x = float(np.nextafter(x, math.copysign(math.inf, k)))
    return x


@pytest.mark.parametrize("coupling", of.AUX_PARAMETERS)
@pytest.mark.parametrize("quantity", of.QUANTITIES)
def test_kernel_peak_keeps_its_contract_over_call_sequences(monkeypatch, quantity, coupling):
    # Random sequences of calls, so that the bounds and the magnitudes carry
    # over between calls, at points a few ulps from interference_condition's
    # null, or from the channel's own backward null, at a grid frequency (a dB
    # of ~200 and more: the backward amplitude cancels to ~1e-12 of its terms)
    # and far from them, with floors at the exact peak, within 1e-9 dB of it,
    # far below it and far above it.  Rows of 1 to 33 fluxes, as a coarse scan
    # makes them, take floors at the row's largest peak, near it, far from it,
    # at one of its entries' peaks and +-inf.  Each call passes a span around
    # its value, whose bounds a kernel over V keeps for the calls to come:
    # none, the value alone, ends a few ulps off it, ends that straddle the
    # channel's backward root |Y_b| / |g X_b| at the cell, a wide one, and one
    # that does not hold the value (so the value alone).  Each pair is bitwise
    # the full spectrum's, or, for a peak below the floor or nan, a dB below
    # the floor.
    rng = np.random.default_rng([7, of.QUANTITIES.index(quantity),
                                 of.AUX_PARAMETERS.index(coupling)])
    gathered = []
    amplitudes = of.response._amplitudes

    def counted(terms, hop, flux, cells=slice(None)):
        if isinstance(cells, np.ndarray):  # the survivors of the bounds
            gathered.append(np.ndim(flux))  # 2 for a row's block
        return amplitudes(terms, hop, flux, cells)

    monkeypatch.setattr(of.response, "_amplitudes", counted)
    spanned = []  # per bounds pass, whether its span holds more than one V
    bounds = of.response._bounds

    def recorded(terms, sizes, span, *scratch):
        spanned.append(span[0] < span[1])
        return bounds(terms, sizes, span, *scratch)

    monkeypatch.setattr(of.response, "_bounds", recorded)
    omegas = TWO_PI * np.linspace(5.7e9, 5.9e9, 257)
    exact = below = pruned = blocks = per_flux = 0
    for trial in range(4):
        p = random_params(rng) if trial > 1 else of.from_table1(1e6)
        cell = float(omegas[rng.integers(40, 217)])
        if trial % 2:  # the null of this channel's backward amplitude
            g, x, y = of.response.amplitude_terms(p, of.susceptibilities(p, cell), quantity)[1]
            hop, null_flux = abs(y) / abs(g * x), cmath.phase(-g * x / y)
        else:  # the null of backward phonon transport
            null = of.interference_condition(p, cell)
            hop, null_flux = null.mechanical_hop, null.flux
        p = replace(p, mechanical_hop=hop)
        g, x, y = of.response.amplitude_terms(p, of.susceptibilities(p, cell), quantity)[1]
        root = abs(y) / abs(g * x)
        own = getattr(p, coupling)
        values = [_ulps(own, int(k)) for k in rng.integers(-6, 7, size=4)]
        values += [1.7 * own, 0.4 * own]
        fluxes = [_ulps(null_flux, int(k)) for k in rng.integers(-6, 7, size=4)]
        fluxes += list(rng.uniform(-math.pi, math.pi, size=2))
        peak = of.response.amplitude_kernel(p, omegas, quantity, coupling)
        chi = of.susceptibilities(p, omegas)
        # runs of one value, as a coarse scan has, and single calls, as a descent has
        calls = [(values[int(i)], fluxes[int(j)])
                 for i, n in zip(rng.integers(0, len(values), size=30), rng.integers(1, 5, size=30))
                 for j in rng.integers(0, len(fluxes), size=int(n))]
        calls += [(values[int(i)], rng.choice(fluxes + list(rng.uniform(-math.pi, math.pi, 8)),
                                              size=int(n)))
                  for i, n in zip(rng.integers(0, len(values), size=12),
                                  rng.integers(1, 34, size=12))]
        for k in rng.permutation(len(calls)):
            value, flux = calls[k]
            point = replace(p, **{coupling: value})
            terms = of.response.amplitude_terms(point, chi, quantity)
            wants = [_full_peak(of.response.amplitude_db(terms, point.mechanical_hop, f))
                     for f in np.atleast_1d(flux)]
            db = np.fmax.reduce([want for want, _ in wants])
            floor = rng.choice([-math.inf, db, db + rng.uniform(-1e-9, 1e-9), db - 40.0,
                                db + 40.0, math.inf, float(np.nextafter(db, math.inf)),
                                wants[int(rng.integers(len(wants)))][0]])
            k = rng.integers(0, 7, size=2)
            span = [None, (value, value), (_ulps(value, -int(k[0])), _ulps(value, int(k[1]))),
                    (min(value, _ulps(root, -int(k[0]))), max(value, _ulps(root, int(k[1])))),
                    (min(value, 0.5 * root), max(value, 2.0 * root)), (0.5 * value, 2.0 * value),
                    (2.0 * value, 3.0 * value)][int(rng.integers(7))]
            del gathered[:]
            got = peak(value, flux, floor, span)
            pruned += bool(gathered)
            if np.ndim(flux):
                assert type(got) is list and len(got) == len(wants)
                blocks += 2 in gathered
                per_flux += 2 not in gathered
            else:
                got = [got]
            for (db, index), want in zip(got, wants):
                assert (type(db), type(index)) == (float, int)
                if not (want[0] >= floor) and db < floor:
                    below += 1
                    continue
                exact += 1
                assert np.float64(db).tobytes() == np.float64(want[0]).tobytes()
                assert index == want[1]
    # both sides of the contract, cells gathered past the bounds, and rows
    # scored as one block and one flux at a time were seen, and only a
    # kernel over V bounded spans
    assert exact and below and pruned and blocks and per_flux
    assert any(spanned) == (coupling == "mechanical_hop")


@pytest.mark.parametrize("quantity", of.QUANTITIES)
def test_a_span_bound_holds_each_bound_within_its_span(quantity):
    # the bounds of a span of V: cell by cell, the forward bound is at least
    # and the backward bound at most that of each V in the span, the ends
    # and a few ulps inside them included, and V at a cell's backward root
    # |Y_b| / |g X_b|, where that cell's own backward bound is 0; and both
    # bound the amplitudes at each such V and at any flux.  Spans around a
    # root straddle it for many cells, one side of it for the others
    rng = np.random.default_rng([23, of.QUANTITIES.index(quantity)])
    omegas = TWO_PI * np.linspace(5.7e9, 5.9e9, 257)
    spanned, lone = ([np.empty(omegas.size) for _ in range(3)] + [np.empty(omegas.size, bool)]
                     for _ in range(2))
    straddled = 0
    for trial in range(6):
        p = random_params(rng) if trial else of.from_table1(1e6)
        terms = of.response.amplitude_terms(p, of.susceptibilities(p, omegas), quantity)
        sizes = [np.abs(t) for _, x, y in terms for t in (x, y)]
        roots = sizes[3] / (abs(terms[1][0]) * sizes[2])
        root = float(roots[rng.integers(omegas.size)])
        for lo, hi in ((root, root), (0.5 * root, 2.0 * root), (_ulps(root, -3), _ulps(root, 3)),
                       (0.0, root), (root, 10.0 * root), (0.0, 0.0)):
            assert of.response._bounds(terms, sizes, (lo, hi), *spanned) is not None
            inside = roots[(lo < roots) & (roots < hi)]
            straddled += inside.size
            hops = [lo, _ulps(lo, 1), _ulps(lo, 2), _ulps(hi, -2), _ulps(hi, -1), hi,
                    *rng.uniform(lo, hi, size=4), *rng.choice(inside, min(inside.size, 4))]
            for hop in (h for h in hops if lo <= h <= hi):
                of.response._bounds(terms, sizes, (hop, hop), *lone)
                assert (spanned[1] >= lone[1]).all() and (spanned[2] <= lone[2]).all()
                for flux in rng.uniform(-math.pi, math.pi, size=3):
                    forward, backward = of.response._amplitudes(terms, hop, flux)
                    assert (forward <= spanned[1]).all() and (backward >= spanned[2]).all()
    assert straddled


def _row_paths(monkeypatch, db, fluxes, floor, infinite=False):
    """Score a row of ``fluxes`` at ``floor`` by hand-built terms: at V = 1,
    g = 1, X_f is 10^(db/20) a cell, X_b 1 and Y 0.01 in both directions,
    so that a cell's ratio stays within 0.2 dB of its ``db`` at every flux;
    ``infinite`` makes one X_f infinite.  Check every entry's contract;
    return the shape of the flux at each computation of gathered cells."""
    x_f = 10.0 ** (np.asarray(db) / 20.0) + 0j
    if infinite:
        x_f[5] = math.inf
    terms = ((1.0, x_f, 0.01), (1.0, np.ones_like(x_f), 0.01))
    shapes = []
    amplitudes = of.response._amplitudes

    def counted(terms, hop, flux, cells=slice(None)):
        if isinstance(cells, np.ndarray):
            shapes.append(np.shape(flux))
        return amplitudes(terms, hop, flux, cells)

    monkeypatch.setattr(of.response, "_amplitudes", counted)
    monkeypatch.setattr(of.response, "amplitude_terms", lambda *args: terms)
    omegas = np.linspace(1.0, 2.0, len(x_f))
    with np.errstate(invalid="ignore", over="ignore"):  # the infinite term
        got = of.response.amplitude_kernel(of.from_table1(1.0), omegas, of.PHONON,
                                           "mechanical_hop")(1.0, fluxes, floor)
        wants = [_full_peak(of.response.amplitude_db(terms, 1.0, f)) for f in fluxes]
    assert len(got) == len(fluxes)
    for (db, index), want in zip(got, wants):
        assert (type(db), type(index)) == (float, int)
        if want[0] >= floor or db >= floor:
            assert (np.float64(db).tobytes(), index) == (np.float64(want[0]).tobytes(), want[1])
    return shapes


def test_kernel_row_is_blocks_or_one_peak_per_flux(monkeypatch):
    # a row's survivors are found once, at its floor, and their amplitudes
    # computed at its fluxes in blocks of at most about an eighth of the
    # grid's cells (16 here), a lone flux as a scalar; a row that trips a
    # guard is scored by a full pass per flux, which gathers no cells.  128
    # cells at 0 to 127 dB, in a shuffled order
    db = (37 * np.arange(128)) % 128
    row, pair = np.linspace(-3.0, 3.0, 33), np.array([0.4, -1.1])
    # the 127 dB cell alone survives
    assert _row_paths(monkeypatch, db, row, 126.5) == [(16, 1), (16, 1), ()]
    assert _row_paths(monkeypatch, db, pair, 126.5) == [(2, 1)]
    # three cells survive: blocks of 5 fluxes, 15 cells
    assert _row_paths(monkeypatch, db, row, 124.5) == [(5, 1)] * 6 + [(3, 1)]
    # 37 cells survive, more than a quarter of the grid; no floor, as for the
    # first candidate of a scan; an infinite term, which leaves no bounds
    for fluxes, floor, infinite in ((pair, 90.5, False), (row, -math.inf, False),
                                    (row, 126.5, True)):
        assert _row_paths(monkeypatch, db, fluxes, floor, infinite) == []


def test_kernel_row_past_the_quarter_guard_searches_for_survivors_once(monkeypatch):
    # 37 of 128 cells reach a floor of 90.5 dB, more than a quarter: the
    # row's one search for survivors finds that, and its 33 fluxes are then
    # scored by full passes, with no new search at the same floor for each
    searches = []
    counting = types.ModuleType("numpy")
    counting.__dict__.update(vars(np))

    def greater_equal(*args, **kwargs):  # the test of the bounds against the level
        searches.append(args)
        return np.greater_equal(*args, **kwargs)

    counting.greater_equal = greater_equal
    monkeypatch.setattr(of.response, "np", counting)
    db = (37 * np.arange(128)) % 128
    assert _row_paths(monkeypatch, db, np.linspace(-3.0, 3.0, 33), 90.5) == []
    assert len(searches) == 1


def test_gathered_cells_give_the_full_arrays_bits():
    # a pruned peak applies np.multiply, np.add and np.abs to gathered cells
    # where the full pass applies them to every cell: each cell's bits must
    # not depend on its neighbours, length, alignment or the SIMD lane it
    # falls in
    rng = np.random.default_rng(11)
    n = 20001
    mags = 10.0 ** rng.uniform(-300, 300, size=(2, n))
    x, y = (m * np.exp(1j * rng.uniform(-math.pi, math.pi, size=n)) for m in mags)
    x[:5] = [0.0, 5e-324 + 3e-320j, math.inf, complex(math.nan, 1.0), -0.0]
    gv, w = 3.7e7, np.exp(1j * 2.1)
    full, amp = np.empty(n, complex), np.empty(n)
    with np.errstate(over="ignore", invalid="ignore"):  # the inf and nan cells
        np.multiply(gv, x, out=full)
        np.add(full, np.multiply(y, w), out=full)
        np.abs(full, out=amp)
        picks = [np.arange(n), np.arange(1, 40), np.arange(3, n, 7), np.array([n - 1]),
                 np.sort(rng.choice(n, 70, replace=False)), np.arange(n - 13, n)]
        picks += [np.sort(rng.choice(n, k, replace=False)) for k in range(1, 20)]
        for cells in picks:
            sums = np.add(np.multiply(gv, x[cells]), np.multiply(y[cells], w))
            assert sums.tobytes() == full[cells].tobytes()
            assert np.abs(sums).tobytes() == amp[cells].tobytes()


def test_phonon_kernel_keeps_only_the_fields_its_terms_read():
    # det_A reads chi_aL and chi_aR, so a phonon kernel that rebuilds its
    # terms keeps those two of the four susceptibilities (4 KB for objects)
    p = of.from_table1(520e3)
    omegas = TWO_PI * np.linspace(5.6e9, 6.1e9, 20001)

    def held(coupling):
        tracemalloc.start()
        try:
            kernel = of.response.amplitude_kernel(p, omegas, of.PHONON, coupling)
            return tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()

    assert held("G_L") <= held("mechanical_hop") + 2 * omegas.size * 16 + 4096


def test_isolation_db_of_no_frequencies_is_empty():
    # an empty grid gives an empty spectrum, with no sentinel to apply
    p = of.from_table1(1e6)
    for quantity in of.QUANTITIES:
        db = of.isolation_db(p, np.array([]), quantity)
        assert db.shape == (0,) and db.dtype == np.float64


def test_isolation_db_validates_quantity():
    with pytest.raises(ValueError):
        of.isolation_db(of.from_table1(1e6), TWO_PI * 5.8e9, "bogus")


def test_isolation_point_records_frequency():
    # one frequency in, one float out, equal to that entry of an array call
    omega = TWO_PI * 5.87e9
    p = of.from_table1(1e6, flux=0.3)
    value = of.isolation_db(p, omega, of.PHONON)
    assert isinstance(value, float) and math.isfinite(value)
    omegas = np.array([TWO_PI * 5.8e9, omega])
    assert of.isolation_db(p, omegas, of.PHONON)[1] == value


def test_phonon_isolation_matches_mechanical_block_ratio():
    p = of.from_table1(0.6e6, flux=-0.8)
    omega = TWO_PI * 5.895e9
    B_eff_inv = of.effective_blocks(p, omega)[2:, 2:]
    ratio_db = 20 * math.log10(abs(B_eff_inv[1, 0]) / abs(B_eff_inv[0, 1]))
    assert of.isolation_db(p, omega, of.PHONON) == pytest.approx(ratio_db, abs=1e-9)


def test_conversion_isolation_matches_conversion_blocks():
    p = of.from_table1(9e6, flux=1.9)
    omega = TWO_PI * 5.92e9
    inv = of.effective_blocks(p, omega)
    p2b = inv[2:, :2]
    b2p = inv[:2, 2:]
    assert of.isolation_db(p, omega, of.PHOTON_TO_PHONON) == pytest.approx(
        20 * math.log10(abs(p2b[1, 0]) / abs(p2b[0, 1])), abs=1e-9)
    assert of.isolation_db(p, omega, of.PHONON_TO_PHOTON) == pytest.approx(
        20 * math.log10(abs(b2p[1, 0]) / abs(b2p[0, 1])), abs=1e-9)

