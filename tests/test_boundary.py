"""The library boundary: every public entry takes its numbers through
``model.real``, which rejects a bool, a non-number, nan, +-inf, an int
beyond the float range and a value below the entry's bound with a ValueError
whose message begins with the argument's name.
"""

import math
import re
from dataclasses import replace

import numpy as np
import pytest

import optoflux as of
from optoflux.model import TWO_PI, real

P = of.from_table1(5e5)
P_G = replace(P, g_L=TWO_PI * 200.0, g_R=TWO_PI * 200.0)
OMEGA = TWO_PI * 5.85e9
GRID = of.FrequencyGrid.from_hz(5.8e9, 5.9e9, 3)

HOSTILE = {"True": True, "'1'": "1", "10**400": 10**400, "10**5000": 10**5000,
           "nan": math.nan, "inf": math.inf, "-inf": -math.inf, "2.5": 2.5}
REALS = ("True", "'1'", "10**400", "10**5000", "nan", "inf", "-inf")
# any int is an integer: the size of a count is capped where it is spent
# (the CLI's MAX_POINT_EVALUATIONS), not here
INTEGERS = ("True", "'1'", "nan", "inf", "-inf", "2.5")

# entry -> (call with the hostile value, the name its message begins with,
# a value below the entry's bound or None, the hostile values it is given)
ENTRIES = {
    "SystemParams": (lambda v: replace(P, G_L=v), "G_L", -1.0, REALS),
    "SystemParams positive": (lambda v: replace(P, omega_mL=v), "omega_mL", 0.0, REALS),
    "SystemParams phase": (lambda v: replace(P, phi_R=v), "phi_R", None, REALS),
    "with_flux": (lambda v: P.with_flux(v), "flux", None, REALS),
    "from_table1": (lambda v: of.from_table1(v), "mechanical_hop_hz", -1.0, REALS),
    "from_table1 flux": (lambda v: of.from_table1(5e5, v), "flux", None, REALS),
    **{entry: (lambda v, entry=entry: getattr(of, entry)(P, v), "omega", None, REALS)
       for entry in ("susceptibilities", "gamma_A", "interference_condition", "build_matrix",
                     "effective_blocks", "isolation_db")},
    "isolation_db array": (lambda v: of.isolation_db(P, [OMEGA, v]), "omega", None, REALS),
    "FrequencyGrid start": (lambda v: of.FrequencyGrid(v, 1.0, 3), "start", None, REALS),
    "FrequencyGrid stop": (lambda v: of.FrequencyGrid(0.0, v, 3), "stop", None, REALS),
    "FrequencyGrid points": (lambda v: of.FrequencyGrid(0.0, 1.0, v), "points", 1, INTEGERS),
    "FrequencyGrid.from_hz": (lambda v: of.FrequencyGrid.from_hz(v, 1.0, 3), "start_hz", None,
                              REALS),
    "flux_map": (lambda v: of.flux_map(P, of.PHONON, [0.0, v], GRID), "flux_grid", None, REALS),
    "tune flux_bounds": (lambda v: of.tune(P, of.PHONON, of.SearchSpace(
        flux_bounds=(v, 1.0), frequency_grid=GRID)), "flux_bounds", None, REALS),
    "tune aux_bounds": (lambda v: of.tune(P, of.PHONON, of.SearchSpace(
        flux_bounds=(0.0, 1.0), aux_name="G_L", aux_bounds=(v, 1.0), frequency_grid=GRID)),
        "aux_bounds", -1.0, REALS),
    "tune budget": (lambda v: of.tune(P, of.PHONON, of.SearchSpace(
        flux_bounds=(0.0, 1.0), frequency_grid=GRID, coarse_points=v)),
        "coarse_points", 0, INTEGERS),
    "steady_amplitudes phase": (lambda v: of.steady_amplitudes(P, (1.0, 1.0, v, 0.0)),
                                "drives", None, REALS),
    # a float amplitude goes into the field as it is: an infinite or nan one
    # makes a field beyond the float range, NoSolution naming that field
    "steady_amplitudes amplitude": (lambda v: of.steady_amplitudes(P, (v, 1.0, 0.0, 0.0)),
                                    "drives", None, ("True", "'1'", "10**400", "10**5000")),
    "drives_for_target_G": (lambda v: of.drives_for_target_G(P_G, (1.0, v)), "target",
                            -1.0, REALS),
}
CASES = [pytest.param(call, name, HOSTILE[label], id=f"{entry}-{label}")
         for entry, (call, name, below, labels) in ENTRIES.items() for label in labels]
CASES += [pytest.param(call, name, below, id=f"{entry}-below")
          for entry, (call, name, below, _) in ENTRIES.items() if below is not None]


@pytest.mark.parametrize("call, name, value", CASES)
def test_every_entry_rejects_a_hostile_number_by_name(call, name, value):
    with pytest.raises(ValueError) as info:
        call(value)
    message = str(info.value)
    assert message.startswith(name) and len(message) < 200, message


@pytest.mark.parametrize("phase", [2, 3])
@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_a_non_finite_drive_phase_is_invalid_input(phase, bad):
    # not NoSolution: the input is invalid, the field is never computed
    drives = [1.0, 1.0, 0.0, 0.0]
    drives[phase] = bad
    with pytest.raises(ValueError, match="^drives must be within the float range and must be "
                                         f"finite, got {bad!r}$"):
        of.steady_amplitudes(P, tuple(drives))


@pytest.mark.parametrize("call, name, bits", [
    (lambda: replace(P, optical_hop=10**5000), "optical_hop", 16610),
    (lambda: of.from_table1(5e5, 10**5000), "flux", 16610),
    (lambda: of.FrequencyGrid(0.0, 10**5000, 3), "stop", 16610),
    (lambda: of.drives_for_target_G(P_G, (10**5000, 1.0)), "target couplings[0]", 16610),
    # named flux, not phi_L, the field it would have set
    (lambda: of.from_table1(5e5, 10**400), "flux", 1329),
], ids=["SystemParams", "from_table1", "FrequencyGrid", "drives_for_target_G",
        "from_table1 flux"])
def test_an_int_beyond_the_float_range_is_named(call, name, bits):
    # shown by its size: the repr of one past 4,300 digits would raise
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value) == (f"{name} must be within the float range and must be "
                               f"finite, got an int of {bits} bits")


@pytest.mark.parametrize("entry", ["susceptibilities", "gamma_A", "interference_condition",
                                   "build_matrix", "effective_blocks"])
@pytest.mark.parametrize("omega", [math.inf, -math.inf, math.nan])
def test_a_non_finite_omega_is_rejected(entry, omega):
    # it used to give a matrix, a Gamma_A or a solution of nan and inf
    with pytest.raises(ValueError, match="^omega must be within the float range and must be "
                                         f"finite, got {omega!r}$"):
        getattr(of, entry)(P, omega)


def test_isolation_db_names_the_first_non_finite_omega():
    # before the kernel runs, so no numpy warning is raised
    with pytest.raises(ValueError, match=r"^omega must be .* finite, got -inf$"):
        of.isolation_db(P, np.array([OMEGA, -math.inf, math.nan]))


def test_real_returns_the_checked_number():
    # a float, numpy.float64 among them, comes back as it is, and so does a
    # float array where arrays are taken
    for value in (2.5, np.float64(2.5)):
        assert real("x", value) is value
    values = np.linspace(0.0, 1.0, 3)
    assert real("x", values, array=True) is values
    assert real("x", np.arange(3), array=True).dtype == np.float64
    assert real("x", (1, 2.5), array=True).tolist() == [1.0, 2.5]
    assert type(real("x", 3)) is float and real("x", 3) == 3.0
    assert real("x", 0.0, 0.0) == 0.0
    n = real("n", np.int64(3), 2, integer=True)
    assert type(n) is int and n == 3
    assert real("n", 10**5000, 2, integer=True) == 10**5000
    with pytest.raises(ValueError, match=r"^x must be a number > 0.0, got 0.0$"):
        real("x", 0.0, 0.0, above=True)
    with pytest.raises(ValueError, match=r"^x must be a number >= 0.0, got -1.0$"):
        real("x", np.array([1.0, -1.0]), 0.0, array=True)
    for value in ([1.0, True], np.array(True), np.array(["1.0"])):
        with pytest.raises(ValueError, match=r"^x must be a number, got "):
            real("x", value, array=True)
    with pytest.raises(ValueError, match=r"^n must be an integer >= 2, got 3.0$"):
        real("n", 3.0, 2, integer=True)


@pytest.mark.parametrize("call, name", [
    (lambda v: replace(P, G_L=v), "G_L"),
    (lambda v: P.with_flux(v), "flux"),
    (lambda v: of.FrequencyGrid(0.0, v, 3), "stop"),
    (lambda v: of.tune(P, of.PHONON, of.SearchSpace(flux_bounds=(v, 1.0))), "flux_bounds[0]"),
    (lambda v: of.steady_amplitudes(P, (1.0, 1.0, v, 0.0)), "drives"),
    (lambda v: of.drives_for_target_G(P_G, (v, 1.0)), "target couplings[0]"),
], ids=["SystemParams", "with_flux", "FrequencyGrid", "tune", "steady_amplitudes",
        "drives_for_target_G"])
@pytest.mark.parametrize("value", [[1.0], np.array([1.0, 2.0])], ids=["list", "array"])
def test_a_scalar_argument_rejects_a_sequence(call, name, value):
    with pytest.raises(ValueError, match=rf"^{re.escape(name)} must be a number"):
        call(value)


@pytest.mark.parametrize("value, shown", [
    ("9" * 100, "'" + "9" * 36 + "..."),
    (-(10**5000), "a negative int of 16610 bits"),
    (np.array([10**5000], dtype=object), "<ndarray>"),
], ids=["long string", "negative int", "array holding a huge int"])
def test_a_rejected_value_is_shown_in_at_most_40_characters(value, shown):
    with pytest.raises(ValueError) as info:
        real("x", value)
    assert str(info.value).endswith(f", got {shown}")
    assert len(shown) <= 40
