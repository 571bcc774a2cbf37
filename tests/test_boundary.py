"""The library boundary, in one table: every public entry takes its numbers
through ``model.real``, which rejects a bool, a non-number, nan, +-inf, an int
beyond the float range and a value below the entry's bound with a ValueError
whose message begins with the argument's name; a count above sys.maxsize is
rejected where it is spent, and a pair argument that is not a pair by
``model.pair``.  The table asserts each whole message.
"""

import math
import re
import sys
from dataclasses import fields, replace

import numpy as np
import pytest

import optoflux as of
from optoflux.model import TABLE1_HZ, TWO_PI, real

P = of.from_table1(5e5)
P_G = replace(P, g_L=TWO_PI * 200.0, g_R=TWO_PI * 200.0)
OMEGA = TWO_PI * 5.85e9
GRID = of.FrequencyGrid.from_hz(5.8e9, 5.9e9, 3)
TABLE1 = {name: TWO_PI * hz for name, hz in TABLE1_HZ.items()}  # red_detuned's fields but V

HOSTILE = {"True": True, "'1'": "1", "'3'": "3", "None": None, "2.5": 2.5, "3.0": 3.0,
           "nan": math.nan, "inf": math.inf, "-inf": -math.inf,
           "sys.maxsize + 1": sys.maxsize + 1, "10**400": 10**400, "10**5000": 10**5000}
REALS = ("True", "'1'", "10**400", "10**5000", "nan", "inf", "-inf")
# a count is an int up to sys.maxsize, the most an array or a loop can spend;
# a larger one is rejected where it is spent, not by model.real, so that the
# CLI's cap on kernel point evaluations answers first
INTEGERS = ("True", "'1'", "'3'", "nan", "inf", "-inf", "2.5", "3.0", "None",
            "sys.maxsize + 1", "10**400")
# a float or complex amplitude goes into the field as it is: an infinite or
# nan one makes a field beyond the float range, NoSolution naming that field
AMPLITUDES = ("True", "'1'", "10**400", "10**5000")

# each SystemParams field's bound and a value below it: every field is a
# magnitude (-1.0 below, -2.0 for g_L) but the mechanical frequencies, which
# are positive, and the detunings and phases, which may be any number
BOUNDS = {"omega_mL": ("> 0.0", 0.0), "omega_mR": ("> 0.0", 0.0), "g_L": (">= 0.0", -2.0),
          **dict.fromkeys(("detuning_L", "detuning_R", "phi_L", "phi_R"), ("", None))}
# the three fields that had the only SystemParams rows keep their rows' ids
ROWS = {"G_L": "SystemParams", "omega_mL": "SystemParams positive", "phi_R": "SystemParams phase"}


def _steady(i, value):
    drives = [1.0, 1.0]
    drives[i] = value
    return of.steady_amplitudes(P, tuple(drives))


def _tune(flux_bounds=(0.0, 1.0), **space):
    return of.tune(P, of.PHONON, of.SearchSpace(flux_bounds=flux_bounds, frequency_grid=GRID,
                                                **space))


# entry -> (call with the hostile value, the name its message begins with,
# its bound, a value below it or None, the hostile values it is given)
ENTRIES = {
    **{ROWS.get(f.name, f"SystemParams {f.name}"):
       (lambda v, name=f.name: replace(P, **{name: v}), f.name,
        *BOUNDS.get(f.name, (">= 0.0", -1.0)), REALS) for f in fields(of.SystemParams)},
    # negated into the detunings before SystemParams checks them
    **{f"red_detuned {name}": (lambda v, name=name: of.SystemParams.red_detuned(
        mechanical_hop=0.0, **{**TABLE1, name: v}), name, "", None, REALS)
       for name in ("omega_mL", "omega_mR")},
    "with_flux": (lambda v: P.with_flux(v), "flux", "", None, REALS),
    "from_table1": (lambda v: of.from_table1(v), "mechanical_hop_hz", ">= 0.0", -1.0, REALS),
    "from_table1 flux": (lambda v: of.from_table1(5e5, v), "flux", "", None, REALS),
    **{entry: (lambda v, entry=entry: getattr(of, entry)(P, v), "omega", "", None, REALS)
       for entry in ("susceptibilities", "gamma_A", "interference_condition", "build_matrix",
                     "effective_blocks", "isolation_db")},
    "isolation_db array": (lambda v: of.isolation_db(P, [OMEGA, v]), "omega", "", None, REALS),
    "FrequencyGrid start": (lambda v: of.FrequencyGrid(v, 1.0, 3), "start", "", None, REALS),
    "FrequencyGrid stop": (lambda v: of.FrequencyGrid(0.0, v, 3), "stop", "", None, REALS),
    "FrequencyGrid points": (lambda v: of.FrequencyGrid(0.0, 1.0, v), "points", ">= 2", 1,
                             INTEGERS),
    "FrequencyGrid.from_hz": (lambda v: of.FrequencyGrid.from_hz(v, 1.0, 3), "start_hz", "",
                              None, REALS),
    "flux_map": (lambda v: of.flux_map(P, of.PHONON, [0.0, v], GRID), "flux_grid", "", None,
                 REALS),
    "tune flux_bounds": (lambda v: _tune((v, 1.0)), "flux_bounds[0]", "", None, REALS),
    "tune flux_bounds [1]": (lambda v: _tune((0.0, v)), "flux_bounds[1]", "", None, REALS),
    "tune aux_bounds": (lambda v: _tune(aux_name="G_L", aux_bounds=(v, 1.0)), "aux_bounds[0]",
                        ">= 0.0", -1.0, REALS),
    "tune aux_bounds [1]": (lambda v: _tune(aux_name="G_L", aux_bounds=(0.0, v)),
                            "aux_bounds[1]", ">= 0.0", -1.0, REALS),
    "tune budget": (lambda v: _tune(coarse_points=v), "coarse_points", ">= 1", 0, INTEGERS),
    "tune golden_iterations": (lambda v: _tune(golden_iterations=v), "golden_iterations",
                               ">= 0", -1, INTEGERS),
    "tune descent_sweeps": (lambda v: _tune(descent_sweeps=v), "descent_sweeps", ">= 0", -1,
                            INTEGERS),
    "steady_amplitudes amplitude": (lambda v: _steady(0, v), "drives", "", None, AMPLITUDES),
    "steady_amplitudes amplitude [1]": (lambda v: _steady(1, v), "drives", "", None,
                                        AMPLITUDES),
    # a steady state's drive phases are SystemParams fields; these rows keep
    # the ids of the phases' old places in drives
    "steady_amplitudes phase": (lambda v: of.steady_amplitudes(replace(P, phi_L=v), (1.0, 1.0)),
                                "phi_L", "", None, REALS),
    "steady_amplitudes phase [3]": (lambda v: of.steady_amplitudes(replace(P, phi_R=v),
                                                                   (1.0, 1.0)),
                                    "phi_R", "", None, REALS),
    "drives_for_target_G": (lambda v: of.drives_for_target_G(P_G, (1.0, v)),
                            "target couplings[1]", ">= 0.0", -1.0, REALS),
    "drives_for_target_G [0]": (lambda v: of.drives_for_target_G(P_G, (v, 1.0)),
                                "target couplings[0]", ">= 0.0", -1.0, REALS),
}


def _message(name, bound, value, integer):
    """The whole message with which an entry rejects ``value``."""
    if isinstance(value, int) and value > (sys.maxsize if integer else sys.float_info.max):
        reason = ("an integer <= sys.maxsize" if integer
                  else "within the float range and must be finite")
        return f"{name} must be {reason}, got an int of {value.bit_length()} bits"
    if isinstance(value, float) and not (integer or math.isfinite(value)):
        return f"{name} must be within the float range and must be finite, got {value!r}"
    kind = ("an integer" if integer else "a number") + (f" {bound}" if bound else "")
    return f"{name} must be {kind}, got {value!r}"


CASES = [pytest.param(call, _message(name, bound, HOSTILE[label], labels is INTEGERS),
                      HOSTILE[label], id=f"{entry}-{label}")
         for entry, (call, name, bound, below, labels) in ENTRIES.items() for label in labels]
CASES += [pytest.param(call, _message(name, bound, below, labels is INTEGERS), below,
                       id=f"{entry}-below")
          for entry, (call, name, bound, below, labels) in ENTRIES.items() if below is not None]


@pytest.mark.parametrize("call, message, value", CASES)
def test_every_entry_rejects_a_hostile_number_by_name(call, message, value):
    with pytest.raises(ValueError) as info:
        call(value)
    assert str(info.value) == message


def test_a_count_may_be_a_numpy_integer():
    assert of.FrequencyGrid(0.0, 1.0, np.int64(3)).values().shape == (3,)


# ids are the phases' old places in drives, before they moved to SystemParams
@pytest.mark.parametrize("phase", ["phi_L", "phi_R"], ids=["2", "3"])
@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_a_non_finite_drive_phase_is_invalid_input(phase, bad):
    # not NoSolution: the input is invalid, the field is never computed
    with pytest.raises(ValueError, match=f"^{phase} must be within the float range and must be "
                                         f"finite, got {bad!r}$"):
        of.steady_amplitudes(replace(P, **{phase: bad}), (1.0, 1.0))


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
    (lambda v: of.steady_amplitudes(P, (v, 1.0)), "drives"),
    (lambda v: of.drives_for_target_G(P_G, (v, 1.0)), "target couplings[0]"),
    *((lambda v, entry=entry: getattr(of, entry)(P, v), "omega")
      for entry in ("gamma_A", "interference_condition", "build_matrix", "effective_blocks")),
], ids=["SystemParams", "with_flux", "FrequencyGrid", "tune", "steady_amplitudes",
        "drives_for_target_G", "gamma_A", "interference_condition", "build_matrix",
        "effective_blocks"])
@pytest.mark.parametrize("value", [[1.0], np.array([1.0, 2.0])], ids=["list", "array"])
def test_a_scalar_argument_rejects_a_sequence(call, name, value):
    with pytest.raises(ValueError, match=rf"^{re.escape(name)} must be a number"):
        call(value)


@pytest.mark.parametrize("call, name", [
    (lambda v: _tune(v), "flux_bounds"),
    (lambda v: _tune(aux_name="G_L", aux_bounds=v), "aux_bounds"),
    (lambda v: of.drives_for_target_G(P_G, v), "target couplings"),
    (lambda v: of.steady_amplitudes(P, v), "drives"),
], ids=["flux_bounds", "aux_bounds", "target couplings", "drives"])
@pytest.mark.parametrize("value", [0.0, (0.0,), (1, 2, 3), (1.0, 1.0, 0.0, 0.0)],
                         ids=["number", "one", "three", "old drives"])
def test_a_pair_argument_rejects_a_non_pair(call, name, value):
    # the old drives (eps_L, eps_R, phi_L, phi_R) too, now that the phases
    # are the params'
    with pytest.raises(ValueError) as info:
        call(value)
    assert str(info.value) == f"{name} must be a pair, got {value!r}"


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
