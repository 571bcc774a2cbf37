"""Physical parameter model of the two-cavity optomechanical plaquette.

Two optical modes (a_L, a_R) hop with amplitude J, two mechanical modes
(b_L, b_R) hop with amplitude V, and on each site a drive-enhanced
optomechanical coupling G_j with drive phase phi_j connects light to sound.
The gauge-invariant synthetic flux around the four-mode loop is
phi = phi_L - phi_R.

Unit conventions
----------------
All stored rates and frequencies are angular (rad/s).  A frequency in Hz is
multiplied by 2*pi exactly once, where it comes in: by a constructor whose
argument names end in ``_hz``, or by the scenario front end
(:mod:`~optoflux.cli`, whose ``_scale`` and builders convert the ``_hz`` keys).
Phases are radians, stored as given (wrap to (-pi, pi] only for display, see
:func:`wrap_phase`).
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass, replace

from .errors import DegenerateBlock

TWO_PI = 2.0 * math.pi

# The constants below are read by the numeric modules and by scenario
# validation alike; they live here, with no numpy import, so that validation
# and steady-state runs never load numpy.

#: relative threshold below which a pivot or determinant counts as vanished
DEGENERACY_RTOL = 1e-14

# the three isolation channels (see :mod:`~optoflux.response`)
PHONON = "phonon"
PHOTON_TO_PHONON = "photon_to_phonon"
PHONON_TO_PHOTON = "phonon_to_photon"
QUANTITIES = (PHONON, PHOTON_TO_PHONON, PHONON_TO_PHOTON)

#: SystemParams fields the tune search may vary besides the flux
AUX_PARAMETERS = ("mechanical_hop", "optical_hop", "G_L", "G_R")

# default probe band, frequency points and flux points of spectra and maps
DEFAULT_FREQ_START_HZ = 5.6e9
DEFAULT_FREQ_STOP_HZ = 6.1e9
DEFAULT_FREQ_POINTS = 2001
DEFAULT_FLUX_POINTS = 401

# default budget of the tune search (see optimize.SearchSpace)
DEFAULT_COARSE_POINTS = 33
DEFAULT_GOLDEN_ITERATIONS = 40
DEFAULT_DESCENT_SWEEPS = 3


def wrap_phase(phi: float) -> float:
    """Map a phase to the display interval (-pi, pi]."""
    w = (phi + math.pi) % TWO_PI - math.pi
    if w == -math.pi:
        return math.pi
    return w


def _shown(value):
    """``repr(value)``, cut to 40 characters; an int past the float range by
    its size, as the repr of one past 4,300 digits raises."""
    if isinstance(value, int) and value.bit_length() > 1024:
        return f"{'a negative' if value < 0 else 'an'} int of {value.bit_length()} bits"
    try:
        text = repr(value)
    except ValueError:  # a container that holds such an int
        text = f"<{type(value).__name__}>"
    return text if len(text) <= 40 else text[:37] + "..."


def real(name, value, minimum=None, *, above=False, integer=False, array=False):
    """``value`` checked where it enters the library: a float (one such as
    numpy.float64 comes back as it is), an int if ``integer`` is set, or if
    ``array`` is set a float ndarray from an ndarray, list or tuple, numpy
    being loaded (this module never imports it).  A ValueError that begins
    with ``name`` rejects a bool, a non-number or an array not asked for, a
    non-integer if ``integer`` is set, nan, +-inf, an int beyond the float
    range (any int is an integer), and a value below ``minimum``, or at it
    if ``above`` is set.
    """
    if isinstance(value, float) and not integer:  # the common case first
        number = value
    elif array and (numpy := sys.modules.get("numpy")) and isinstance(value, (list, tuple)):
        # entry by entry, so a bool, a string or a huge int is named as one
        return numpy.array([real(name, v, minimum, above=above, array=True) for v in value])
    elif array and numpy and isinstance(value, numpy.ndarray) and value.dtype.kind in "fiu":
        values = value.astype(float, copy=False)
        good = numpy.isfinite(values)
        if minimum is not None:
            good &= values > minimum if above else values >= minimum
        if good.all():
            return values
        value = number = float(values[~good][0])  # the first bad entry, rejected below
    elif isinstance(value, bool) or not isinstance(value, numbers.Integral if integer
                                                   else numbers.Real):
        number = None
    else:
        try:
            number = int(value) if integer else float(value)
        except OverflowError:  # an int beyond the float range
            number = math.inf
    if number is not None and not (integer or math.isfinite(number)):
        raise ValueError(f"{name} must be within the float range and must be finite, "
                         f"got {_shown(value)}")
    if number is None or (minimum is not None
                          and (number <= minimum if above else number < minimum)):
        bound = "" if minimum is None else f" {'>' if above else '>='} {minimum}"
        raise ValueError(f"{name} must be {'an integer' if integer else 'a number'}{bound}, "
                         f"got {_shown(value)}")
    return number


def pair(name, value):
    """The two items of ``value``; a ValueError that begins with ``name`` if not two."""
    try:
        first, second = value
    except (TypeError, ValueError):  # not iterable, or not two items
        raise ValueError(f"{name} must be a pair, got {_shown(value)}") from None
    return first, second


# validated in SystemParams.__post_init__; every field is in exactly one tuple
_NONNEGATIVE = ("kappa_eL", "kappa_eR", "kappa_iL", "kappa_iR",
                "gamma_eL", "gamma_eR", "gamma_iL", "gamma_iR",
                "optical_hop", "mechanical_hop", "G_L", "G_R", "g_L", "g_R")
_POSITIVE = ("omega_mL", "omega_mR")
_FINITE = ("detuning_L", "detuning_R", "phi_L", "phi_R")


@dataclass(frozen=True)
class SystemParams:
    """Complete parameter set of the plaquette, one angular field per rate.

    Per site j in {L, R}: mechanical frequency omega_mj, optical decay split
    kappa_ej / kappa_ij, mechanical decay split gamma_ej / gamma_ij, drive
    phase phi_j and single-photon optomechanical coupling g_j (used only by
    steady-state calculations).  Hop amplitudes and enhanced couplings are
    magnitudes (>= 0); all phase information lives in the drive phases.
    Detunings are laser-relative (delta_j = omega_drive - omega_cavity) and
    are stored explicitly so that non-red-detuned setups remain expressible.
    Each field holds the float :func:`real` makes of its value: a bool, a
    non-number, nan, +-inf or an int beyond the float range is a ValueError
    naming the field.  Override a field with ``dataclasses.replace``.
    """

    omega_mL: float
    omega_mR: float
    kappa_eL: float
    kappa_eR: float
    kappa_iL: float
    kappa_iR: float
    gamma_eL: float
    gamma_eR: float
    gamma_iL: float
    gamma_iR: float
    optical_hop: float
    mechanical_hop: float
    G_L: float
    G_R: float
    detuning_L: float
    detuning_R: float
    phi_L: float = 0.0
    phi_R: float = 0.0
    g_L: float = 0.0
    g_R: float = 0.0

    def __post_init__(self):
        for names, low, above in ((_NONNEGATIVE, 0.0, False), (_POSITIVE, 0.0, True),
                                  (_FINITE, None, False)):
            for name in names:
                object.__setattr__(self, name, real(name, getattr(self, name), low, above=above))

    @classmethod
    def red_detuned(cls, **fields) -> "SystemParams":
        """Build with the red-detuned operating point delta_j = -omega_mj."""
        return cls(detuning_L=-real("omega_mL", fields["omega_mL"]),
                   detuning_R=-real("omega_mR", fields["omega_mR"]), **fields)

    @property
    def kappa_L(self) -> float:
        return self.kappa_eL + self.kappa_iL

    @property
    def kappa_R(self) -> float:
        return self.kappa_eR + self.kappa_iR

    @property
    def gamma_L(self) -> float:
        return self.gamma_eL + self.gamma_iL

    @property
    def gamma_R(self) -> float:
        return self.gamma_eR + self.gamma_iR

    @property
    def synthetic_flux(self) -> float:
        return self.phi_L - self.phi_R

    def with_flux(self, flux: float) -> "SystemParams":
        """Copy with phi_L moved so that phi_L - phi_R equals ``flux``."""
        return replace(self, phi_L=self.phi_R + real("flux", flux))

    def carried_flux(self, flux):
        """``with_flux(flux).synthetic_flux``, rounded as phi_L rounds it;
        ``flux`` may be an array, so sweeps need no copy per value."""
        return (self.phi_R + flux) - self.phi_R


@dataclass(frozen=True, eq=False)
class Susceptibilities:
    """The four inverse susceptibilities at one probe frequency.

    chi_aj_inv = -i(omega + delta_j) + kappa_j/2
    chi_bj_inv = -i(omega - omega_mj) + gamma_j/2

    Decay enters only the real part, detuning only the imaginary part.
    Fields are complex scalars for scalar omega and complex arrays when the
    probe frequency was an array.
    """

    chi_aL_inv: complex
    chi_aR_inv: complex
    chi_bL_inv: complex
    chi_bR_inv: complex


def susceptibilities(params: SystemParams, omega) -> Susceptibilities:
    """Evaluate the four inverse susceptibilities at probe frequency omega.

    ``omega`` may be a float or an ndarray; the result broadcasts.  Total
    function of its inputs, no side effects.
    """
    omega = real("omega", omega, array=True)
    return Susceptibilities(
        chi_aL_inv=-1j * (omega + params.detuning_L) + params.kappa_L / 2.0,
        chi_aR_inv=-1j * (omega + params.detuning_R) + params.kappa_R / 2.0,
        chi_bL_inv=-1j * (omega - params.omega_mL) + params.gamma_L / 2.0,
        chi_bR_inv=-1j * (omega - params.omega_mR) + params.gamma_R / 2.0,
    )


def check_det(name, det, scale):
    """:class:`DegenerateBlock` if the determinant ``det`` (``name``) leaves
    the float range or vanishes against ``scale``, the sum of its terms' sizes."""
    if not (abs(det) < math.inf and scale < math.inf):  # nan too
        raise DegenerateBlock(f"{name} = {det!r} is beyond the float range at this frequency")
    if abs(det) < DEGENERACY_RTOL * scale or scale == 0.0:
        raise DegenerateBlock(f"{name} = {det!r} vanishes at this frequency")


def optical_det(chi, J):
    """det(A) = chi_aL_inv chi_aR_inv + J^2 of the optical block
    A = [[chi_aL_inv, iJ], [iJ, chi_aR_inv]]; broadcasts over array-valued chi."""
    return chi.chi_aR_inv * chi.chi_aL_inv + J * J


def checked_optical_det(chi, J) -> complex:
    """:func:`optical_det` at one frequency; :class:`DegenerateBlock` if it
    vanishes or leaves the float range."""
    det_A = optical_det(chi, J)
    check_det("det_A", det_A, abs(chi.chi_aR_inv) * abs(chi.chi_aL_inv) + J * J)
    return det_A


# Reference parameter set (the "table1" preset of the CLI): rates in Hz as
# commonly quoted for a microwave-frequency two-cavity optomechanical chip.
# The mechanical hop V is deliberately not part of the preset and must be
# supplied by the caller; the interference tuning in `optimize` is the usual
# way to pick it.
TABLE1_HZ = {
    "optical_hop": 110e6,
    "G_L": 33e6,
    "G_R": 31e6,
    "omega_mL": 5.7884e9,
    "omega_mR": 5.7791e9,
    "kappa_eL": 0.74e9,
    "kappa_eR": 0.44e9,
    "kappa_iL": 0.29e9,
    "kappa_iR": 0.31e9,
    "gamma_eL": 4.3e6,
    "gamma_eR": 5.7e6,
    "gamma_iL": 1.0e6,
    "gamma_iR": 1.2e6,
}


def from_table1(mechanical_hop_hz: float, flux: float = 0.0) -> SystemParams:
    """Reference red-detuned parameter set with caller-chosen mechanical hop.

    ``mechanical_hop_hz`` is V in Hz (converted to angular internally) and
    ``flux`` is the synthetic flux in radians, realised as phi_L = flux,
    phi_R = 0.
    """
    fields = {name: TWO_PI * value for name, value in TABLE1_HZ.items()}
    hop = TWO_PI * real("mechanical_hop_hz", mechanical_hop_hz, 0.0)
    return SystemParams.red_detuned(mechanical_hop=hop, phi_L=real("flux", flux), **fields)
