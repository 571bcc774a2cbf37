"""Steady-state intracavity amplitudes and drive-enhanced couplings.

With both cavities driven, the mean fields solve a coupled 2x2 linear system;
writing D_j = kappa_j/2 - i delta_j and den = D_L D_R + J^2,

    alpha_L = (D_R sqrt(kappa_eL) eps_L e^{2i phi_L}
               - iJ sqrt(kappa_eR) eps_R e^{i(phi_L + phi_R)}) / den
    alpha_R = (D_L sqrt(kappa_eR) eps_R e^{2i phi_R}
               - iJ sqrt(kappa_eL) eps_L e^{i(phi_L + phi_R)}) / den

The enhanced coupling magnitudes follow as G_j = g_j |alpha_j| with g_j the
vacuum optomechanical rate.  The mean-field shift of the detuning is
neglected (g_j is tiny), so the detunings of ``params`` are used as-is.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .errors import DegenerateBlock, NoSolution
from .model import DEGENERACY_RTOL, SystemParams, real


@dataclass(frozen=True)
class SteadyState:
    """Complex mean fields and the enhanced coupling magnitudes they imply."""

    alpha_L: complex
    alpha_R: complex
    G_L: float
    G_R: float


def _finite(name, value):
    """``value``, or NoSolution naming ``name`` when it is not finite."""
    if not cmath.isfinite(value):
        raise NoSolution(f"{name} = {value!r} is beyond the float range")
    return value


def _coupling(name, g, alpha):
    """The enhanced coupling ``g |alpha|``, or NoSolution when it is not finite."""
    try:
        return _finite(name, g * abs(alpha))
    except OverflowError:  # |alpha| beyond the float range, both its parts within
        raise NoSolution(f"{name}: |alpha| is beyond the float range") from None


def drive_response_matrix(params: SystemParams, phi_L: float, phi_R: float):
    """2x2 complex map T with (alpha_L, alpha_R) = T . (eps_L, eps_R).

    Raises :class:`DegenerateBlock` when the common denominator vanishes,
    which needs both optical decays zero with on-resonance drives.
    """
    J = params.optical_hop
    d_L = params.kappa_L / 2.0 - 1j * params.detuning_L
    d_R = params.kappa_R / 2.0 - 1j * params.detuning_R
    den = d_L * d_R + J * J
    scale = abs(d_L) * abs(d_R) + J * J
    if scale == 0.0 or abs(den) < DEGENERACY_RTOL * scale:
        raise DegenerateBlock(f"steady-state denominator {den!r} vanishes")
    cross = -1j * J * cmath.exp(1j * (phi_L + phi_R))
    root_eL = math.sqrt(params.kappa_eL)
    root_eR = math.sqrt(params.kappa_eR)
    return (
        (d_R * root_eL * cmath.exp(2j * phi_L) / den, cross * root_eR / den),
        (cross * root_eL / den, d_L * root_eR * cmath.exp(2j * phi_R) / den),
    )


def steady_amplitudes(params: SystemParams, drives) -> SteadyState:
    """Mean fields for given drives ``(eps_L, eps_R, phi_L, phi_R)``.

    Drive amplitudes may be complex (a complex eps is the same drive with an
    extra phase folded in); phases are radians.  Enhanced couplings use the
    vacuum couplings stored on ``params``.

    Raises :class:`NoSolution` naming a field or coupling that passes the
    float range, and ValueError naming ``drives`` for a phase that is not a
    finite real number.  A float or complex amplitude goes into the fields as
    it is (an infinite one makes a field beyond the float range); any other
    amplitude must be a real number within the float range.
    """
    eps_L, eps_R, phi_L, phi_R = drives
    eps_L, eps_R = (eps if isinstance(eps, (float, complex)) else real("drives", eps)
                    for eps in (eps_L, eps_R))
    t = drive_response_matrix(params, real("drives", phi_L), real("drives", phi_R))
    alpha_L = _finite("alpha_L", t[0][0] * eps_L + t[0][1] * eps_R)
    alpha_R = _finite("alpha_R", t[1][0] * eps_L + t[1][1] * eps_R)
    return SteadyState(
        alpha_L=alpha_L,
        alpha_R=alpha_R,
        G_L=_coupling("G_L", params.g_L, alpha_L),
        G_R=_coupling("G_R", params.g_R, alpha_R),
    )


def drives_for_target_G(params: SystemParams, target) -> tuple:
    """Drive amplitudes that realise target enhanced couplings ``(G_L, G_R)``.

    Only the magnitudes G_j are contractual.  The target complex fields are
    given the phases the forward map produces at unit drives, then the 2x2
    system is solved exactly, so a forward round trip reproduces the targets
    to machine precision.  The returned amplitudes are real and positive for
    decoupled cavities (J = 0) and complex in general.

    Raises :class:`NoSolution` when the drive map is singular (for example a
    zero external coupling) and a nonzero target makes that matter, or when
    a field or drive passes the float range.
    """
    target_L, target_R = (real(f"target couplings[{i}]", g, 0.0) for i, g in enumerate(target))
    if target_L == 0.0 and target_R == 0.0:
        return (0j, 0j)
    if target_L > 0.0 and params.g_L == 0.0:
        raise ValueError("left vacuum coupling is zero but target G_L > 0")
    if target_R > 0.0 and params.g_R == 0.0:
        raise ValueError("right vacuum coupling is zero but target G_R > 0")

    t = drive_response_matrix(params, params.phi_L, params.phi_R)
    det = t[0][0] * t[1][1] - t[0][1] * t[1][0]
    scale = abs(t[0][0] * t[1][1]) + abs(t[0][1] * t[1][0])
    if scale == 0.0 or abs(det) < DEGENERACY_RTOL * scale:
        raise NoSolution("drive map is singular for these phases and couplings")

    unit_L = t[0][0] + t[0][1]
    unit_R = t[1][0] + t[1][1]
    phase_L = cmath.exp(1j * cmath.phase(unit_L)) if unit_L != 0 else 1.0
    phase_R = cmath.exp(1j * cmath.phase(unit_R)) if unit_R != 0 else 1.0
    alpha_L = _finite("alpha_L", (target_L / params.g_L) * phase_L if target_L > 0.0 else 0j)
    alpha_R = _finite("alpha_R", (target_R / params.g_R) * phase_R if target_R > 0.0 else 0j)

    eps_L = _finite("eps_L", (t[1][1] * alpha_L - t[0][1] * alpha_R) / det)
    eps_R = _finite("eps_R", (t[0][0] * alpha_R - t[1][0] * alpha_L) / det)
    return (eps_L, eps_R)
