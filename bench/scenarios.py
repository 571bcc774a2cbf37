"""Seeded scenario files for the four benchmark workloads.

The seed moves physics values only: the interference seed frequency (which
fixes V* and flux*), the tune flux window and the steady-state drives and
targets.  Grid sizes and search budgets are constants, so the cost of a run
does not depend on the seed.

DEFAULT_SEED reproduces acceptance criterion 6: the seed frequency sits half
a grid step above 5.9 GHz, giving mechanical_hop_hz = 515709.8644424447 and
flux_pi = -0.1585105713191547, whose phonon spectrum peaks at
65.17105013742537 dB.
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass

import numpy as np
import yaml

TWO_PI = 2.0 * math.pi

DEFAULT_SEED = 0
WORKLOADS = ("fluxmap_csv", "fluxmap_json", "tune_2d", "cli_small")

BAND_HZ = (5.6e9, 6.1e9)
SPECTRUM_POINTS = 2001
FLUX_POINTS = 401
# the photon->phonon nulls are narrower than the 250 kHz default step
TUNE_POINTS = 20001
TUNE_AUX_BOUNDS_HZ = [1e6, 60e6]
# seed frequencies stay within +-50 MHz of 5.9 GHz, where every tuned
# spectrum peaks above 60 dB
SEED_OFFSET_STEPS = 200

# the "table1" preset rates in Hz, restated so that neither the inputs nor
# the steady-state check depend on the code under test
TABLE1_HZ = {"optical_hop": 110e6, "G_L": 33e6, "G_R": 31e6,
             "omega_mL": 5.7884e9, "omega_mR": 5.7791e9,
             "kappa_eL": 0.74e9, "kappa_eR": 0.44e9,
             "kappa_L": 0.74e9 + 0.29e9, "kappa_R": 0.44e9 + 0.31e9}

TINY = {"spectrum": 41, "flux": 9, "tune": 201,
        "budget": {"coarse_points": 5, "golden_iterations": 4, "descent_sweeps": 1}}


@dataclass(frozen=True)
class Scenario:
    """One scenario file of a workload: a short name and its YAML mapping."""

    name: str
    config: dict

    @property
    def output_format(self) -> str:
        return self.config["output"]["format"]

    def write(self, directory) -> tuple:
        """Write the YAML into ``directory``; return (config path, output path)."""
        out = f"{directory}/{self.name}.{self.output_format}"
        config = dict(self.config, output={"path": out, "format": self.output_format})
        path = f"{directory}/{self.name}.yaml"
        with open(path, "w", encoding="utf-8") as fh:
            yaml.safe_dump(config, fh, sort_keys=False)
        return path, out


def tuned_point(seed_index: int) -> tuple:
    """(V* in Hz, flux* in units of pi) nulling backward phonon transport
    half a grid step above point ``seed_index`` of the default grid."""
    omega = np.linspace(TWO_PI * BAND_HZ[0], TWO_PI * BAND_HZ[1], SPECTRUM_POINTS)
    seed = float(0.5 * (omega[seed_index] + omega[seed_index + 1]))
    w = {key: TWO_PI * value for key, value in TABLE1_HZ.items()}
    # Gamma_A = J G_L G_R / det_A with red-detuned optics (delta_j = -omega_mj)
    chi_aL_inv = -1j * (seed - w["omega_mL"]) + w["kappa_L"] / 2.0
    chi_aR_inv = -1j * (seed - w["omega_mR"]) + w["kappa_R"] / 2.0
    J = w["optical_hop"]
    gamma_A = J * w["G_L"] * w["G_R"] / (chi_aR_inv * chi_aL_inv + J * J)
    return abs(gamma_A) / TWO_PI, -cmath.phase(gamma_A) / math.pi


def _grid(points):
    return {"start_hz": BAND_HZ[0], "stop_hz": BAND_HZ[1], "points": points}


def _physics(seed: int) -> dict:
    """Seed-dependent physics values; DEFAULT_SEED gives the reference ones."""
    omega = np.linspace(TWO_PI * BAND_HZ[0], TWO_PI * BAND_HZ[1], SPECTRUM_POINTS)
    k0 = int(np.argmin(np.abs(omega - TWO_PI * 5.9e9)))
    if seed == DEFAULT_SEED:
        return {"seed_index": k0, "flux_window_start_pi": 1.0,
                "vacuum_coupling_hz": [1000.0, 1000.0],
                "target_enhanced_coupling_hz": [33e6, 31e6],
                "drive_amplitude": [1e8, 1e8]}
    rng = random.Random(seed)
    return {
        "seed_index": k0 + rng.randint(-SEED_OFFSET_STEPS, SEED_OFFSET_STEPS),
        "flux_window_start_pi": round(rng.uniform(0.5, 1.5), 6),
        "vacuum_coupling_hz": [10 ** rng.uniform(2.0, 4.0) for _ in range(2)],
        "target_enhanced_coupling_hz": [10 ** rng.uniform(6.5, 7.8) for _ in range(2)],
        "drive_amplitude": [10 ** rng.uniform(7.0, 9.0) for _ in range(2)],
    }


def scenarios(workload: str, seed: int, tiny: bool = False) -> list:
    """The scenario files one rotation of ``workload`` runs, in order.

    ``tiny`` shrinks every grid and budget for smoke tests; the physics
    values stay those of ``seed``.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}, expected one of {WORKLOADS}")
    phys = _physics(seed)
    v_hz, flux_pi = tuned_point(phys["seed_index"])
    tuned = {"preset": "table1", "mechanical_hop_hz": v_hz, "flux_pi": flux_pi}
    spectrum_points = TINY["spectrum"] if tiny else SPECTRUM_POINTS

    if workload in ("fluxmap_csv", "fluxmap_json"):
        fmt = workload.split("_")[1]
        return [Scenario(workload, {
            "mode": "fluxmap",
            "quantity": "phonon",
            "params": tuned,
            "frequency_grid": _grid(spectrum_points),
            "flux_grid": {"start_pi": -2.0, "stop_pi": 2.0,
                          "points": TINY["flux"] if tiny else FLUX_POINTS},
            "output": {"format": fmt},
        })]

    if workload == "tune_2d":
        lo = phys["flux_window_start_pi"]
        tune = {"flux_bounds_pi": [lo, lo + 1.0], "aux": "mechanical_hop",
                "aux_bounds_hz": TUNE_AUX_BOUNDS_HZ}
        if tiny:
            tune.update(TINY["budget"])
        return [Scenario(workload, {
            "mode": "tune",
            "quantity": "photon_to_phonon",
            "params": tuned,
            "frequency_grid": _grid(TINY["tune"] if tiny else TUNE_POINTS),
            "tune": tune,
            "output": {"format": "json"},
        })]

    steady_params = dict(tuned, vacuum_coupling_hz=phys["vacuum_coupling_hz"])
    return [
        Scenario("spectrum", {
            "mode": "spectrum",
            "quantity": "phonon",
            "params": tuned,
            "frequency_grid": _grid(spectrum_points),
            "output": {"format": "csv"},
        }),
        Scenario("steady_inverse", {
            "mode": "steadystate",
            "params": steady_params,
            "steadystate": {"target_enhanced_coupling_hz": phys["target_enhanced_coupling_hz"]},
            "output": {"format": "json"},
        }),
        Scenario("steady_forward", {
            "mode": "steadystate",
            "params": steady_params,
            "steadystate": {"drive_amplitude": phys["drive_amplitude"]},
            "output": {"format": "csv"},
        }),
    ]
