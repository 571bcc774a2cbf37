"""Correctness checks run (untimed) on every output the benchmark produces.

``check_output`` returns a list of problems; an empty list means the output
passed.  The checks are:

- fluxmap, spectrum and tune outputs: k cells (and the spectrum and tune
  peaks) re-evaluated through the dense LU oracle, ``build_matrix`` plus
  ``invert_dense``.  The tolerance is 1e-6 dB, plus half a unit in the 12th
  significant digit for CSV values, plus the oracle's own rounding: one ulp
  of the largest entry of M^-1 carried into dB.  The last term only matters
  at interference nulls deeper than about 150 dB, which ``tune`` finds.
- the default-seed spectrum: the golden 65.17105013742537 dB peak of
  acceptance criterion 6, within 1e-6 dB.
- steady state: the drives of the inverse run, fed through an independent
  forward map, give back the target couplings to 1e-9 relative; the forward
  run matches that same map.
"""

from __future__ import annotations

import cmath
import hashlib
import json
import math
import random

import numpy as np

import optoflux as of
from scenarios import TABLE1_HZ, TWO_PI

GOLDEN_PEAK_DB = 65.17105013742537
GOLDEN_PEAK_TOL_DB = 1e-6
ORACLE_TOL_DB = 1e-6
STEADY_RTOL = 1e-9
SPOT_CELLS = 8

# (forward, backward) element of M^-1 whose magnitude ratio is each isolation,
# in the (a_L, a_R, b_L, b_R) mode order
ORACLE_ELEMENTS = {
    "phonon": ((3, 2), (2, 3)),
    "photon_to_phonon": ((3, 0), (2, 1)),
    "phonon_to_photon": ((1, 2), (0, 3)),
}


def digest(path) -> str:
    sha = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            sha.update(block)
    return sha.hexdigest()


def print_rounding(value: float) -> float:
    """Half a unit in the 12th significant digit of ``value``."""
    if value == 0.0 or not math.isfinite(value):
        return 0.0
    return 0.5 * 10.0 ** (math.floor(math.log10(abs(value))) - 11)


def _axis(start, stop, points, unit):
    return np.linspace(unit * start, unit * stop, points)


def oracle_db(v_hz, flux, omega, quantity):
    """(isolation dB, its rounding bound) from the dense LU inverse."""
    minv = of.invert_dense(of.build_matrix(of.from_table1(v_hz, flux=flux), omega))
    (fi, fj), (bi, bj) = ORACLE_ELEMENTS[quantity]
    fwd, bwd = abs(minv[fi, fj]), abs(minv[bi, bj])
    slack = (20.0 / math.log(10.0)) * np.finfo(float).eps * float(np.abs(minv).max()) \
        * (1.0 / fwd + 1.0 / bwd)
    return 20.0 * math.log10(fwd / bwd), slack


def _compare(problems, where, printed, v_hz, flux, omega, quantity, rounded):
    expected, slack = oracle_db(v_hz, flux, omega, quantity)
    tol = ORACLE_TOL_DB + slack + (print_rounding(printed) if rounded else 0.0)
    if not abs(printed - expected) <= tol:
        problems.append(f"{where}: {printed!r} dB, oracle {expected!r} dB (tol {tol:.3g})")


def _cells(name, seed, rows, cols):
    rng = random.Random(f"{name}:{seed}")
    return [(rng.randrange(rows), rng.randrange(cols)) for _ in range(SPOT_CELLS)]


def _check_fluxmap(config, path, seed, problems):
    fg, qg = config["frequency_grid"], config["flux_grid"]
    omega = _axis(fg["start_hz"], fg["stop_hz"], fg["points"], TWO_PI)
    flux = _axis(qg["start_pi"], qg["stop_pi"], qg["points"], math.pi)
    v_hz = config["params"]["mechanical_hop_hz"]
    csv = config["output"]["format"] == "csv"
    with open(path, encoding="utf-8") as fh:
        if csv:
            lines = fh.read().split("\n")
            shape = (len(lines[0].split(",")) - 1, len(lines) - 2)
        else:
            payload = json.load(fh)
            grid = payload["isolation_db"]
            shape = (len(grid), len(grid[0]) if grid else 0)
    if shape != (flux.size, omega.size):
        problems.append(f"fluxmap shape {shape}, expected {(flux.size, omega.size)}")
        return
    for i, j in _cells(config["mode"] + config["output"]["format"], seed, *shape):
        if csv:
            row = lines[1 + j].split(",")
            freq_hz, printed = float(row[0]), float(row[1 + i])
        else:
            freq_hz, printed = payload["frequency_hz"][j], float(payload["isolation_db"][i][j])
        if abs(freq_hz - omega[j] / TWO_PI) > print_rounding(freq_hz):
            problems.append(f"fluxmap frequency {j}: {freq_hz!r} Hz off the grid")
        _compare(problems, f"fluxmap cell (flux {i}, freq {j})", printed, v_hz,
                 float(flux[i]), float(omega[j]), config["quantity"], csv)


def _check_spectrum(config, path, seed, golden, problems):
    fg = config["frequency_grid"]
    omega = _axis(fg["start_hz"], fg["stop_hz"], fg["points"], TWO_PI)
    with open(path, encoding="utf-8") as fh:
        rows = [line.split(",") for line in fh.read().split("\n")[1:-1]]
    if len(rows) != omega.size:
        problems.append(f"spectrum has {len(rows)} rows, expected {omega.size}")
        return
    values = np.array([float(row[1]) for row in rows])
    peak = int(np.argmax(np.where(np.isnan(values), -np.inf, values)))
    params = config["params"]
    flux = math.pi * params["flux_pi"]
    picks = [peak] + [j for _, j in _cells("spectrum", seed, 1, omega.size)]
    for j in picks:
        _compare(problems, f"spectrum point {j}", float(values[j]),
                 params["mechanical_hop_hz"], flux, float(omega[j]), config["quantity"], True)
    if golden is not None and not abs(values[peak] - golden) <= GOLDEN_PEAK_TOL_DB:
        problems.append(f"spectrum peak {values[peak]!r} dB, golden {golden!r} dB")


def _check_tune(config, path, problems):
    with open(path, encoding="utf-8") as fh:
        out = json.load(fh)
    fg, tune = config["frequency_grid"], config["tune"]
    omega = _axis(fg["start_hz"], fg["stop_hz"], fg["points"], TWO_PI)
    j = int(np.argmin(np.abs(omega - TWO_PI * out["peak_frequency_hz"])))
    objectives = [step["objective_db"] for step in out["trace"]]
    if objectives != sorted(objectives) or objectives[-1] != out["peak_db"]:
        problems.append("tune trace is not an increasing run ending at peak_db")
    lo, hi = tune["flux_bounds_pi"]
    alo, ahi = tune["aux_bounds_hz"]
    if not (lo <= out["best_flux_pi"] <= hi and alo <= out["best_aux_hz"] <= ahi):
        problems.append("tune optimum lies outside the search window")
    _compare(problems, "tune peak", out["peak_db"], out["best_aux_hz"],
             out["best_flux_rad"], float(omega[j]), config["quantity"], False)


def steady_fields(params: dict, drives) -> tuple:
    """(alpha_L, alpha_R, G_L_hz, G_R_hz) for drives (eps_L, eps_R, phi_L, phi_R).

    The red-detuned mean-field solution on the table1 rates, written out
    separately from the package: D_j = kappa_j/2 + i omega_mj,
    den = D_L D_R + J^2.
    """
    eps_l, eps_r, phi_l, phi_r = drives
    w = {key: TWO_PI * value for key, value in TABLE1_HZ.items()}
    d_l = w["kappa_L"] / 2.0 + 1j * w["omega_mL"]
    d_r = w["kappa_R"] / 2.0 + 1j * w["omega_mR"]
    J = w["optical_hop"]
    den = d_l * d_r + J * J
    cross = -1j * J * cmath.exp(1j * (phi_l + phi_r))
    root_l, root_r = math.sqrt(w["kappa_eL"]), math.sqrt(w["kappa_eR"])
    alpha_l = (d_r * root_l * eps_l * cmath.exp(2j * phi_l) + cross * root_r * eps_r) / den
    alpha_r = (d_l * root_r * eps_r * cmath.exp(2j * phi_r) + cross * root_l * eps_l) / den
    g_l, g_r = params["vacuum_coupling_hz"]
    return alpha_l, alpha_r, g_l * abs(alpha_l), g_r * abs(alpha_r)


def _close(a, b):
    return abs(a - b) <= STEADY_RTOL * abs(b)


def _check_steady(config, path, problems):
    params, section = config["params"], config["steadystate"]
    phases = (math.pi * params["flux_pi"], 0.0)
    with open(path, encoding="utf-8") as fh:
        if config["output"]["format"] == "csv":
            header, row = fh.read().split("\n")[:2]
            out = dict(zip(header.split(","), map(float, row.split(","))))
        else:
            out = json.load(fh)
    if "target_enhanced_coupling_hz" in section:
        eps = (complex(out["eps_L_re"], out["eps_L_im"]), complex(out["eps_R_re"], out["eps_R_im"]))
        targets = section["target_enhanced_coupling_hz"]
        _, _, g_l, g_r = steady_fields(params, eps + phases)
        for side, got, printed, target in (("L", g_l, out["G_L_hz"], targets[0]),
                                           ("R", g_r, out["G_R_hz"], targets[1])):
            if not (_close(got, target) and _close(printed, target)):
                problems.append(f"steady-state round trip G_{side}: forward {got!r} Hz, "
                                f"written {printed!r} Hz, target {target!r} Hz")
    else:
        alpha_l, alpha_r, g_l, g_r = steady_fields(
            params, tuple(section["drive_amplitude"]) + phases)
        written = (complex(out["alpha_L_re"], out["alpha_L_im"]),
                   complex(out["alpha_R_re"], out["alpha_R_im"]), out["G_L_hz"], out["G_R_hz"])
        if not all(_close(a, b) for a, b in zip(written, (alpha_l, alpha_r, g_l, g_r))):
            problems.append(f"steady-state forward fields {written!r} differ from "
                            f"{(alpha_l, alpha_r, g_l, g_r)!r}")


def check_output(scenario, path, seed, golden=None) -> list:
    """Problems found in the output ``path`` of ``scenario`` (empty if none).

    ``golden`` is the expected spectrum peak in dB, or None where no golden
    value applies.  A malformed file is reported as a problem, not raised.
    """
    config = scenario.config
    problems = []
    try:
        if config["mode"] == "fluxmap":
            _check_fluxmap(config, path, seed, problems)
        elif config["mode"] == "spectrum":
            _check_spectrum(config, path, seed, golden, problems)
        elif config["mode"] == "tune":
            _check_tune(config, path, problems)
        else:
            _check_steady(config, path, problems)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        problems.append(f"unreadable output: {type(exc).__name__}: {exc}")
    return problems
