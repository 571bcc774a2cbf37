"""The committed golden outputs in tests/data and the arguments that write them.

Each entry maps a file name to the ``optoflux`` arguments that write it,
without ``--out`` and ``--format``: the format is the file's suffix.  Tier-1
runs every entry in process; run as a script, this checks a command's bytes
against every file::

    python tests/goldens.py optoflux OUT_DIR
    python tests/goldens.py python -m optoflux OUT_DIR

It writes each output into OUT_DIR, prints the ones that differ or whose run
fails, and exits 1 if there is any.
"""

import filecmp
import subprocess
import sys
from pathlib import Path

DATA = Path(__file__).parent / "data"

_FLUXMAP = ["run", "--preset", "table1", "--set", "mode=fluxmap"]
_SMALL_MAP = [
    *_FLUXMAP, "--set", "quantity=phonon", "--set", "params.mechanical_hop_hz=520e3",
    "--set", "flux_grid={start_pi: -1.0, stop_pi: 1.0, points: 5}",
    "--set", "frequency_grid={start_hz: 5.8e9, stop_hz: 5.9e9, points: 4}",
]
# no optical bridge and no left coupling: every forward photon->phonon
# amplitude is identically zero, so every cell is -inf
_SENTINEL_MAP = [
    *_FLUXMAP, "--set", "quantity=photon_to_phonon", "--set", "params.mechanical_hop_hz=1e6",
    "--set", "params.optical_hop_hz=0", "--set", "params.enhanced_coupling_hz=[0, 31e6]",
    "--set", "flux_grid={start_pi: -1.0, stop_pi: 1.0, points: 3}",
    "--set", "frequency_grid={start_hz: 5.8e9, stop_hz: 5.9e9, points: 3}",
]
_SPECTRUM = [
    "run", "--preset", "table1", "--set", "mode=spectrum", "--set", "quantity=phonon",
    "--set", "params.mechanical_hop_hz=515709.8644424447",
    "--set", "params.flux_pi=-0.1585105713191547",
    "--set", "frequency_grid={start_hz: 5.85e9, stop_hz: 5.95e9, points: 201}",
]


def _tune(flux_pi, aux="", quantity="photon_to_phonon"):
    """A tune with a short budget on a 501-point grid; ``aux`` is the tune
    section's aux keys, or empty for a flux-only search."""
    return ["run", "--preset", "table1", "--set", "mode=tune",
            "--set", f"quantity={quantity}", "--set", "params.mechanical_hop_hz=520e3",
            "--set", f"tune={{flux_bounds_pi: {flux_pi}, {aux + ', ' if aux else ''}"
                     "coarse_points: 9, golden_iterations: 12, descent_sweeps: 2}",
            "--set", "frequency_grid={start_hz: 5.6e9, stop_hz: 6.1e9, points: 501}"]


def _steady(section):
    """The bench's default-seed steady-state scenario with ``section``."""
    return ["run", "--preset", "table1", "--set", "mode=steadystate",
            "--set", "params.mechanical_hop_hz=515709.8644424447",
            "--set", "params.flux_pi=-0.1585105713191547",
            "--set", "params.vacuum_coupling_hz=[1000, 1000]",
            "--set", f"steadystate={section}"]


GOLDENS = {
    "fluxmap_small.csv": _SMALL_MAP,
    "fluxmap_small.json": _SMALL_MAP,
    "fluxmap_sentinel.csv": _SENTINEL_MAP,
    "fluxmap_sentinel.json": _SENTINEL_MAP,
    "spectrum_small.csv": _SPECTRUM,
    "spectrum_small.json": _SPECTRUM,
    # over flux and V: the coarse scan, both descent coordinates and the
    # shared kernel all run
    "tune_small.json": _tune("[1.0, 2.0]", "aux: mechanical_hop, aux_bounds_hz: [1e6, 60e6]"),
    # a box the backward null curve misses at every grid frequency, so the
    # search, not an exact null, decides the peak
    "tune_search_small.json": _tune("[0.0, 0.5]",
                                    "aux: mechanical_hop, aux_bounds_hz: [1e6, 60e6]"),
    # couplings that enter the amplitude terms: the terms are rebuilt for
    # each new value, in each channel
    "tune_aux_small.csv": _tune("[1.0, 2.0]", "aux: G_L, aux_bounds_hz: [10e6, 40e6]"),
    "tune_aux_optical_hop.json": _tune("[1.0, 2.0]",
                                       "aux: optical_hop, aux_bounds_hz: [50e6, 160e6]",
                                       "phonon"),
    "tune_aux_G_R.csv": _tune("[1.0, 2.0]", "aux: G_R, aux_bounds_hz: [10e6, 40e6]",
                              "phonon_to_photon"),
    # no aux: V stays the params' own, and the descent improves the flux twice
    "tune_flux_small.json": _tune("[0.0, 2.0]"),
    # the one file with empty best_aux_* cells
    "tune_flux_small.csv": _tune("[0.0, 2.0]"),
    "steady_forward.csv": _steady("{drive_amplitude: [1e8, 1e8]}"),
    "steady_inverse.json": _steady("{target_enhanced_coupling_hz: [33e6, 31e6]}"),
}


def argv(name, out):
    """The arguments that write golden ``name`` to ``out``."""
    return [*GOLDENS[name], "--out", str(out), "--format", Path(name).suffix[1:]]


def main(args):
    *command, out_dir = args
    differ = []
    for name in GOLDENS:
        out = Path(out_dir) / name
        code = subprocess.run([*command, *argv(name, out)], stdout=subprocess.DEVNULL).returncode
        if code or not filecmp.cmp(out, DATA / name, shallow=False):
            differ.append(name)
            print(f"{name}: " + (f"exit status {code}" if code else f"{out} differs"))
    return 1 if differ else 0


if __name__ == "__main__":
    if len(sys.argv) < 3:
        sys.exit(f"usage: {sys.argv[0]} COMMAND... OUT_DIR")
    sys.exit(main(sys.argv[1:]))
