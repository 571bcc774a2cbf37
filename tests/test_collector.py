"""The cyclic collector: off only in the CLI process, and not needed there.

``optoflux.__main__.main`` runs the CLI with the cyclic collector disabled.
That is sound only while the hot paths create no reference cycles: a cycle
there would live until the process exits, and one in a per-candidate kernel
would keep that kernel's scratch arrays once per candidate.  The policy
belongs to the process entry alone, so ``cli.main`` called in process must
leave the caller's collector as it found it.
"""

import gc
import math
import os

import numpy as np
import pytest

import optoflux as of
from optoflux import cli
from optoflux.model import TWO_PI

from helpers import force_scan_ranges

_STEADY = ["--preset", "table1", "--set", "mode=steadystate",
           "--set", "params.vacuum_coupling_hz=[200, 200]",
           "--set", "steadystate.drive_amplitude=[1e6, 1e6]"]
# lossless optics with no coupling: a singular steady-state system
_DEGENERATE = ["params.optical_external_decay_hz=[0, 0]", "params.optical_internal_decay_hz=[0, 0]",
               "params.optical_hop_hz=0", "params.enhanced_coupling_hz=[0, 0]",
               "params.detuning_hz=[0, 0]"]
EXITS = {
    0: [],
    1: ["--out", os.path.join("no_such_directory", "out.csv")],
    2: ["--set", "mode=wiggle"],
    3: [arg for override in _DEGENERATE for arg in ("--set", override)],
}


@pytest.mark.parametrize("enabled", [True, False], ids=["collector on", "collector off"])
@pytest.mark.parametrize("code", sorted(EXITS))
def test_cli_main_leaves_the_collector_alone(tmp_path, monkeypatch, code, enabled):
    monkeypatch.chdir(tmp_path)
    was, frozen = gc.isenabled(), gc.get_freeze_count()
    (gc.enable if enabled else gc.disable)()
    try:
        assert cli.main(["run", *_STEADY, "--set", "params.mechanical_hop_hz=0",
                         *EXITS[code]]) == code
        assert (gc.isenabled(), gc.get_freeze_count()) == (enabled, frozen)
    finally:
        (gc.enable if was else gc.disable)()


def _garbage(work, size):
    """How many objects in reference cycles ``work(size)`` leaves behind: run
    with the collector off, then counted by a full collection."""
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        work(size)
    finally:
        if enabled:
            gc.enable()
    return gc.collect()


def _does_not_grow(work, small=3, large=30):
    work(small)  # first-call costs, such as imports, happen here
    small_garbage = _garbage(work, small)
    assert _garbage(work, large) <= small_garbage


_PARAMS = of.from_table1(520e3, 1.2)
_GRID = of.FrequencyGrid.from_hz(5.8e9, 5.9e9, 11)


def test_flux_map_creates_no_cycles():
    _does_not_grow(lambda rows: of.flux_map(_PARAMS, of.PHONON,
                                            np.linspace(-math.pi, math.pi, rows), _GRID))


# the searched coupling, its bounds in Hz; the aux ones collapse the flux
# bounds, so each coarse candidate sets the coupling, rebuilding the terms
# for G_L and optical_hop
_AUX = {
    None: None,
    "mechanical_hop": (1e6, 60e6),
    "G_L": (10e6, 40e6),
    "optical_hop": (50e6, 150e6),
}


@pytest.mark.parametrize("aux", list(_AUX))
def test_tune_creates_no_cycles(monkeypatch, aux):
    force_scan_ranges(monkeypatch, 2)  # the scan's fork and join run too

    def tune(candidates):
        flux = (math.pi, 2 * math.pi) if aux is None else (1.5 * math.pi,) * 2
        bounds = None if aux is None else tuple(TWO_PI * b for b in _AUX[aux])
        of.tune(_PARAMS, of.PHOTON_TO_PHONON, of.SearchSpace(
            flux_bounds=flux, aux_name=aux, aux_bounds=bounds, frequency_grid=_GRID,
            coarse_points=candidates, golden_iterations=2, descent_sweeps=1))

    _does_not_grow(tune)


@pytest.mark.parametrize("ranges", [1, 3], ids=["one range", "split"])
@pytest.mark.parametrize("form", ["csv", "csv blocks", "json", "json points"])
def test_write_creates_no_cycles(tmp_path, monkeypatch, form, ranges):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(ranges)))
    monkeypatch.setattr(cli, "MIN_CELLS_PER_PIECE", 1)

    def write(rows):
        # "csv blocks": a column and a 2-D view, over several blocks of rows
        rows *= cli._CSV_BLOCK_ROWS if form == "csv blocks" else 1
        table = np.arange(rows * 4, dtype=float).reshape(rows, 4)
        if form == "json":
            text = cli._json({"mode": "fluxmap", "flux_pi": table[0].tolist(),
                              "isolation_db": table}, rows="isolation_db")
        elif form == "json points":
            text = cli._json({"mode": "spectrum", "points": {"a": table[:, 0], "b": table[:, 1]}},
                             rows="points")
        else:
            columns = (table[:, 0], table[:, 1:]) if form == "csv blocks" else (table,)
            text = cli._csv(["a", "b", "c", "d"], columns)
        cli._write(text, str(tmp_path / "out"))

    _does_not_grow(write)
