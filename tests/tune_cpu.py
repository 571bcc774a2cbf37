"""The CPU time, the minor page faults and the kernel's work of ``tune`` in
process, by configuration.

Each configuration is one quantity searched over flux and one coupling, on
the bench-sized problem: table1 with V = 520 kHz, flux from pi to 2 pi and
a grid over the default band.  Each configuration is first tuned twice,
in turn: once for first-call costs, counting the kernel's amplitude calls
(a full pass computes every cell of one flux, a pruned call only the cells
its bounds leave, for a block of fluxes), and once to count the minor page
faults of one tune, which depend on the heap the tunes before it left, so
compare them only between trees.  Then a round times every configuration
in turn, the least process CPU time of ``--runs`` tunes; the table gives
each one's median over ``--rounds`` rounds::

    PYTHONPATH=src python tests/tune_cpu.py
    PYTHONPATH=src python tests/tune_cpu.py --points 201 --runs 1 --rounds 1

It prints one line per configuration and exits 0: it shows where a change
moves the search's time, and gates nothing.
"""

import argparse
import math
import resource
import statistics
import sys
import time

import numpy as np

import optoflux as of
from optoflux import response
from optoflux.model import TWO_PI

# (quantity, coupling, its bounds in Hz)
CONFIGS = (
    ("phonon", "mechanical_hop", (1e6, 60e6)),
    ("phonon", "G_L", (10e6, 40e6)),
    ("phonon", "optical_hop", (50e6, 200e6)),
    ("photon_to_phonon", "mechanical_hop", (1e6, 60e6)),
    ("photon_to_phonon", "G_L", (10e6, 40e6)),
    ("photon_to_phonon", "optical_hop", (50e6, 200e6)),
    ("phonon_to_photon", "mechanical_hop", (1e6, 60e6)),
)


def _minor_faults():
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def _counted_tune(params, quantity, space):
    """Tune once and return the kernel's full passes, its pruned amplitude
    calls and the amplitude cells those compute: ``_amplitudes`` calls whose
    ``cells`` is a slice, the others, and their cells times their fluxes."""
    amplitudes = response._amplitudes
    counts = [0, 0, 0]

    def counted(terms, hop, flux, cells=slice(None)):
        if isinstance(cells, slice):
            counts[0] += 1
        else:
            counts[1] += 1
            counts[2] += cells.size * np.size(flux)
        return amplitudes(terms, hop, flux, cells)

    response._amplitudes = counted
    try:
        of.tune(params, quantity, space)
    finally:
        response._amplitudes = amplitudes
    return counts


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--points", type=int, default=20001, help="frequency grid points")
    parser.add_argument("--runs", type=int, default=15, help="tunes per configuration a round")
    parser.add_argument("--rounds", type=int, default=5, help="rounds over every configuration")
    args = parser.parse_args(argv)
    params = of.from_table1(520e3)
    grid = of.FrequencyGrid.from_hz(5.6e9, 6.1e9, args.points)
    spaces = [of.SearchSpace(flux_bounds=(math.pi, TWO_PI), aux_name=aux,
                             aux_bounds=tuple(TWO_PI * hz for hz in bounds),
                             frequency_grid=grid) for _, aux, bounds in CONFIGS]
    faults, work = [], []
    for (quantity, _, _), space in zip(CONFIGS, spaces):
        work.append(_counted_tune(params, quantity, space))  # first-call costs happen here
        before = _minor_faults()
        of.tune(params, quantity, space)
        faults.append(_minor_faults() - before)
    times = [[] for _ in CONFIGS]
    for _ in range(args.rounds):
        for (quantity, _, _), space, kept in zip(CONFIGS, spaces, times):
            least = math.inf
            for _ in range(args.runs):
                start = time.process_time()
                of.tune(params, quantity, space)
                least = min(least, time.process_time() - start)
            kept.append(least)
    print(f"{'quantity':<18}{'coupling':<16}{'cpu_ms':>9}{'minor_faults':>14}"
          f"{'full_passes':>13}{'pruned_calls':>14}{'pruned_cells':>14}")
    for (quantity, aux, _), kept, count, (full, calls, cells) in zip(CONFIGS, times, faults, work):
        print(f"{quantity:<18}{aux:<16}{1e3 * statistics.median(kept):>9.1f}{count:>14}"
              f"{full:>13}{calls:>14}{cells:>14}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
