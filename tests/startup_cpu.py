"""The CPU time of a fresh ``optoflux`` process, and the modules it loads, by entry.

Each entry is one fresh interpreter: the setup probe of the benchmark's
``setup_s`` (import the CLI, load and validate a scenario file, build its
parameters) or a small ``python -m optoflux run`` of the steady-state,
spectrum or tune mode.  A round runs every entry once, in turn, and
``--runs`` rounds are made; each process's CPU time, user plus system, is
read from ``os.wait4``.  One more run of each entry, through ``runpy`` in a
process that then reads ``sys.modules``, shows which of argparse, json,
numpy and the ``optoflux.*`` modules it loaded that the bare interpreter had
not::

    PYTHONPATH=src python tests/startup_cpu.py
    PYTHONPATH=src python tests/startup_cpu.py --runs 1

The children run this tree's ``src`` in the caller's environment, so under
``PYTHONDONTWRITEBYTECODE=1`` each one compiles the package's source.  It
prints one line per entry and exits 0 unless a run fails: it shows what a
change does to the cost of starting a run, and gates nothing.
"""

import argparse
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

_PARAMS = ("params.mechanical_hop_hz=515709.8644424447", "params.flux_pi=-0.1585105713191547")
_SCENARIO = ("mode: spectrum\nquantity: phonon\n"
             "params: {preset: table1, mechanical_hop_hz: 515709.8644424447, "
             "flux_pi: -0.1585105713191547}\n")
_SETUP = ("import sys\nfrom optoflux import cli\n"
          "cli.load_scenario(sys.argv[1]).build_params()\n")
_RUN = ("import runpy\ntry:\n"
        "    runpy.run_module('optoflux', run_name='__main__', alter_sys=True)\n"
        "except SystemExit as exc:\n"
        "    if exc.code:\n"
        "        raise\n")


def _run(*settings, out):
    """``run`` arguments: table1, ``settings`` and the output ``out``, in
    the format its suffix names."""
    return ["run", "--preset", "table1",
            *(arg for s in (*_PARAMS, *settings) for arg in ("--set", s)),
            "--out", out, "--format", out.rpartition(".")[2]]


# entry -> (the code run by -c, or None for -m optoflux; its arguments)
ENTRIES = {
    "setup": (_SETUP, ["scenario.yaml"]),
    "steadystate": (None, _run("mode=steadystate", "params.vacuum_coupling_hz=[1000, 1000]",
                               "steadystate.target_enhanced_coupling_hz=[33e6, 31e6]",
                               out="steady.csv")),
    "spectrum": (None, _run("mode=spectrum", "quantity=phonon", "frequency_grid.points=201",
                            out="spectrum.json")),
    "tune": (None, _run("mode=tune", "quantity=photon_to_phonon",
                        "tune={flux_bounds_pi: [1.0, 2.0], aux: mechanical_hop, "
                        "aux_bounds_hz: [1e6, 60e6]}", "frequency_grid.points=501",
                        out="tune.csv")),
}

# what the last run reports: the modules it loaded that the bare interpreter had not
_REPORT = ("loaded = sorted(m for m in set(sys.modules) - bare if m in "
           "('argparse', 'json', 'numpy') or m.startswith('optoflux.'))\n"
           "print(' '.join(loaded))\n")


def _spawn(args, cwd, env, stdout=subprocess.DEVNULL):
    """CPU seconds and standard output of ``python args``, run in ``cwd``;
    SystemExit if it fails."""
    proc = subprocess.Popen([sys.executable, *args], cwd=cwd, env=env, stdout=stdout, text=True)
    out = proc.stdout.read() if proc.stdout else ""
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.stdout:
        proc.stdout.close()
    if proc.returncode:
        raise SystemExit(f"startup_cpu: {args[:2]} exited {proc.returncode}")
    return usage.ru_utime + usage.ru_stime, out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=15, help="processes per entry")
    args = parser.parse_args(argv)
    env = {**os.environ}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    times = {name: [] for name in ENTRIES}
    with tempfile.TemporaryDirectory() as cwd:
        Path(cwd, "scenario.yaml").write_text(_SCENARIO, encoding="utf-8")
        for _ in range(args.runs):
            for name, (code, entry_args) in ENTRIES.items():
                command = ["-c", code] if code else ["-m", "optoflux"]
                times[name].append(_spawn([*command, *entry_args], cwd, env)[0])
        loaded = {}
        for name, (code, entry_args) in ENTRIES.items():
            code = "import sys\nbare = set(sys.modules)\n" + (code or _RUN) + _REPORT
            out = _spawn(["-c", code, *entry_args], cwd, env, subprocess.PIPE)[1]
            loaded[name] = out.splitlines()[-1]  # after what the run printed
    print(f"{'entry':<13}{'least_ms':>9}{'median_ms':>10}  loaded")
    for name, kept in times.items():
        print(f"{name:<13}{1e3 * min(kept):>9.1f}{1e3 * statistics.median(kept):>10.1f}  "
              + loaded[name])
    return 0


if __name__ == "__main__":
    sys.exit(main())
