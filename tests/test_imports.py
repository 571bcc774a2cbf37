"""What importing the package loads, checked in fresh interpreters.

Scenario validation, parameter building and the steadystate mode are plain
Python, so they must not pay for importing numpy or the numeric layers, and
any other module loads only on the path of a run that calls it.  Each check
counts only what the bare interpreter had not already loaded.  The package
namespace loads its names on first use and must still offer every name it
always did.  ``python -m optoflux`` and the console script run one process
entry, which runs the CLI without the cyclic collector and still exits
through the interpreter's normal shutdown.
"""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import startup_cpu

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
DATA = ROOT / "tests" / "data"
NUMERIC = ("numpy", "optoflux.linsys", "optoflux.response", "optoflux.sweep",
           "optoflux.optimize")

# every name the package exported when it imported its submodules eagerly,
# with the submodule that defined it then
EXPORTED = {
    "errors": ("ConfigError", "DegenerateBlock", "NoSolution", "OptofluxError",
               "SingularMatrix", "ZeroCoupling"),
    "linsys": ("build_matrix", "effective_blocks", "invert_dense"),
    "model": ("TWO_PI", "Susceptibilities", "SystemParams", "from_table1",
              "susceptibilities", "wrap_phase"),
    "optimize": ("AUX_PARAMETERS", "InterferenceSolution", "SearchSpace", "TuneResult",
                 "interference_condition", "tune"),
    "response": ("PHONON", "PHONON_TO_PHOTON", "PHOTON_TO_PHONON", "QUANTITIES",
                 "gamma_A", "isolation_db"),
    "steadystate": ("SteadyState", "drives_for_target_G", "steady_amplitudes"),
    "sweep": ("FluxMap", "FrequencyGrid", "default_flux_grid", "default_frequency_grid",
              "flux_map", "spectrum"),
}

# every submodule the package docstring lists, but the process entry
SUBMODULES = sorted(path.stem for path in (SRC / "optoflux").glob("*.py")
                    if not path.stem.startswith("__"))

# the stdlib modules only a split needs
FORKING = ("signal", "tempfile")


# first in every child: what the bare interpreter (and its site hooks) loaded
_BARE = "import sys\n_bare = set(sys.modules)\n"


def _report(modules):
    # the list is made before the report imports json
    return (f"_loaded = [m for m in {modules!r} if m in sys.modules and m not in _bare]\n"
            "import json\nprint(json.dumps(_loaded))\n")


_REPORT = _report(NUMERIC)
_SETUP = ("import sys\n"
          "from optoflux import cli\n"
          "for path in sys.argv[1:]:\n"
          "    cli.load_scenario(path).build_params()\n")


def _python(args, cwd, **variables):
    env = {**os.environ, **variables}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=60)


# ``python -m optoflux run ...`` through runpy, as -m runs it, then the report
# (-X importtime cannot tell: it does not log `from . import name` imports)
_CLI = ("import runpy\n"
        "try:\n"
        "    runpy.run_module('optoflux', run_name='__main__', alter_sys=True)\n"
        "except SystemExit as exc:\n"
        "    print(exc.code)\n")


def _loaded_by_cli(config, cwd, modules=NUMERIC, flags=(), before=""):
    """Exit code of ``python [flags] -m optoflux run config``, run after the
    code ``before``, and which of ``modules`` it loaded that the bare
    interpreter had not."""
    proc = _python([*flags, "-c", _BARE + before + _CLI + _report(modules), "run", str(config)],
                   cwd)
    assert proc.returncode == 0, proc.stderr
    *_, code, loaded = proc.stdout.splitlines()
    return int(code), json.loads(loaded)


_PARAMS = """
params:
  preset: table1
  mechanical_hop_hz: 515709.8644424447
  flux_pi: -0.1585105713191547
  vacuum_coupling_hz: [1000, 1000]
"""
_SCENARIOS = {
    "steady_forward": "mode: steadystate\nsteadystate: {drive_amplitude: [1e8, 1e8]}\n"
                      "output: {format: csv}\n",
    "steady_inverse": "mode: steadystate\n"
                      "steadystate: {target_enhanced_coupling_hz: [33e6, 31e6]}\n"
                      "output: {format: json}\n",
    "spectrum": "mode: spectrum\nquantity: phonon\n"
                "frequency_grid: {start_hz: 5.8e9, stop_hz: 5.9e9, points: 5}\n",
    "fluxmap": "mode: fluxmap\nquantity: phonon\n"
               "frequency_grid: {start_hz: 5.8e9, stop_hz: 5.9e9, points: 5}\n"
               "flux_grid: {start_pi: -1.0, stop_pi: 1.0, points: 3}\n",
    "tune": "mode: tune\nquantity: phonon\n"
            "frequency_grid: {start_hz: 5.8e9, stop_hz: 5.9e9, points: 5}\n"
            "tune: {flux_bounds_pi: [0.0, 1.0], coarse_points: 3}\n",
    "invalid": "mode: spectrum\nquantity: phonon\nfrequency_grid: {points: 1}\n",
}


@pytest.fixture
def configs(tmp_path):
    paths = {}
    for name, text in _SCENARIOS.items():
        paths[name] = tmp_path / f"{name}.yaml"
        paths[name].write_text(text + _PARAMS, encoding="utf-8")
    return paths


@pytest.mark.parametrize("name", ["steady_forward", "steady_inverse"])
def test_steadystate_run_imports_no_numeric_layer(configs, tmp_path, name):
    code, loaded = _loaded_by_cli(configs[name], tmp_path)
    assert code == 0
    assert loaded == []
    # the scenarios of the goldens of the same names: the runner's import of
    # steadystate and the JSON writer's of json, in a fresh interpreter
    out, golden = (("result.csv", "steady_forward.csv") if name == "steady_forward"
                   else ("result.json", "steady_inverse.json"))
    assert (tmp_path / out).read_bytes() == (DATA / golden).read_bytes()


def test_rejected_config_imports_no_numeric_layer(configs, tmp_path):
    assert _loaded_by_cli(configs["invalid"], tmp_path) == (2, [])


def test_spectrum_run_imports_the_numeric_layers(configs, tmp_path):
    # the counterpart of the checks above: an array mode does load them, all
    # but linsys, the dense oracle, which no closed form needs, and optimize,
    # which only tune needs
    assert _loaded_by_cli(configs["spectrum"], tmp_path) == (
        0, ["numpy", "optoflux.response", "optoflux.sweep"])


@pytest.mark.parametrize("name", ["spectrum", "fluxmap", "tune"])
def test_array_run_loads_neither_the_oracle_nor_steadystate(configs, tmp_path, name):
    # the closed forms take det_A from model, so the oracle stays off their path
    loaded = _loaded_by_cli(configs[name], tmp_path, ("optoflux.linsys", "optoflux.steadystate"))
    assert loaded == (0, [])


@pytest.mark.parametrize("name", ["steady_forward", "spectrum", "fluxmap", "tune",
                                  "steady_inverse"])
def test_only_a_json_output_loads_json(configs, tmp_path, name):
    # of these scenarios, only steady_inverse writes JSON
    loaded = ["json"] if name == "steady_inverse" else []
    assert _loaded_by_cli(configs[name], tmp_path, ("json",)) == (0, loaded)


# for a run under -S, which adds no site directory (a site hook may import
# tempfile at startup): numpy and PyYAML where this interpreter finds them,
# and an os.fork that fails the run
_SITE = sorted({str(Path(importlib.util.find_spec(name).origin).parents[1])
                for name in ("numpy", "yaml")})
_ISOLATED = (f"import os, sys\nsys.path += {_SITE!r}\n"
             "def fork():\n    raise AssertionError('forked')\nos.fork = fork\n")


# the process entry loads signal itself, to turn SIGTERM into SystemExit
_ENTRY = ["signal"]


@pytest.mark.parametrize("name, loaded", [
    ("steady_forward", _ENTRY), ("steady_inverse", _ENTRY),
    ("spectrum", _ENTRY),  # a one-range write
    ("tune", _ENTRY),  # a one-range write, after a scan in this process
])
def test_run_without_a_split_loads_no_fork_code(configs, tmp_path, name, loaded):
    # every output goes through the writer's cut; one range forks nothing,
    # opens no part file and loads no tempfile
    assert _loaded_by_cli(configs[name], tmp_path, FORKING, ["-S"], _ISOLATED) == (0, loaded)


def test_setup_stages_import_no_numeric_layer(configs, tmp_path):
    # what a benchmark setup probe does for each mode: import the CLI, load
    # and validate the scenario, build its parameters
    modes = ["spectrum", "fluxmap", "tune", "steady_forward", "steady_inverse"]
    proc = _python(["-c", _BARE + _SETUP + _REPORT, *(str(configs[m]) for m in modes)], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []


def test_setup_stages_load_no_front_end_or_oracle_module(configs, tmp_path):
    # the command line, the JSON writer, the steady-state layer and the dense
    # oracle load where a run calls them, and the setup stages call none
    modes = ["spectrum", "fluxmap", "tune", "steady_forward", "steady_inverse"]
    report = _report(("argparse", "json", "optoflux.steadystate", "optoflux.linsys"))
    proc = _python(["-c", _BARE + _SETUP + report, *(str(configs[m]) for m in modes)], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []


# each import moved into the function that calls it, on its rarest path, in
# a fresh interpreter
_HELP = """\
usage: optoflux [-h] {run} ...

Nonreciprocal transport and conversion spectra of two flux-threaded
optomechanical cavities.

positional arguments:
  {run}
    run       execute a scenario file

options:
  -h, --help  show this help message and exit
"""


def test_help_exits_0_with_its_text(tmp_path):
    proc = _python(["-m", "optoflux", "--help"], tmp_path, COLUMNS="80")
    assert proc.returncode == 0, proc.stderr
    # Python 3.10 heads the options "optional arguments:"
    assert proc.stdout.replace("optional arguments:", "options:") == _HELP


def test_invalid_format_exits_2_with_the_usage_line(tmp_path):
    proc = _python(["-m", "optoflux", "run", "--format", "xml"], tmp_path, COLUMNS="80")
    assert proc.returncode == 2
    assert proc.stderr.startswith("usage: optoflux run [-h] [--preset {table1}]")
    assert "argument --format: invalid choice: 'xml'" in proc.stderr


def test_json_spectrum_with_sentinels_writes_them_as_strings(tmp_path):
    # no optical bridge and no left coupling: every forward photon->phonon
    # amplitude is zero, so every cell is -inf, which JSON holds as a string
    proc = _python(["-m", "optoflux", "run", "--preset", "table1", "--set", "mode=spectrum",
                    "--set", "quantity=photon_to_phonon", "--set", "params.mechanical_hop_hz=1e6",
                    "--set", "params.optical_hop_hz=0",
                    "--set", "params.enhanced_coupling_hz=[0, 31e6]",
                    "--set", "frequency_grid={start_hz: 5.8e9, stop_hz: 5.9e9, points: 3}",
                    "--format", "json", "--out", "inf.json"], tmp_path)
    assert proc.returncode == 0, proc.stderr
    points = json.loads((tmp_path / "inf.json").read_text(encoding="utf-8"))["points"]
    assert [point["isolation_db"] for point in points] == ["-inf"] * 3



_NAMESPACE = """
import importlib, json, sys
import optoflux as of

report = {}
# a submodule attribute works before anything imported the submodule
report["submodule_before_import"] = "optoflux.response" not in sys.modules
report["amplitude_terms"] = of.response.amplitude_terms is \\
    importlib.import_module("optoflux.response").amplitude_terms
# before the exported names import optimize and what it imports
report["submodules_unresolved"] = [
    name for name in json.loads(sys.argv[2])
    if name not in dir(of) or getattr(of, name) is not importlib.import_module("optoflux." + name)
]
exported = json.loads(sys.argv[1])
report["unresolved"] = [
    name for module, names in exported.items() for name in names
    if getattr(of, name) is not getattr(importlib.import_module("optoflux." + module), name)
]
star = {}
exec("from optoflux import *", star)
everything = [name for names in exported.values() for name in names]
report["not_starred"] = [name for name in everything if name not in star]
report["not_in_dir"] = [name for name in everything if name not in dir(of)]
report["not_in_all"] = [name for name in everything if name not in of.__all__]
try:
    of.no_such_name
except AttributeError as exc:
    report["unknown"] = str(exc)
report["hasattr_unknown"] = hasattr(of, "no_such_name")
print(json.dumps(report))
"""


def test_namespace_exports_every_name(tmp_path):
    proc = _python(["-c", _NAMESPACE, json.dumps(EXPORTED), json.dumps(SUBMODULES)], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {
        "submodule_before_import": True,
        "amplitude_terms": True,
        "unresolved": [],
        "not_starred": [],
        "not_in_dir": [],
        "not_in_all": [],
        "submodules_unresolved": [],
        "unknown": "module 'optoflux' has no attribute 'no_such_name'",
        "hasattr_unknown": False,
    }


def _console_script():
    """(module, function) that pyproject.toml's ``optoflux`` console script
    runs, read from its text: Python 3.10 has no tomllib."""
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    section = text.split("\n[project.scripts]\n", 1)[1].split("\n[", 1)[0]
    scripts = dict(line.replace(" ", "").split("=", 1) for line in section.splitlines() if line)
    module, function = scripts["optoflux"].strip('"').split(":")
    return module, function


# what each entry leaves for an atexit handler registered before it runs: the
# handler runs (no os._exit), after the collector was disabled and the
# surviving objects frozen
_AT_EXIT = ("import atexit, gc\n"
            "atexit.register(lambda: print('at exit: collector', gc.isenabled(),\n"
            "                              'frozen', gc.get_freeze_count() > 0))\n")
_ENTRIES = {
    "-m": _CLI,
    # what the console script that pip writes does, then the exit code as _CLI prints it
    "console script": ("import sys\nfrom {} import {} as entry\ntry:\n    sys.exit(entry())\n"
                       "except SystemExit as exc:\n    print(exc.code)\n").format(*_console_script()),
}


@pytest.mark.parametrize("entry", _ENTRIES)
@pytest.mark.parametrize("name, code", [("steady_forward", 0), ("invalid", 2)])
def test_entry_runs_without_the_collector_and_exits_cleanly(configs, tmp_path, entry, name, code):
    assert _console_script() == ("optoflux.__main__", "main")
    proc = _python(["-c", _AT_EXIT + _ENTRIES[entry], "run", str(configs[name])], tmp_path)
    assert proc.returncode == 0, proc.stderr
    *wrote, exit_code, at_exit = proc.stdout.splitlines()
    assert (int(exit_code), at_exit) == (code, "at exit: collector False frozen True")
    if code == 0:
        assert wrote == ["wrote result.csv (steadystate)"]
        assert (tmp_path / "result.csv").read_bytes() == (DATA / "steady_forward.csv").read_bytes()
    else:
        assert "frequency_grid.points" in proc.stderr


# the entry run of a fluxmap split over two ranges, with the BLAS thread
# variables removed from its environment: each fork prints how many threads
# the forking process has
_THREADS = ("import os\n"
            "for name in ('OPENBLAS_NUM_THREADS', 'OMP_NUM_THREADS', 'MKL_NUM_THREADS'):\n"
            "    os.environ.pop(name, None)\n"
            "os.sched_getaffinity = lambda pid: {0, 1}\n"
            "fork = os.fork\n"
            "def counted_fork():\n"
            "    print('threads', len(os.listdir('/proc/self/task')), flush=True)\n"
            "    return fork()\n"
            "os.fork = counted_fork\n")


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc")
def test_entry_forks_a_process_of_one_thread(tmp_path):
    proc = _python(["-c", _THREADS + _CLI, "run", "--preset", "table1",
                    "--set", "mode=fluxmap", "--set", "quantity=phonon",
                    "--set", "params.mechanical_hop_hz=520e3", "--set", "flux_grid.points=51",
                    "--out", "map.csv"], tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["threads 1", "wrote map.csv (fluxmap, phonon)", "0"]


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc")
def test_tier1_forks_from_a_process_of_one_thread():
    # conftest.py pins BLAS to one thread before numpy loads, unless the
    # environment chose another count
    if any(os.environ[name] != "1"
           for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")):
        pytest.skip("the environment sets another BLAS thread count")
    import numpy  # noqa: F401

    assert len(os.listdir("/proc/self/task")) == 1


def test_startup_cpu_prints_a_line_per_entry(capsys):
    # the informational startup_cpu script, one process per entry: a header,
    # then each entry's least and median CPU and the modules it loaded
    assert startup_cpu.main(["--runs", "1"]) == 0
    header, *lines = capsys.readouterr().out.splitlines()
    assert header.split() == ["entry", "least_ms", "median_ms", "loaded"]
    rows = {name: (float(least), float(median), set(loaded))
            for name, least, median, *loaded in (line.split() for line in lines)}
    assert list(rows) == list(startup_cpu.ENTRIES)
    assert all(0 < least == median for least, median, _ in rows.values())
    assert rows["setup"][2] == {"optoflux.cli", "optoflux.errors", "optoflux.model"}
    assert {"argparse", "numpy", "optoflux.sweep"} <= rows["spectrum"][2]
