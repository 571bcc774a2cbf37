"""Batch front end: YAML scenario files in, CSV or JSON data products out.

Scenario files follow the quoting conventions of the reference table:
frequencies and rates in Hz, phases and flux in units of pi.  The single
conversion to internal angular units happens here, at ingestion.

Example scenario::

    mode: spectrum
    quantity: phonon
    params:
      preset: table1
      mechanical_hop_hz: 5.157e5
      flux_pi: -0.1585
    frequency_grid: {start_hz: 5.6e9, stop_hz: 6.1e9, points: 2001}
    output: {path: spectrum.csv, format: csv}

Loading, validating, building parameters and the steadystate mode are
plain Python.  At import the module loads only PyYAML, ``model`` and
``errors``; the rest loads where it is called: numpy and the numeric layers
in the spectrum, fluxmap and tune runners, ``steadystate`` in its runner,
``json`` in the JSON writer, ``argparse`` in :func:`main`, and ``signal``
and ``tempfile`` in a write split into ranges.

Exit codes: 0 success, 1 i/o failure, 2 validation failure, 3 numerical
degeneracy that aborts the scenario.
"""

from __future__ import annotations

import contextlib
import errno
import functools
import math
import os
import shutil
import sys
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING, Callable, NamedTuple

import yaml

from . import model
from .errors import ConfigError, OptofluxError
from .model import TWO_PI, SystemParams, wrap_phase

if TYPE_CHECKING:
    import numpy as np

    from . import optimize, sweep

MODES = ("spectrum", "fluxmap", "tune", "steadystate")
FORMATS = ("csv", "json")
PRESETS = ("table1",)

# the most kernel point evaluations (one isolation value at one frequency) a
# scenario may ask for, so that a typo fails at validation instead of in
# allocation or in a search that never ends; see Scenario.from_dict
MAX_POINT_EVALUATIONS = 10**8


class _UniqueKeyLoader(yaml.SafeLoader):
    """SafeLoader that rejects a mapping key given twice.

    YAML 1.2 requires unique keys; PyYAML would silently keep the last one.
    """

    def construct_mapping(self, node, deep=False):
        seen = set()
        for key_node, _ in node.value:
            # merge keys may repeat; SafeLoader rejects collection keys itself
            merge = key_node.tag == "tag:yaml.org,2002:merge"
            if merge or not isinstance(key_node, yaml.ScalarNode):
                continue
            key = self.construct_object(key_node)
            if key in seen:
                raise ConfigError(f"{key}: duplicate key (line {key_node.start_mark.line + 1})")
            seen.add(key)
        return super().construct_mapping(node, deep=deep)


def _fail(key, message):
    raise ConfigError(f"{key}: {message}")


def _check_keys(section, mapping, allowed):
    if not isinstance(mapping, dict):
        _fail(section, "must be a mapping")
    for key in mapping:
        if key not in allowed:
            _fail(f"{section}.{key}", "unknown key")


# the factor from a number's file units to angular ones, by its key's suffix:
# Hz to rad/s and units of pi to rad; any other number is used as it is
_SCALES = {"hz": TWO_PI, "pi": math.pi}


def _scale(key):
    return _SCALES.get(key.split("[")[0].rpartition("_")[2], 1.0)


def _number(key, value, minimum=None, exclusive=False):
    if isinstance(value, str):
        # YAML 1.1 reads "5.6e9" (no exponent sign) as a string; accept it anyway
        with contextlib.suppress(ValueError):
            value = float(value)
    value = model.real(f"{key}:", value, minimum, above=exclusive)
    if not math.isfinite(_scale(key) * value):
        _fail(key, f"must be finite in angular units, got {value!r}")
    return value


def _pair(key, value, minimum=None, exclusive=False):
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        _fail(key, "must be a [left, right] pair")
    return [
        _number(f"{key}[0]", value[0], minimum, exclusive),
        _number(f"{key}[1]", value[1], minimum, exclusive),
    ]


def _integer(key, value, minimum):
    return model.real(f"{key}:", value, minimum, integer=True)


def _path(key, value, minimum=None):
    if not isinstance(value, str) or not value or "\0" in value:
        _fail(key, "must be a non-empty string without NUL characters")
    return value


_REQUIRED = object()  # the default of a key that has none
# Scenario section -> (the modes it belongs to, {key: (kind, minimum, default)}).
# A kind is one of the checkers above or a tuple of the allowed values; a key
# whose default is None is left out when absent.  Rules that tie keys together
# are checked in Scenario.from_dict.
#
# A params key also names its SystemParams field, or its [left, right]
# fields, set to the key's value times _scale(key).  "flux" is not a field:
# it is applied last, through SystemParams.with_flux.  Keys are checked
# in this order, so a missing inline field reports the first key that would
# have set it.
_SECTIONS = {
    "params": (MODES, {
        "preset": (PRESETS, None, None, ()),
        "mechanical_hop_hz": (_number, 0.0, None, ("mechanical_hop",)),
        "mech_frequency_hz": (functools.partial(_pair, exclusive=True), 0.0, None,
                              ("omega_mL", "omega_mR")),
        "optical_external_decay_hz": (_pair, 0.0, None, ("kappa_eL", "kappa_eR")),
        "optical_internal_decay_hz": (_pair, 0.0, None, ("kappa_iL", "kappa_iR")),
        "mech_external_decay_hz": (_pair, 0.0, None, ("gamma_eL", "gamma_eR")),
        "mech_internal_decay_hz": (_pair, 0.0, None, ("gamma_iL", "gamma_iR")),
        "optical_hop_hz": (_number, 0.0, None, ("optical_hop",)),
        "enhanced_coupling_hz": (_pair, 0.0, None, ("G_L", "G_R")),
        "detuning_hz": (_pair, None, None, ("detuning_L", "detuning_R")),
        "vacuum_coupling_hz": (_pair, 0.0, None, ("g_L", "g_R")),
        "flux_pi": (_number, None, None, ("flux",)),
        "drive_phase_pi": (_pair, None, None, ("phi_L", "phi_R")),
    }),
    "frequency_grid": (("spectrum", "fluxmap", "tune"), {
        "start_hz": (_number, None, model.DEFAULT_FREQ_START_HZ),
        "stop_hz": (_number, None, model.DEFAULT_FREQ_STOP_HZ),
        "points": (_integer, 2, model.DEFAULT_FREQ_POINTS),
    }),
    "flux_grid": (("fluxmap",), {
        "start_pi": (_number, None, -2.0),
        "stop_pi": (_number, None, 2.0),
        "points": (_integer, 2, model.DEFAULT_FLUX_POINTS),
    }),
    "tune": (("tune",), {
        "flux_bounds_pi": (_pair, None, _REQUIRED),
        "aux": ((None, *model.AUX_PARAMETERS), None, None),
        "aux_bounds_hz": (_pair, 0.0, None),
        "coarse_points": (_integer, 1, model.DEFAULT_COARSE_POINTS),
        "golden_iterations": (_integer, 0, model.DEFAULT_GOLDEN_ITERATIONS),
        "descent_sweeps": (_integer, 0, model.DEFAULT_DESCENT_SWEEPS),
    }),
    "steadystate": (("steadystate",), {
        "drive_amplitude": (_pair, 0.0, None),
        "target_enhanced_coupling_hz": (_pair, 0.0, None),
    }),
    "output": (MODES, {
        "format": (FORMATS, None, "csv"),
        "path": (_path, None, None),  # result.<format> when absent
    }),
}


def _section(name, mode, raw):
    """Section ``name`` of scenario mapping ``raw``, checked and completed
    with its defaults; None when ``mode`` does not use it."""
    modes, keys = _SECTIONS[name]
    if mode not in modes:
        if name in raw:
            _fail(name, f"only applicable to {' or '.join(modes)} mode, not {mode}")
        return None
    section = raw.get(name, {})
    _check_keys(name, section, keys)
    out = {}
    for key, (kind, minimum, default, *_) in keys.items():
        if key in section:
            value = section[key]
            if not isinstance(kind, tuple):
                try:
                    value = kind(f"{name}.{key}", value, minimum)
                except ValueError as exc:  # from model.real, which names "key:"
                    raise ConfigError(str(exc)) from None
            elif value not in kind:
                _fail(f"{name}.{key}", f"must be one of {kind}, got {value!r}")
        elif default is _REQUIRED:
            _fail(f"{name}.{key}", "required")
        else:
            value = default
        if value is not None:
            out[key] = value
    return out


@dataclass(frozen=True)
class Scenario:
    """One validated batch job.  Values stay in file units (Hz, pi)."""

    mode: str
    quantity: str | None
    params: dict
    frequency_grid: dict | None
    flux_grid: dict | None
    tune: dict | None
    steadystate: dict | None
    output: dict

    @classmethod
    def from_dict(cls, raw) -> "Scenario":
        if not isinstance(raw, dict):
            raise ConfigError("scenario: top level must be a mapping")
        _check_keys("scenario", raw, {"mode", "quantity", *_SECTIONS})

        mode = raw.get("mode")
        if mode not in MODES:
            _fail("mode", f"must be one of {MODES}, got {mode!r}")

        quantity = raw.get("quantity")
        if mode == "steadystate":
            if quantity is not None:
                _fail("quantity", "not applicable to steadystate mode")
        else:
            if quantity not in model.QUANTITIES:
                _fail("quantity", f"must be one of {model.QUANTITIES}, got {quantity!r}")

        sections = {name: _section(name, mode, raw) for name in _SECTIONS}

        params = sections["params"]
        if "mechanical_hop_hz" not in params:
            _fail("params.mechanical_hop_hz", "the mechanical hop V is required "
                  "(the preset does not pin it; see the tune mode for picking one)")
        if "flux_pi" in params and "drive_phase_pi" in params:
            _fail("params.flux_pi", "give flux_pi or drive_phase_pi, not both")
        if "preset" not in params:
            # without a preset, the keys must set every field the preset sets
            table = _SECTIONS["params"][1]
            given = {field for key in params for field in table[key][3]}
            for key, entry in table.items():
                if any(f in model.TABLE1_HZ and f not in given for f in entry[3]):
                    _fail(f"params.{key}", "required when no preset is used")

        # a span stop - start must be finite in angular units too, for the
        # grid's or the search's steps
        for name, start, stop in (("frequency_grid", "start_hz", "stop_hz"),
                                  ("flux_grid", "start_pi", "stop_pi")):
            grid = sections[name]
            if grid is None:
                continue
            if grid[start] >= grid[stop]:
                _fail(name, f"{start} must be < {stop}")
            if math.isinf(_scale(stop) * grid[stop] - _scale(start) * grid[start]):
                _fail(name, f"{stop} - {start} must be finite in angular units")
        tune = sections["tune"]
        if tune is not None:
            for key in ("flux_bounds_pi", "aux_bounds_hz"):
                lo, hi = tune.get(key, (0.0, 0.0))
                if lo > hi:
                    _fail(f"tune.{key}", "lower bound exceeds upper bound")
                if math.isinf(_scale(key) * hi - _scale(key) * lo):
                    _fail(f"tune.{key}", "upper - lower bound must be finite in angular units")
            if ("aux" in tune) != ("aux_bounds_hz" in tune):
                _fail("tune.aux_bounds_hz", "required when aux is set" if "aux" in tune
                      else "only applicable when aux is set")

        # kernel point evaluations per frequency point: one per flux point, or
        # one per objective of the search (the coarse scan, golden_iterations
        # + 2 per sweep and open coordinate, and the final peak); for a tune
        # this is the worst case, as peak may score a candidate from a few cells
        keys, per_point = ["frequency_grid.points"], 1
        if mode == "fluxmap":
            keys, per_point = [*keys, "flux_grid.points"], sections["flux_grid"]["points"]
        elif mode == "tune":
            keys += ["tune.coarse_points", "tune.golden_iterations", "tune.descent_sweeps"]
            opened = sum(tune[k][0] < tune[k][1] for k in ("flux_bounds_pi", "aux_bounds_hz")
                         if k in tune)
            per_point = (tune["coarse_points"] ** opened + 1
                         + tune["descent_sweeps"] * opened * (tune["golden_iterations"] + 2))
            if opened and tune["coarse_points"] < 2:
                _fail("tune.coarse_points", "must be >= 2 when a bound pair is open")
        grid = sections["frequency_grid"]
        if grid is not None and grid["points"] * per_point > MAX_POINT_EVALUATIONS:
            _fail(", ".join(keys), "the scenario needs more than "
                  f"{MAX_POINT_EVALUATIONS:,} kernel point evaluations")

        steady = sections["steadystate"]
        if steady is not None:
            if ("drive_amplitude" in steady) == ("target_enhanced_coupling_hz" in steady):
                _fail("steadystate", "give exactly one of drive_amplitude "
                      "or target_enhanced_coupling_hz")
            pairs = zip(steady.get("target_enhanced_coupling_hz", ()),
                        params.get("vacuum_coupling_hz", (0.0, 0.0)))
            for i, (target, g) in enumerate(pairs):
                if target > 0 and g == 0:
                    _fail(f"steadystate.target_enhanced_coupling_hz[{i}]",
                          f"must be 0 while params.vacuum_coupling_hz[{i}] is 0")

        output = sections["output"]
        output.setdefault("path", f"result.{output['format']}")
        return cls(mode=mode, quantity=quantity, **sections)

    def to_dict(self) -> dict:
        return {k: v for k, v in asdict(self).items() if v is not None}

    # -- builders -------------------------------------------------------------

    def build_params(self) -> SystemParams:
        values = {}
        if self.params.get("preset") == "table1":
            values = {name: TWO_PI * value for name, value in model.TABLE1_HZ.items()}
        table = _SECTIONS["params"][1]
        for key, value in self.params.items():
            fields, factor = table[key][3], _scale(key)
            for field, v in zip(fields, value if len(fields) == 2 else [value]):
                values[field] = factor * v
        flux = values.pop("flux", None)
        values.setdefault("detuning_L", -values["omega_mL"])
        values.setdefault("detuning_R", -values["omega_mR"])
        params = SystemParams(**values)
        return params if flux is None else params.with_flux(flux)

    def build_frequency_grid(self) -> sweep.FrequencyGrid:
        from . import sweep

        g = self.frequency_grid
        return sweep.FrequencyGrid.from_hz(g["start_hz"], g["stop_hz"], g["points"])

    def build_flux_axis(self) -> np.ndarray:
        import numpy as np

        g = self.flux_grid
        return np.linspace(math.pi * g["start_pi"], math.pi * g["stop_pi"], g["points"])

    def build_search_space(self) -> optimize.SearchSpace:
        from . import optimize

        t = self.tune
        lo, hi = t["flux_bounds_pi"]
        return optimize.SearchSpace(
            flux_bounds=(math.pi * lo, math.pi * hi),
            aux_name=t.get("aux"),
            aux_bounds=tuple(TWO_PI * b for b in t["aux_bounds_hz"]) if "aux" in t else None,
            frequency_grid=self.build_frequency_grid(),
            coarse_points=t["coarse_points"],
            golden_iterations=t["golden_iterations"],
            descent_sweeps=t["descent_sweeps"],
        )


# -- serialization -------------------------------------------------------------

# the fewest values one process is given to format.  On a 2-CPU x86 host,
# forking and reaping a 40 MB process took 2-4 ms and a cell took 0.35-0.5 us
# (CSV) or 0.7-1.1 us (JSON) to format; cutting an output in two began to pay
# between 20,000 and 80,000 cells in all
MIN_CELLS_PER_PIECE = 50_000
# the rows that _csv joins from its column blocks at a time, and so the
# frequencies at which a flux map's CSV range computes every flux at a time.
# On the default 401x2001 map as CSV (2-CPU x86 host, one BLAS thread), peak
# RSS read 30.7 MB with blocks of 8 rows, 30.9 with 16, 31.2 with 32 and 31.6
# with 64; CPU time read 0.67 s with 8 and 0.62-0.67 s from 16 to 64
_CSV_BLOCK_ROWS = 16


class _Text(NamedTuple):
    """An output file's text: the chunks of ``head``, then ``body(lo, hi)``
    for consecutive row ranges [lo, hi) that cover ``range(rows)``, then the
    chunks of ``tail``.  ``cells`` counts the values in the rows.

    Any cut of the rows into ranges gives the same bytes, so :func:`_write`
    can format the ranges in separate processes."""

    head: list
    rows: int
    cells: int
    body: Callable
    tail: list


def _csv(header, blocks):
    """CSV text: the header row, then one line per row of the column
    ``blocks``: float arrays with one entry per row, each a 1-D array (one
    column) or a 2-D array or view with its columns side by side (such as a
    map's transpose).  The blocks are joined _CSV_BLOCK_ROWS rows at a time,
    so no copy of the whole table is made.  Numbers carry 12 significant
    digits ("%.12g" prints non-finite values as inf, -inf and nan).
    """
    rows = len(blocks[0])
    width = sum(1 if block.ndim == 1 else block.shape[1] for block in blocks)
    line = ",".join(["%.12g"] * width) + "\n"
    # an array means numpy is loaded: looked up, not imported, so that a
    # forked writer imports nothing
    column_stack = sys.modules["numpy"].column_stack

    def body(lo, hi):
        for start in range(lo, hi, _CSV_BLOCK_ROWS):
            stop = min(hi, start + _CSV_BLOCK_ROWS)
            # row by row: a whole-block tolist() would hold every cell as an object
            for row in column_stack([block[start:stop] for block in blocks]):
                yield line % tuple(row.tolist())

    return _Text([",".join(header) + "\n"], rows, rows * width, body, [])


def _csv_row(fields):
    """CSV text of one record: the keys of ``fields``, then its values, a
    number as "%.12g", a string as it is and None as an empty cell."""
    cells = ("" if v is None else v if isinstance(v, str) else "%.12g" % v
             for v in fields.values())
    return _Text([",".join(fields) + "\n" + ",".join(cells) + "\n"], 0, 0, lambda lo, hi: (), [])


def _sentinel(x):
    """A float as JSON can hold it: finite values stay, while inf, -inf and nan,
    which JSON has no literal for, become the strings "inf", "-inf" and "nan"."""
    return x if math.isfinite(x) else str(x)


def _plain(value):
    """``value`` with :func:`_sentinel` applied to every float in its dicts and lists."""
    if isinstance(value, dict):
        return {key: _plain(v) for key, v in value.items()}
    if isinstance(value, list):
        return [_plain(v) for v in value]
    return _sentinel(value) if isinstance(value, float) else value


def _json_floats(cells):
    """The JSON texts of the cells of a 1-D float array."""
    # an array means numpy is loaded: looked up, not imported, so that a
    # forked writer imports nothing
    if sys.modules["numpy"].isfinite(cells).all():
        # float.__repr__ is what json writes for a finite float
        return map(float.__repr__, cells.tolist())
    import json  # loaded by _json

    return (json.dumps(_sentinel(x)) for x in cells.tolist())


def _json(payload, rows=None):
    """JSON text of the mapping ``payload``: the bytes of
    ``json.dumps(payload, indent=2)`` plus a final newline, with non-finite
    floats as the strings of :func:`_sentinel`.

    The value at key ``rows`` is the text's rows, streamed between the head
    and tail of that dump with a marker in their place.  It is either a 2-D
    float array, written one row (a JSON list) at a time, as a flux map is,
    or a mapping of equal-length 1-D float arrays, written as a list of
    objects of their entries a few thousand at a time, as a spectrum's
    points are.
    """
    import json  # here, not at the top: only a JSON output needs it

    mark = "\0rows"  # no payload string holds a NUL, so its JSON text is found once
    text = json.dumps(_plain(payload if rows is None else {**payload, rows: mark}), indent=2)
    head, _, tail = text.partition(json.dumps(mark))
    if rows is None:
        return _Text([head, "\n"], 0, 0, lambda lo, hi: (), [])
    head, tail, table = [head], ["\n  ]", tail, "\n"], payload[rows]
    if isinstance(table, dict):
        columns = list(table.values())
        record = "{" + ",".join(f"\n      {json.dumps(name)}: %s" for name in table) + "\n    }"

        def body(lo, hi):
            step = 4096
            for start in range(lo, hi, step):
                texts = zip(*(_json_floats(column[start:min(hi, start + step)])
                              for column in columns))
                yield (("[" if start == 0 else ",") + "\n    "
                       + ",\n    ".join(record % cells for cells in texts))

        return _Text(head, len(columns[0]), len(columns[0]) * len(columns), body, tail)

    def body(lo, hi):
        for i in range(lo, hi):
            yield (("[" if i == 0 else ",") + "\n    [\n      "
                   + ",\n      ".join(_json_floats(table[i])) + "\n    ]")

    return _Text(head, len(table), table.size, body, tail)


def _cut(items, cost, minimum):
    """Bounds ``[0, ..., items]`` of contiguous ranges of ``items`` items.

    There is one range per usable CPU, but no more ranges than items, nor
    more than leave each range ``minimum`` of the total ``cost``; there is
    always at least one, and only one where the platform cannot fork or
    tell the usable CPUs.
    """
    n = 1
    if hasattr(os, "fork") and hasattr(os, "sched_getaffinity"):
        n = max(1, min(len(os.sched_getaffinity(0)), items, cost // minimum))
    return [items * k // n for k in range(n + 1)]


def _fork(text, lo, hi, part, what, pids):
    """Fork a child that writes ``text.body(lo, hi)`` into the binary file
    ``part``; append its pid to ``pids``.

    The child leaves only by os._exit, 0 once ``part`` is written and 1
    after printing its error, so nothing of the caller's stack (finally
    blocks, exception handlers, atexit hooks) runs in it.  SIGINT and
    SIGTERM stay blocked from before the fork until the child is inside the
    try that ends in os._exit, so that a signal cannot unwind a child into
    the caller either, and in the caller until the pid is recorded, so that
    a signal cannot lose the child before it is reaped.  A fork copies only
    the calling thread: on Python >= 3.12 a fork while numpy's BLAS threads
    exist raises a DeprecationWarning.
    """
    import signal  # here, not at the top: only a split needs it

    mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT, signal.SIGTERM})
    try:
        pid = os.fork()
        if pid == 0:
            status = 1
            try:
                signal.pthread_sigmask(signal.SIG_SETMASK, mask)
                with open(part.fileno(), "w", encoding="utf-8", closefd=False) as fh:
                    fh.writelines(text.body(lo, hi))
                status = 0
            except BaseException as exc:
                print(f"optoflux: {what} {lo}-{hi}: {type(exc).__name__}: {exc}",
                      file=sys.stderr)
                sys.stderr.flush()
            finally:
                os._exit(status)
        pids.append(pid)
    finally:
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)


def _write(text, path):
    """Write ``text`` to ``path`` atomically, its rows cut into ranges of at
    least MIN_CELLS_PER_PIECE cells by :func:`_cut`.

    The first range is formatted here into a temporary file beside ``path``,
    each later one by a forked child into an unnamed part file beside it
    (gone once closed, even if this process is killed), copied into the
    output in order once the child exits; a failed child raises OSError.
    One range forks and opens none.  The temporary file is renamed over
    ``path``, so an interrupted or failed run never leaves a truncated
    output; on every exit path each child is reaped (killed first if it
    still runs) and every part closed.
    """
    bounds = _cut(text.rows, text.cells, MIN_CELLS_PER_PIECE)
    tmp = f"{path}.{os.getpid()}.tmp"
    what = f"{path}: the writer of rows"
    parts, pids = [], []  # per range after the first
    reaped = 0
    try:
        # a child inherits unflushed output and would write it again
        sys.stdout.flush()
        sys.stderr.flush()
        for lo, hi in zip(bounds[1:-1], bounds[2:]):
            import tempfile  # here, not at the top: only a split opens parts

            parts.append(tempfile.TemporaryFile(dir=os.path.dirname(path) or "."))
            _fork(text, lo, hi, parts[-1], what, pids)
        # open() keeps the umask-derived file mode
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.writelines(text.head)
            fh.writelines(text.body(0, bounds[1]))
            for pid, part, lo, hi in zip(pids, parts, bounds[1:], bounds[2:]):
                _, status = os.waitpid(pid, 0)
                reaped += 1
                if status:
                    raise OSError(f"{what} {lo}-{hi} failed "
                                  f"(exit status {os.waitstatus_to_exitcode(status)})")
                part.seek(0)
                fh.flush()
                shutil.copyfileobj(part, fh.buffer)
            fh.writelines(text.tail)
        os.replace(tmp, path)
    finally:
        for pid in pids[reaped:]:
            from signal import SIGKILL  # loaded by _fork

            with contextlib.suppress(OSError):
                os.kill(pid, SIGKILL)
                os.waitpid(pid, 0)
        for part in parts:
            part.close()
        with contextlib.suppress(OSError):
            os.remove(tmp)  # still there only if the write or rename failed


def _writable(path):
    """``path``; an OSError naming it if no file can be renamed onto it (a
    symbolic link is replaced, not followed)."""
    parent = os.path.dirname(path) or "."
    if os.path.isdir(path) and not os.path.islink(path):
        code = errno.EISDIR
    elif not os.path.isdir(parent):
        code = errno.ENOTDIR if os.path.exists(parent) else errno.ENOENT
    else:
        return path
    raise OSError(code, os.strerror(code), path)


# the runners call the numeric layers as module attributes, so that a wrapper
# set on the module is honoured


def _run_spectrum(scenario, params):
    from . import sweep

    grid = scenario.build_frequency_grid()
    points = {"frequency_hz": grid.values() / TWO_PI,
              "isolation_db": sweep.spectrum(params, scenario.quantity, grid)}
    if scenario.output["format"] == "csv":
        return _csv(points, tuple(points.values()))
    return _json({"mode": "spectrum", "quantity": scenario.quantity, "points": points},
                 rows="points")


def _run_fluxmap(scenario, params):
    from . import sweep

    # never .values: each writer range computes the rows it reads, flux rows
    # for JSON and _CSV_BLOCK_ROWS frequencies at every flux for CSV
    fm = sweep.flux_map(params, scenario.quantity, scenario.build_flux_axis(),
                        scenario.build_frequency_grid())
    flux_pi = (fm.flux_axis / math.pi).tolist()
    freqs = fm.freq_axis.values() / TWO_PI
    if scenario.output["format"] == "csv":
        return _csv(["frequency_hz"] + ["%.12g" % f for f in flux_pi], (freqs, fm.T))
    return _json({
        "mode": "fluxmap",
        "quantity": scenario.quantity,
        "flux_pi": flux_pi,
        "frequency_hz": freqs.tolist(),
        "isolation_db": fm,
    }, rows="isolation_db")


def _run_tune(scenario, params):
    from . import optimize

    result = optimize.tune(params, scenario.quantity, scenario.build_search_space())
    fields = {
        "best_flux_rad": result.best_flux,
        "best_flux_pi": result.best_flux / math.pi,
        "best_flux_wrapped_pi": wrap_phase(result.best_flux) / math.pi,
        "best_aux_name": scenario.tune.get("aux"),
        "best_aux_hz": None if result.best_aux is None else result.best_aux / TWO_PI,
        "peak_db": result.peak_db,
        "peak_frequency_hz": result.peak_frequency / TWO_PI,
    }
    if scenario.output["format"] == "csv":
        del fields["best_flux_wrapped_pi"]
        return _csv_row(fields)
    return _json({
        "mode": "tune",
        "quantity": scenario.quantity,
        **fields,
        "trace": [
            {"flux_rad": flux,
             "aux_hz": None if aux_value is None else aux_value / TWO_PI,
             "objective_db": obj}
            for (flux, aux_value), obj in result.trace
        ],
    })


def _run_steadystate(scenario, params):
    from . import steadystate

    section = scenario.steadystate
    if "drive_amplitude" in section:
        drives = section["drive_amplitude"]
    else:
        gl_hz, gr_hz = section["target_enhanced_coupling_hz"]
        drives = steadystate.drives_for_target_G(params, (TWO_PI * gl_hz, TWO_PI * gr_hz))
    state = steadystate.steady_amplitudes(params, drives)
    fields = {
        "alpha_L_re": state.alpha_L.real,
        "alpha_L_im": state.alpha_L.imag,
        "alpha_R_re": state.alpha_R.real,
        "alpha_R_im": state.alpha_R.imag,
        "G_L_hz": state.G_L / TWO_PI,
        "G_R_hz": state.G_R / TWO_PI,
        "eps_L_re": complex(drives[0]).real,
        "eps_L_im": complex(drives[0]).imag,
        "eps_R_re": complex(drives[1]).real,
        "eps_R_im": complex(drives[1]).imag,
        "phi_L_rad": params.phi_L,
        "phi_R_rad": params.phi_R,
    }
    if scenario.output["format"] == "csv":
        return _csv_row(fields)
    return _json({"mode": "steadystate", **fields})


_RUNNERS = {
    "spectrum": _run_spectrum,
    "fluxmap": _run_fluxmap,
    "tune": _run_tune,
    "steadystate": _run_steadystate,
}


def run(scenario: Scenario) -> str:
    """Execute one scenario and write its output file atomically.

    Every check that can reject the scenario runs first, and every number
    is computed before the file opens but a flux map's: :func:`sweep.flux_map`
    checks the axes and builds the amplitude terms first, and each range of
    the writer reads from the map the rows it formats, a few at a time, just
    before it formats them.  :func:`_write` formats CSV and JSON a row or a
    block of rows at a time, so neither the file nor a map is ever held whole.

    An output path that no file can be renamed onto is refused before any
    runner starts.  Returns the path written.  Degeneracy errors propagate
    to the caller; sweeps never abort on per-point degeneracies (those
    become sentinel values in the data).
    """
    try:
        params = scenario.build_params()
        path = _writable(scenario.output["path"])
        # a runner does every check and all numerical work here, but for the
        # rows of a flux map, which its text reads from the map made here; so
        # value-level rejections from the model or search layers surface
        # before the file is opened, as scenario problems
        text = _RUNNERS[scenario.mode](scenario, params)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    _write(text, path)
    return path


# -- command line ----------------------------------------------------------------


def _assign(config, key, value):
    """Set the dotted scenario key ``key`` of ``config`` to ``value``,
    adding the sections on its path that are absent."""
    node, parts = config, key.split(".")
    for i, part in enumerate(parts[:-1]):
        node = node.setdefault(part, {})
        if not isinstance(node, dict):
            _fail(".".join(parts[:i + 1]), "must be a mapping")
    node[parts[-1]] = value


def load_scenario(path=None, preset=None, overrides=(), out=None, fmt=None) -> Scenario:
    """Assemble a scenario from an optional file plus command-line pieces."""
    if path is None and preset is None:
        raise ConfigError("either a config file or --preset is required")
    config = {}
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                config = yaml.load(fh, Loader=_UniqueKeyLoader)
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config {path!r}: {exc}") from None
        # ValueError: an integer beyond int()'s digit limit; RecursionError:
        # collections nested deeper than the interpreter's stack
        except (yaml.YAMLError, ValueError, RecursionError) as exc:
            raise ConfigError(f"cannot parse config {path!r}: {exc}") from None
        if config is None:  # an empty or null document
            config = {}
        elif not isinstance(config, dict):
            raise ConfigError("scenario: top level must be a mapping")
    if preset is not None:
        _assign(config, "params.preset", preset)
    for assignment in overrides:
        key, equals, raw_value = assignment.partition("=")
        key = key.strip()
        if not equals or not key:
            raise ConfigError(f"--set expects KEY=VALUE, got {assignment!r}")
        try:
            value = yaml.load(raw_value, Loader=_UniqueKeyLoader)
        except (yaml.YAMLError, ValueError, RecursionError):
            raise ConfigError(f"--set {key}: cannot parse value {raw_value!r}") from None
        _assign(config, key, value)
    if out is not None:
        _assign(config, "output.path", out)
    if fmt is not None:
        _assign(config, "output.format", fmt)
    return Scenario.from_dict(config)


def main(argv=None) -> int:
    import argparse  # here, not at the top: a setup that only loads scenarios skips it

    parser = argparse.ArgumentParser(
        prog="optoflux",
        description="Nonreciprocal transport and conversion spectra of two "
                    "flux-threaded optomechanical cavities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    runner = sub.add_parser("run", help="execute a scenario file")
    runner.add_argument("config", nargs="?", default=None,
                        help="YAML scenario file (optional with --preset)")
    runner.add_argument("--preset", choices=PRESETS,
                        help="start from a bundled parameter preset")
    runner.add_argument("--set", dest="overrides", action="append", default=[],
                        metavar="KEY=VALUE",
                        help="override a scenario key (dotted path), repeatable")
    runner.add_argument("--out", help="output path (overrides output.path)")
    runner.add_argument("--format", choices=FORMATS,
                        help="output format (overrides output.format)")
    args = parser.parse_args(argv)

    try:
        scenario = load_scenario(path=args.config, preset=args.preset,
                                 overrides=args.overrides, out=args.out,
                                 fmt=args.format)
        path = run(scenario)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OptofluxError as exc:
        print(f"degenerate scenario: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1
    print(f"wrote {path} ({scenario.mode}"
          + (f", {scenario.quantity}" if scenario.quantity else "") + ")")
    return 0
