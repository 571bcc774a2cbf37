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
plain Python.  The numeric layers (numpy, ``linsys``, ``response``, ``sweep``,
``optimize``) are imported by the runners of the spectrum, fluxmap and tune
modes when they run, so a steady-state run or a rejected file never loads
them.

No output is formatted from a whole copy of the computed arrays: a flux
map's CSV rows are the map's columns, joined to the frequency column a few
rows at a time from a transposed view.

An output of at least twice MIN_CELLS_PER_PIECE values, such as a default
flux map, is formatted by up to one process per usable CPU, each given at
least MIN_CELLS_PER_PIECE values: its rows are cut into contiguous ranges,
and forked children format all but the first.  The cut, the fork and the
clean-up are those of :mod:`optoflux.fanout`, which also scores the coarse
scan of a large tune.  The bytes do not depend on how many ranges there are;
where the platform cannot fork, one process formats everything.  On Python
>= 3.12 a fork while numpy's BLAS threads exist raises a DeprecationWarning.

Exit codes: 0 success, 1 i/o failure, 2 validation failure, 3 numerical
degeneracy that aborts the scenario.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING, Callable, NamedTuple

import yaml

from . import model, steadystate
from .errors import ConfigError, NoSolution, SingularMatrix, ZeroCoupling
from .model import TWO_PI, SystemParams, wrap_phase

if TYPE_CHECKING:
    import numpy as np

    from . import optimize, sweep

MODES = ("spectrum", "fluxmap", "tune", "steadystate")
FORMATS = ("csv", "json")
PRESETS = ("table1",)

# Scenario params key -> (its SystemParams field, or its [left, right] fields;
# unit factor to angular; minimum or None; whether the minimum is exclusive).
# "flux" is not a field: it is applied last, through SystemParams.with_flux.
# Keys are validated in this order, so a missing inline field reports the
# first key that would have set it.
_PARAMS = {
    "mechanical_hop_hz": (("mechanical_hop",), TWO_PI, 0.0, False),
    "mech_frequency_hz": (("omega_mL", "omega_mR"), TWO_PI, 0.0, True),
    "optical_external_decay_hz": (("kappa_eL", "kappa_eR"), TWO_PI, 0.0, False),
    "optical_internal_decay_hz": (("kappa_iL", "kappa_iR"), TWO_PI, 0.0, False),
    "mech_external_decay_hz": (("gamma_eL", "gamma_eR"), TWO_PI, 0.0, False),
    "mech_internal_decay_hz": (("gamma_iL", "gamma_iR"), TWO_PI, 0.0, False),
    "optical_hop_hz": (("optical_hop",), TWO_PI, 0.0, False),
    "enhanced_coupling_hz": (("G_L", "G_R"), TWO_PI, 0.0, False),
    "enhanced_coupling_angular": (("G_L", "G_R"), 1.0, 0.0, False),
    "detuning_hz": (("detuning_L", "detuning_R"), TWO_PI, None, False),
    "vacuum_coupling_hz": (("g_L", "g_R"), TWO_PI, 0.0, False),
    "flux_pi": (("flux",), math.pi, None, False),
    "drive_phase_pi": (("phi_L", "phi_R"), math.pi, None, False),
}
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


def _number(key, value, minimum=None, exclusive=False):
    if isinstance(value, str):
        # YAML 1.1 reads "5.6e9" (no exponent sign) as a string; accept it anyway
        try:
            value = float(value)
        except ValueError:
            _fail(key, f"must be a number, got {value!r}")
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail(key, f"must be a number, got {value!r}")
    try:
        value = float(value)
    except OverflowError:  # an integer beyond the float range
        value = math.inf
    if not math.isfinite(value):
        _fail(key, "must be finite")
    if minimum is not None:
        if exclusive and value <= minimum:
            _fail(key, f"must be > {minimum}")
        if not exclusive and value < minimum:
            _fail(key, f"must be >= {minimum}")
    return value


def _pair(key, value, minimum=None, exclusive=False):
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        _fail(key, "must be a [left, right] pair")
    return [
        _number(f"{key}[0]", value[0], minimum, exclusive),
        _number(f"{key}[1]", value[1], minimum, exclusive),
    ]


def _integer(key, value, minimum):
    if isinstance(value, bool) or not isinstance(value, int):
        _fail(key, f"must be an integer, got {value!r}")
    if value < minimum:
        _fail(key, f"must be >= {minimum}")
    return value


def _path(key, value, minimum=None):
    if not isinstance(value, str) or not value:
        _fail(key, "must be a non-empty string")
    return value


_REQUIRED = object()  # the default of a key that has none
# Scenario section -> (the modes it belongs to, {key: (kind, minimum, default)}).
# A kind is one of the checkers above or a tuple of the allowed values; a key
# whose default is None is left out when absent.  Rules that tie keys together
# are checked in Scenario.from_dict.
_SECTIONS = {
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
        "drive_phase_pi": (_pair, None, None),
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
    for key, (kind, minimum, default) in keys.items():
        if key in section:
            value = section[key]
            if not isinstance(kind, tuple):
                value = kind(f"{name}.{key}", value, minimum)
            elif value not in kind:
                _fail(f"{name}.{key}", f"must be one of {kind}, got {value!r}")
        elif default is _REQUIRED:
            _fail(f"{name}.{key}", "required")
        else:
            value = default
        if value is not None:
            out[key] = value
    return out


def _normalize_params(raw):
    _check_keys("params", raw, _PARAMS.keys() | {"preset"})
    out = {}
    preset = raw.get("preset")
    if preset is not None:
        if preset not in PRESETS:
            _fail("params.preset", f"unknown preset {preset!r}, available: {PRESETS}")
        out["preset"] = preset

    if "mechanical_hop_hz" not in raw:
        _fail("params.mechanical_hop_hz", "the mechanical hop V is required "
              "(the preset does not pin it; see the tune mode for picking one)")
    if "enhanced_coupling_hz" in raw and "enhanced_coupling_angular" in raw:
        _fail("params.enhanced_coupling_angular",
              "give enhanced_coupling_hz or enhanced_coupling_angular, not both")
    if "flux_pi" in raw and "drive_phase_pi" in raw:
        _fail("params.flux_pi", "give flux_pi or drive_phase_pi, not both")

    if preset is None:
        # without a preset, the keys must set every field the preset sets
        given = {field for key in raw if key in _PARAMS for field in _PARAMS[key][0]}
        for key in _PARAMS:
            if any(f in model.TABLE1_HZ and f not in given for f in _PARAMS[key][0]):
                _fail(f"params.{key}", "required when no preset is used")

    for key, (target, _, minimum, exclusive) in _PARAMS.items():
        if key in raw:
            check = _number if len(target) == 1 else _pair
            out[key] = check(f"params.{key}", raw[key], minimum, exclusive)
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
        _check_keys("scenario", raw, {"mode", "quantity", "params", *_SECTIONS})

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

        if "params" not in raw:
            _fail("params", "section is required")
        params = _normalize_params(raw["params"])
        sections = {name: _section(name, mode, raw) for name in _SECTIONS}

        for name, start, stop in (("frequency_grid", "start_hz", "stop_hz"),
                                  ("flux_grid", "start_pi", "stop_pi")):
            grid = sections[name]
            if grid is not None and grid[start] >= grid[stop]:
                _fail(name, f"{start} must be < {stop}")
        tune = sections["tune"]
        if tune is not None:
            for key in ("flux_bounds_pi", "aux_bounds_hz"):
                if key in tune and tune[key][0] > tune[key][1]:
                    _fail(f"tune.{key}", "lower bound exceeds upper bound")
            if ("aux" in tune) != ("aux_bounds_hz" in tune):
                _fail("tune.aux_bounds_hz", "required when aux is set" if "aux" in tune
                      else "only applicable when aux is set")

        # kernel point evaluations per frequency point: one per flux point, or
        # one per objective of the search (the coarse scan, golden_iterations
        # + 2 per sweep and open coordinate, and the final spectrum)
        keys, per_point = ["frequency_grid.points"], 1
        if mode == "fluxmap":
            keys, per_point = [*keys, "flux_grid.points"], sections["flux_grid"]["points"]
        elif mode == "tune":
            keys += ["tune.coarse_points", "tune.golden_iterations", "tune.descent_sweeps"]
            opened = sum(tune[k][0] < tune[k][1] for k in ("flux_bounds_pi", "aux_bounds_hz")
                         if k in tune)
            per_point = (tune["coarse_points"] ** opened + 1
                         + tune["descent_sweeps"] * opened * (tune["golden_iterations"] + 2))
        grid = sections["frequency_grid"]
        if grid is not None and grid["points"] * per_point > MAX_POINT_EVALUATIONS:
            _fail(", ".join(keys), "the scenario needs more than "
                  f"{MAX_POINT_EVALUATIONS:,} kernel point evaluations")

        steady = sections["steadystate"]
        if steady is not None:
            if ("drive_amplitude" in steady) == ("target_enhanced_coupling_hz" in steady):
                _fail("steadystate", "give exactly one of drive_amplitude "
                      "or target_enhanced_coupling_hz")
            if "drive_phase_pi" in steady and "drive_amplitude" not in steady:
                _fail("steadystate.drive_phase_pi",
                      "only applicable with drive_amplitude (phases come from params)")

        output = sections["output"]
        output.setdefault("path", f"result.{output['format']}")
        return cls(mode=mode, quantity=quantity, params=params, **sections)

    def to_dict(self) -> dict:
        return {k: v for k, v in asdict(self).items() if v is not None}

    # -- builders -------------------------------------------------------------

    def build_params(self) -> SystemParams:
        p = self.params
        values = {}
        if p.get("preset") == "table1":
            values = {name: TWO_PI * value for name, value in model.TABLE1_HZ.items()}
        for key, value in p.items():
            if key in ("preset", "flux_pi"):
                continue
            target, factor = _PARAMS[key][:2]
            for field, v in zip(target, value if len(target) == 2 else [value]):
                values[field] = factor * v
        values.setdefault("detuning_L", -values["omega_mL"])
        values.setdefault("detuning_R", -values["omega_mR"])
        params = SystemParams(**values)
        if "flux_pi" in p:
            params = params.with_flux(math.pi * p["flux_pi"])
        return params

    # the builders below import the numeric layers, so only modes that use
    # them load numpy

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
# the rows that _csv joins from its column blocks at a time.  On the default
# 401x2001 map as CSV, the bench's peak RSS read 36.6 MB with blocks of 8 or
# 16 rows (51 KB), 36.7 with 32, 36.9 with 64, 38.1 with 256 and 39.6 with
# whole ranges; the formatting time did not move measurably from 8 to 256
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


def _csv(header, table):
    """CSV text: the header row, then one line per row of ``table``.

    ``table`` is a list of tuples of Python values, or float arrays with
    one entry per row: a tuple of column blocks, each a 1-D array (one
    column) or a 2-D array or view with its columns side by side (such as a
    map's transpose), or a single 2-D array.  The blocks are joined
    _CSV_BLOCK_ROWS rows at a time, so no copy of the whole table is made.

    Numbers carry 12 significant digits ("%.12g" prints non-finite values as
    inf, -inf and nan); the columns where the first row holds a string are
    written as they are.
    """
    if isinstance(table, list):
        rows, width = len(table), len(header)
        line = ",".join("%s" if isinstance(cell, str) else "%.12g"
                        for cell in (table[0] if table else ())) + "\n"

        def body(lo, hi):
            for row in table[lo:hi]:
                yield line % row
    else:
        blocks = table if isinstance(table, tuple) else (table,)
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
    return (json.dumps(_sentinel(x)) for x in cells.tolist())


def _json_rows(values, indent, lo, hi):
    """JSON chunks of rows [lo, hi) of a float array nested at ``indent`` (a
    newline plus spaces), each row after the "[" (row 0) or "," before it,
    one innermost row per chunk; the closing ``indent + "]"`` is not included.

    The rows of a 1-D record array (one with named fields) are JSON objects
    of its fields, in order, a few thousand records per chunk."""
    inner = indent + "  "
    names = values.dtype.names
    if names:
        record = "{" + ",".join(f"{inner}  {json.dumps(name)}: %s" for name in names) + inner + "}"
        step = 4096
        for start in range(lo, hi, step):
            cells = [_json_floats(values[name][start:min(hi, start + step)]) for name in names]
            yield (("[" if start == 0 else ",") + inner
                   + ("," + inner).join(record % texts for texts in zip(*cells)))
        return
    if values.ndim > 1:
        for i in range(lo, hi):
            yield ("[" if i == 0 else ",") + inner
            yield from _json_array(values[i], inner)
        return
    yield ("[" if lo == 0 else ",") + inner + ("," + inner).join(_json_floats(values[lo:hi]))


def _json_array(values, indent):
    """JSON chunks of a whole float array nested at ``indent``."""
    if not len(values):
        yield "[]"
        return
    yield from _json_rows(values, indent, 0, len(values))
    yield indent + "]"


def _json(payload):
    """JSON text of the mapping ``payload``: the bytes of
    ``json.dumps(payload, indent=2)`` plus a final newline, with non-finite
    floats as the strings of :func:`_sentinel`.

    An ndarray value is written one row at a time (a record array as a list
    of objects), and the rows of the largest one are the text's rows; any
    other value goes through ``json.dumps`` and is re-indented to its
    nesting level.
    """
    # a payload can hold an ndarray only once numpy is loaded, so a payload
    # of plain values is written without importing it
    numpy = sys.modules.get("numpy")
    arrays = [k for k, v in payload.items() if numpy is not None and isinstance(v, numpy.ndarray)]
    split = max(arrays, key=lambda k: payload[k].size, default=None)
    if split is not None and not len(payload[split]):
        split = None  # written whole, as "[]"
    head, tail = [], []
    chunks, sep = head, "{"
    for key, value in payload.items():
        chunks.append(f"{sep}\n  {json.dumps(key)}: ")
        if key == split:
            chunks = tail
            chunks.append("\n  ]")
        elif key in arrays:
            chunks.extend(_json_array(value, "\n  "))
        else:
            # a JSON string never holds a raw newline, so every one is layout
            chunks.append(json.dumps(_plain(value), indent=2).replace("\n", "\n  "))
        sep = ","
    chunks.append("\n}\n")
    if split is None:
        return _Text(head, 0, 0, lambda lo, hi: (), [])
    values = payload[split]
    return _Text(head, len(values), values.nbytes // 8,  # every value is a float64
                 lambda lo, hi: _json_rows(values, "\n  ", lo, hi), tail)


def _append(part, out):
    """Append the open file ``part`` to the open file descriptor ``out``."""
    size, offset = os.fstat(part.fileno()).st_size, 0
    while offset < size:
        sent = os.sendfile(out, part.fileno(), offset, size - offset)
        if not sent:
            raise OSError("a part of the output is shorter than its size")
        offset += sent


def _write(text, path):
    """Write ``text`` to ``path`` atomically, its rows cut into one contiguous
    range per usable CPU (but no more ranges than rows, nor than
    MIN_CELLS_PER_PIECE cells apiece allow), formatted at the same time.

    The first range is formatted here into a temporary file beside ``path``;
    each later one by a forked child into an unnamed part file in the same
    directory (see :func:`fanout.forked`), appended once the child exits.  The
    temporary file is renamed over ``path``, so an interrupted or failed run
    never leaves a truncated output.
    """
    bounds, pieces = [0, text.rows], contextlib.nullcontext(())
    # under two pieces' worth of cells there is one range: spare the import
    if text.cells // MIN_CELLS_PER_PIECE > 1:
        from . import fanout

        def piece(lo, hi, part):
            with open(part.fileno(), "w", encoding="utf-8", closefd=False) as fh:
                fh.writelines(text.body(lo, hi))

        bounds = fanout.cut(text.rows, text.cells, MIN_CELLS_PER_PIECE)
        pieces = fanout.forked(bounds, piece, f"{path}: the writer of rows",
                               os.path.dirname(path) or ".")
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with pieces as parts:
            # open() keeps the umask-derived file mode
            with open(tmp, "w", encoding="utf-8") as fh:
                fh.writelines(text.head)
                fh.writelines(text.body(0, bounds[1]))
                for part in parts:
                    fh.flush()
                    _append(part, fh.fileno())
                fh.writelines(text.tail)
        os.replace(tmp, path)
    finally:
        with contextlib.suppress(OSError):
            os.remove(tmp)  # still there only if the write or rename failed


# The runners of the array modes import the numeric layers when they run and
# call them as module attributes, so a wrapper set on the module is honoured.


def _run_spectrum(scenario, params):
    import numpy as np

    from . import sweep

    grid = scenario.build_frequency_grid()
    freqs = grid.values() / TWO_PI
    values = sweep.spectrum(params, scenario.quantity, grid)
    if scenario.output["format"] == "csv":
        return _csv(["frequency_hz", "isolation_db"], (freqs, values))
    return _json({
        "mode": "spectrum",
        "quantity": scenario.quantity,
        "points": np.rec.fromarrays((freqs, values), names=("frequency_hz", "isolation_db")),
    })


def _run_fluxmap(scenario, params):
    from . import sweep

    fm = sweep.flux_map(params, scenario.quantity, scenario.build_flux_axis(),
                        scenario.build_frequency_grid())
    flux_pi = fm.flux_axis / math.pi
    freqs = fm.freq_axis.values() / TWO_PI
    if scenario.output["format"] == "csv":
        header = ["frequency_hz"] + ["%.12g" % f for f in flux_pi.tolist()]
        return _csv(header, (freqs, fm.values.T))
    return _json({
        "mode": "fluxmap",
        "quantity": scenario.quantity,
        "flux_pi": flux_pi,
        "frequency_hz": freqs,
        "isolation_db": fm.values,
    })


def _run_tune(scenario, params):
    from . import optimize

    result = optimize.tune(params, scenario.quantity, scenario.build_search_space())
    aux = scenario.tune.get("aux")
    aux_hz = None if result.best_aux is None else result.best_aux / TWO_PI
    if scenario.output["format"] == "csv":
        return _csv(["best_flux_rad", "best_flux_pi", "best_aux_name", "best_aux_hz",
                     "peak_db", "peak_frequency_hz"],
                    [(result.best_flux, result.best_flux / math.pi, aux or "",
                      "" if aux_hz is None else aux_hz,
                      result.peak_db, result.peak_frequency / TWO_PI)])
    return _json({
        "mode": "tune",
        "quantity": scenario.quantity,
        "best_flux_rad": result.best_flux,
        "best_flux_pi": result.best_flux / math.pi,
        "best_flux_wrapped_pi": wrap_phase(result.best_flux) / math.pi,
        "best_aux_name": aux,
        "best_aux_hz": aux_hz,
        "peak_db": result.peak_db,
        "peak_frequency_hz": result.peak_frequency / TWO_PI,
        "trace": [
            {"flux_rad": flux,
             "aux_hz": None if aux_value is None else aux_value / TWO_PI,
             "objective_db": obj}
            for (flux, aux_value), obj in result.trace
        ],
    })


def _run_steadystate(scenario, params):
    section = scenario.steadystate
    if "drive_amplitude" in section:
        eps_L, eps_R = section["drive_amplitude"]
        if "drive_phase_pi" in section:
            phi_L = math.pi * section["drive_phase_pi"][0]
            phi_R = math.pi * section["drive_phase_pi"][1]
        else:
            phi_L, phi_R = params.phi_L, params.phi_R
        drives = (eps_L, eps_R, phi_L, phi_R)
    else:
        gl_hz, gr_hz = section["target_enhanced_coupling_hz"]
        eps_L, eps_R = steadystate.drives_for_target_G(
            params, (TWO_PI * gl_hz, TWO_PI * gr_hz))
        drives = (eps_L, eps_R, params.phi_L, params.phi_R)
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
        "phi_L_rad": drives[2],
        "phi_R_rad": drives[3],
    }
    if scenario.output["format"] == "csv":
        return _csv(fields, [tuple(fields.values())])
    return _json({"mode": "steadystate", **fields})


_RUNNERS = {
    "spectrum": _run_spectrum,
    "fluxmap": _run_fluxmap,
    "tune": _run_tune,
    "steadystate": _run_steadystate,
}


def run(scenario: Scenario) -> str:
    """Execute one scenario and write its output file atomically.

    Every number is computed first; the runner of an array mode imports
    numpy and the numeric layers at this point, the steadystate runner
    never does.  CSV and JSON are then formatted from the computed arrays,
    a row or a block of rows at a time, into a temporary file beside the
    output path, which is renamed over it, so neither the file nor a
    nested-list or transposed copy of a map or spectrum is ever held in
    memory whole.  An output of at least twice MIN_CELLS_PER_PIECE values has its
    rows cut into up to one range per usable CPU, formatted at the same time
    by forked children (where the platform can fork) and joined in order; the
    bytes are the same for any number of ranges.  On Python >= 3.12, forking
    while numpy's BLAS threads exist raises a DeprecationWarning.

    Returns the path written.  Degeneracy errors propagate to the caller;
    sweeps never abort on per-point degeneracies (those become sentinel
    values in the data).
    """
    try:
        params = scenario.build_params()
        # a runner does all numerical work here and returns text that only
        # formats it, so value-level rejections from the model or search layers
        # surface before the file is opened, as scenario problems
        text = _RUNNERS[scenario.mode](scenario, params)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    path = scenario.output["path"]
    _write(text, path)
    return path


# -- command line ----------------------------------------------------------------


def _apply_override(config, assignment):
    if "=" not in assignment:
        raise ConfigError(f"--set expects KEY=VALUE, got {assignment!r}")
    key, _, raw_value = assignment.partition("=")
    key = key.strip()
    if not key:
        raise ConfigError(f"--set expects KEY=VALUE, got {assignment!r}")
    try:
        value = yaml.load(raw_value, Loader=_UniqueKeyLoader)
    except (yaml.YAMLError, ValueError):  # ValueError: an integer beyond int()'s digit limit
        raise ConfigError(f"--set {key}: cannot parse value {raw_value!r}") from None
    node = config
    parts = key.split(".")
    for part in parts[:-1]:
        child = node.get(part)
        if child is None:
            child = {}
            node[part] = child
        if not isinstance(child, dict):
            raise ConfigError(f"--set {key}: {part} is not a section")
        node = child
    node[parts[-1]] = value


def _put(config, section, key, value):
    """Set ``config[section][key]`` for a command-line flag."""
    node = config.setdefault(section, {})
    if not isinstance(node, dict):
        _fail(section, "must be a mapping")
    node[key] = value


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
        except (yaml.YAMLError, ValueError) as exc:
            raise ConfigError(f"cannot parse config {path!r}: {exc}") from None
        if config is None:  # an empty or null document
            config = {}
        elif not isinstance(config, dict):
            raise ConfigError("scenario: top level must be a mapping")
    if preset is not None:
        _put(config, "params", "preset", preset)
    for assignment in overrides:
        _apply_override(config, assignment)
    if out is not None:
        _put(config, "output", "path", out)
    if fmt is not None:
        _put(config, "output", "format", fmt)
    return Scenario.from_dict(config)


def main(argv=None) -> int:
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
    except (SingularMatrix, ZeroCoupling, NoSolution) as exc:
        print(f"degenerate scenario: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1
    print(f"wrote {path} ({scenario.mode}"
          + (f", {scenario.quantity}" if scenario.quantity else "") + ")")
    return 0
