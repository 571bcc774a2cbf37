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

Exit codes: 0 success, 1 i/o failure, 2 validation failure, 3 numerical
degeneracy that aborts the scenario.
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import json
import math
import os
import sys
from dataclasses import dataclass

import numpy as np
import yaml

from . import model, optimize, response, steadystate, sweep
from .errors import ConfigError, NoSolution, SingularMatrix, ZeroCoupling
from .model import TWO_PI, SystemParams, wrap_phase

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
_TUNE_KEYS = {
    "flux_bounds_pi",
    "aux",
    "aux_bounds_hz",
    "coarse_points",
    "golden_iterations",
    "descent_sweeps",
}
_STEADY_KEYS = {"drive_amplitude", "drive_phase_pi", "target_enhanced_coupling_hz"}


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
    value = float(value)
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


def _normalize_grid(section, raw, defaults, unit_keys):
    allowed = set(unit_keys) | {"points"}
    _check_keys(section, raw, allowed)
    out = dict(defaults)
    for key in unit_keys:
        if key in raw:
            out[key] = _number(f"{section}.{key}", raw[key])
    if "points" in raw:
        out["points"] = _integer(f"{section}.points", raw["points"], 2)
    if out[unit_keys[0]] >= out[unit_keys[1]]:
        _fail(section, f"{unit_keys[0]} must be < {unit_keys[1]}")
    return out


@dataclass(frozen=True)
class Scenario:
    """One validated batch job.  Values stay in file units (Hz, pi)."""

    mode: str
    quantity: str | None
    params: dict
    frequency_grid: dict
    flux_grid: dict | None
    tune: dict | None
    steadystate: dict | None
    output: dict

    @classmethod
    def from_dict(cls, raw) -> "Scenario":
        if not isinstance(raw, dict):
            raise ConfigError("scenario: top level must be a mapping")
        allowed = {"mode", "quantity", "params", "frequency_grid", "flux_grid",
                   "tune", "steadystate", "output"}
        _check_keys("scenario", raw, allowed)

        mode = raw.get("mode")
        if mode not in MODES:
            _fail("mode", f"must be one of {MODES}, got {mode!r}")

        quantity = raw.get("quantity")
        if mode == "steadystate":
            if quantity is not None:
                _fail("quantity", "not applicable to steadystate mode")
        else:
            if quantity not in response.QUANTITIES:
                _fail("quantity", f"must be one of {response.QUANTITIES}, got {quantity!r}")

        if "params" not in raw:
            _fail("params", "section is required")
        params = _normalize_params(raw["params"])

        if mode == "steadystate" and "frequency_grid" in raw:
            _fail("frequency_grid", "not applicable to steadystate mode")
        frequency_grid = _normalize_grid(
            "frequency_grid", raw.get("frequency_grid", {}),
            {"start_hz": sweep.DEFAULT_FREQ_START_HZ,
             "stop_hz": sweep.DEFAULT_FREQ_STOP_HZ,
             "points": sweep.DEFAULT_FREQ_POINTS},
            ("start_hz", "stop_hz"),
        )

        flux_grid = None
        if mode == "fluxmap":
            flux_grid = _normalize_grid(
                "flux_grid", raw.get("flux_grid", {}),
                {"start_pi": -2.0, "stop_pi": 2.0, "points": sweep.DEFAULT_FLUX_POINTS},
                ("start_pi", "stop_pi"),
            )
        elif "flux_grid" in raw:
            _fail("flux_grid", f"only applicable to fluxmap mode, not {mode}")

        tune = None
        if mode == "tune":
            tune = cls._normalize_tune(raw.get("tune"))
        elif "tune" in raw:
            _fail("tune", f"only applicable to tune mode, not {mode}")

        steady = None
        if mode == "steadystate":
            steady = cls._normalize_steady(raw.get("steadystate"))
        elif "steadystate" in raw:
            _fail("steadystate", f"only applicable to steadystate mode, not {mode}")

        output = raw.get("output", {})
        _check_keys("output", output, {"path", "format"})
        fmt = output.get("format", "csv")
        if fmt not in FORMATS:
            _fail("output.format", f"must be one of {FORMATS}, got {fmt!r}")
        path = output.get("path", f"result.{fmt}")
        if not isinstance(path, str) or not path:
            _fail("output.path", "must be a non-empty string")

        return cls(
            mode=mode,
            quantity=quantity,
            params=params,
            frequency_grid=frequency_grid,
            flux_grid=flux_grid,
            tune=tune,
            steadystate=steady,
            output={"path": path, "format": fmt},
        )

    @staticmethod
    def _normalize_tune(raw):
        if raw is None:
            raise ConfigError("tune: section is required in tune mode")
        _check_keys("tune", raw, _TUNE_KEYS)
        out = {}
        if "flux_bounds_pi" not in raw:
            _fail("tune.flux_bounds_pi", "required")
        lo, hi = _pair("tune.flux_bounds_pi", raw["flux_bounds_pi"])
        if lo > hi:
            _fail("tune.flux_bounds_pi", "lower bound exceeds upper bound")
        out["flux_bounds_pi"] = [lo, hi]
        aux = raw.get("aux")
        if aux is not None:
            if aux not in optimize.AUX_PARAMETERS:
                _fail("tune.aux", f"must be one of {sorted(optimize.AUX_PARAMETERS)}")
            if "aux_bounds_hz" not in raw:
                _fail("tune.aux_bounds_hz", "required when aux is set")
            alo, ahi = _pair("tune.aux_bounds_hz", raw["aux_bounds_hz"], 0.0)
            if alo > ahi:
                _fail("tune.aux_bounds_hz", "lower bound exceeds upper bound")
            out["aux"] = aux
            out["aux_bounds_hz"] = [alo, ahi]
        elif "aux_bounds_hz" in raw:
            _fail("tune.aux_bounds_hz", "only applicable when aux is set")
        out["coarse_points"] = _integer("tune.coarse_points", raw.get("coarse_points", 33), 1)
        out["golden_iterations"] = _integer("tune.golden_iterations",
                                            raw.get("golden_iterations", 40), 0)
        out["descent_sweeps"] = _integer("tune.descent_sweeps",
                                         raw.get("descent_sweeps", 3), 0)
        return out

    @staticmethod
    def _normalize_steady(raw):
        if raw is None:
            raise ConfigError("steadystate: section is required in steadystate mode")
        _check_keys("steadystate", raw, _STEADY_KEYS)
        out = {}
        forward = "drive_amplitude" in raw
        inverse = "target_enhanced_coupling_hz" in raw
        if forward == inverse:
            _fail("steadystate", "give exactly one of drive_amplitude "
                  "or target_enhanced_coupling_hz")
        if forward:
            out["drive_amplitude"] = _pair("steadystate.drive_amplitude",
                                           raw["drive_amplitude"], 0.0)
            if "drive_phase_pi" in raw:
                out["drive_phase_pi"] = _pair("steadystate.drive_phase_pi",
                                              raw["drive_phase_pi"])
        else:
            if "drive_phase_pi" in raw:
                _fail("steadystate.drive_phase_pi",
                      "only applicable with drive_amplitude (phases come from params)")
            out["target_enhanced_coupling_hz"] = _pair(
                "steadystate.target_enhanced_coupling_hz",
                raw["target_enhanced_coupling_hz"], 0.0)
        return out

    def to_dict(self) -> dict:
        out = {"mode": self.mode}
        if self.quantity is not None:
            out["quantity"] = self.quantity
        out["params"] = copy.deepcopy(self.params)
        out["frequency_grid"] = dict(self.frequency_grid)
        if self.flux_grid is not None:
            out["flux_grid"] = dict(self.flux_grid)
        if self.tune is not None:
            out["tune"] = copy.deepcopy(self.tune)
        if self.steadystate is not None:
            out["steadystate"] = copy.deepcopy(self.steadystate)
        out["output"] = dict(self.output)
        return out

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

    def build_frequency_grid(self) -> sweep.FrequencyGrid:
        g = self.frequency_grid
        return sweep.FrequencyGrid.from_hz(g["start_hz"], g["stop_hz"], g["points"])

    def build_flux_axis(self) -> np.ndarray:
        g = self.flux_grid
        return np.linspace(math.pi * g["start_pi"], math.pi * g["stop_pi"], g["points"])

    def build_search_space(self) -> optimize.SearchSpace:
        t = self.tune
        aux = t.get("aux")
        aux_bounds = None
        if aux is not None:
            alo, ahi = t["aux_bounds_hz"]
            aux_bounds = (TWO_PI * alo, TWO_PI * ahi)
        lo, hi = t["flux_bounds_pi"]
        return optimize.SearchSpace(
            flux_bounds=(math.pi * lo, math.pi * hi),
            aux_name=aux,
            aux_bounds=aux_bounds,
            frequency_grid=self.build_frequency_grid(),
            coarse_points=t["coarse_points"],
            golden_iterations=t["golden_iterations"],
            descent_sweeps=t["descent_sweeps"],
        )


# -- serialization -------------------------------------------------------------


def _fmt(x: float) -> str:
    """12 significant digits; non-finite values as inf / -inf / nan."""
    if math.isnan(x):
        return "nan"
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return f"{x:.12g}"


def _json_safe(x):
    if isinstance(x, float) and not math.isfinite(x):
        return _fmt(x)
    return x


def _spectrum_lines(omega, values):
    lines = ["frequency_hz,isolation_db"]
    for w, v in zip(omega, values):
        lines.append(f"{_fmt(w / TWO_PI)},{_fmt(v)}")
    return lines


def _fluxmap_lines(fluxmap):
    header = ["frequency_hz"] + [_fmt(f / math.pi) for f in fluxmap.flux_axis]
    lines = [",".join(header)]
    freqs = fluxmap.freq_axis.values() / TWO_PI
    for j, freq in enumerate(freqs):
        row = [_fmt(freq)] + [_fmt(v) for v in fluxmap.values[:, j]]
        lines.append(",".join(row))
    return lines


def _run_spectrum(scenario, params):
    grid = scenario.build_frequency_grid()
    omega = grid.values().tolist()
    values = sweep.spectrum(params, scenario.quantity, grid).tolist()
    if scenario.output["format"] == "csv":
        return "\n".join(_spectrum_lines(omega, values)) + "\n"
    payload = {
        "mode": "spectrum",
        "quantity": scenario.quantity,
        "points": [
            {"frequency_hz": _json_safe(w / TWO_PI), "isolation_db": _json_safe(v)}
            for w, v in zip(omega, values)
        ],
    }
    return json.dumps(payload, indent=2) + "\n"


def _run_fluxmap(scenario, params):
    fm = sweep.flux_map(params, scenario.quantity, scenario.build_flux_axis(),
                        scenario.build_frequency_grid())
    if scenario.output["format"] == "csv":
        return "\n".join(_fluxmap_lines(fm)) + "\n"
    payload = {
        "mode": "fluxmap",
        "quantity": scenario.quantity,
        "flux_pi": [f / math.pi for f in fm.flux_axis],
        "frequency_hz": [w / TWO_PI for w in fm.freq_axis.values()],
        "isolation_db": [[_json_safe(float(v)) for v in row] for row in fm.values],
    }
    return json.dumps(payload, indent=2) + "\n"


def _run_tune(scenario, params):
    result = optimize.tune(params, scenario.quantity, scenario.build_search_space())
    aux_hz = None if result.best_aux is None else result.best_aux / TWO_PI
    if scenario.output["format"] == "csv":
        lines = [
            "best_flux_rad,best_flux_pi,best_aux_name,best_aux_hz,peak_db,peak_frequency_hz",
            ",".join([
                _fmt(result.best_flux),
                _fmt(result.best_flux / math.pi),
                scenario.tune.get("aux") or "",
                "" if aux_hz is None else _fmt(aux_hz),
                _fmt(result.peak_db),
                _fmt(result.peak_frequency / TWO_PI),
            ]),
        ]
        return "\n".join(lines) + "\n"
    payload = {
        "mode": "tune",
        "quantity": scenario.quantity,
        "best_flux_rad": result.best_flux,
        "best_flux_pi": result.best_flux / math.pi,
        "best_flux_wrapped_pi": wrap_phase(result.best_flux) / math.pi,
        "best_aux_name": scenario.tune.get("aux"),
        "best_aux_hz": aux_hz,
        "peak_db": _json_safe(result.peak_db),
        "peak_frequency_hz": result.peak_frequency / TWO_PI,
        "trace": [
            {"flux_rad": it[0],
             "aux_hz": None if it[1] is None else it[1] / TWO_PI,
             "objective_db": _json_safe(obj)}
            for it, obj in result.trace
        ],
    }
    return json.dumps(payload, indent=2) + "\n"


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
        lines = [",".join(fields), ",".join(_fmt(v) for v in fields.values())]
        return "\n".join(lines) + "\n"
    payload = {"mode": "steadystate"}
    payload.update({k: _json_safe(v) for k, v in fields.items()})
    return json.dumps(payload, indent=2) + "\n"


_RUNNERS = {
    "spectrum": _run_spectrum,
    "fluxmap": _run_fluxmap,
    "tune": _run_tune,
    "steadystate": _run_steadystate,
}


def run(scenario: Scenario) -> str:
    """Execute one scenario and write its output file atomically.

    Returns the path written.  Degeneracy errors propagate to the caller;
    sweeps never abort on per-point degeneracies (those become sentinel
    values in the data).
    """
    try:
        params = scenario.build_params()
        text = _RUNNERS[scenario.mode](scenario, params)
    except ValueError as exc:
        # value-level rejections from the model or search layers are
        # scenario problems, same as schema failures
        raise ConfigError(str(exc)) from None
    path = scenario.output["path"]
    # write beside the target and rename over it, so an interrupted run never
    # leaves a truncated output; open() keeps the umask-derived file mode
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    finally:
        with contextlib.suppress(OSError):
            os.remove(tmp)  # still there only if the write or rename failed
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
    except yaml.YAMLError:
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


def load_scenario(path=None, preset=None, overrides=(), out=None, fmt=None) -> Scenario:
    """Assemble a scenario from an optional file plus command-line pieces."""
    if path is None and preset is None:
        raise ConfigError("either a config file or --preset is required")
    config = {}
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                config = yaml.load(fh, Loader=_UniqueKeyLoader) or {}
        except OSError as exc:
            raise ConfigError(f"cannot read config {path!r}: {exc}") from None
        except yaml.YAMLError as exc:
            raise ConfigError(f"cannot parse config {path!r}: {exc}") from None
        if not isinstance(config, dict):
            raise ConfigError("scenario: top level must be a mapping")
    if preset is not None:
        config.setdefault("params", {})
        if not isinstance(config["params"], dict):
            raise ConfigError("params: must be a mapping")
        config["params"]["preset"] = preset
    for assignment in overrides:
        _apply_override(config, assignment)
    if out is not None:
        config.setdefault("output", {})["path"] = out
    if fmt is not None:
        config.setdefault("output", {})["format"] = fmt
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


if __name__ == "__main__":
    sys.exit(main())
