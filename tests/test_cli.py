import dataclasses
import json
import math
import os
from pathlib import Path

import pytest
import yaml

import optoflux as of
from optoflux import cli
from optoflux.model import TWO_PI

DATA = Path(__file__).parent / "data"


def _write(tmp_path, text, name="scenario.yaml"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def _run(argv):
    return cli.main(argv)


def test_spectrum_zero_flux_csv(tmp_path, capsys):
    out = tmp_path / "out.csv"
    config = _write(tmp_path, f"""
mode: spectrum
quantity: phonon
params:
  preset: table1
  mechanical_hop_hz: 520e3
  flux_pi: 0.0
frequency_grid: {{start_hz: 5.8e9, stop_hz: 6.0e9, points: 9}}
output: {{path: {out}, format: csv}}
""")
    assert _run(["run", config]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "frequency_hz,isolation_db"
    assert len(lines) == 10
    assert all(line.endswith(",0") for line in lines[1:])


def test_missing_mechanical_hop_exits_2(tmp_path, capsys):
    config = _write(tmp_path, """
mode: spectrum
quantity: phonon
params:
  preset: table1
""")
    assert _run(["run", config]) == 2
    err = capsys.readouterr().err
    assert "V" in err
    assert "mechanical_hop_hz" in err


def test_unknown_key_rejected(tmp_path, capsys):
    config = _write(tmp_path, """
mode: spectrum
quantity: phonon
params:
  preset: table1
  mechanical_hop_hz: 1e6
  typo_key: 3
""")
    assert _run(["run", config]) == 2
    assert "typo_key" in capsys.readouterr().err


def test_mode_validation(tmp_path, capsys):
    config = _write(tmp_path, """
mode: wiggle
params: {preset: table1, mechanical_hop_hz: 1e6}
""")
    assert _run(["run", config]) == 2
    assert "mode" in capsys.readouterr().err


def test_section_mode_mismatch_rejected(tmp_path, capsys):
    config = _write(tmp_path, """
mode: spectrum
quantity: phonon
params: {preset: table1, mechanical_hop_hz: 1e6}
flux_grid: {start_pi: -1, stop_pi: 1, points: 3}
""")
    assert _run(["run", config]) == 2
    assert "flux_grid" in capsys.readouterr().err


def test_preset_flag_and_overrides(tmp_path):
    out = tmp_path / "o.json"
    code = _run([
        "run", "--preset", "table1",
        "--set", "mode=spectrum",
        "--set", "quantity=phonon",
        "--set", "params.mechanical_hop_hz=520e3",
        "--set", "params.flux_pi=0.5",
        "--set", "frequency_grid={start_hz: 5.8e9, stop_hz: 5.9e9, points: 3}",
        "--out", str(out), "--format", "json",
    ])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["mode"] == "spectrum"
    assert len(payload["points"]) == 3
    mid = payload["points"][1]
    direct = of.isolation_db(of.from_table1(520e3, flux=0.5 * math.pi),
                             TWO_PI * mid["frequency_hz"], of.PHONON)
    assert mid["isolation_db"] == pytest.approx(direct, abs=1e-12)


def test_fluxmap_matches_committed_golden(tmp_path):
    out = tmp_path / "fm.csv"
    config = _write(tmp_path, f"""
mode: fluxmap
quantity: phonon
params:
  preset: table1
  mechanical_hop_hz: 520e3
flux_grid: {{start_pi: -1.0, stop_pi: 1.0, points: 5}}
frequency_grid: {{start_hz: 5.8e9, stop_hz: 5.9e9, points: 4}}
output: {{path: {out}, format: csv}}
""")
    assert _run(["run", config]) == 0
    assert out.read_text() == (DATA / "fluxmap_small.csv").read_text()


def test_output_is_deterministic(tmp_path):
    args = [
        "run", "--preset", "table1",
        "--set", "mode=spectrum", "--set", "quantity=photon_to_phonon",
        "--set", "params.mechanical_hop_hz=27e6",
        "--set", "params.flux_pi=1.42",
        "--set", "frequency_grid={start_hz: 5.85e9, stop_hz: 5.95e9, points: 41}",
    ]
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert _run(args + ["--out", str(a)]) == 0
    assert _run(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_perfect_isolation_serializes_as_inf(tmp_path):
    # kill the optical bridge and the left coupling: one conversion direction
    # has identically zero amplitude
    out = tmp_path / "inf.csv"
    base = [
        "run", "--preset", "table1",
        "--set", "params.mechanical_hop_hz=1e6",
        "--set", "params.optical_hop_hz=0",
        "--set", "params.enhanced_coupling_hz=[0, 31e6]",
        "--set", "frequency_grid={start_hz: 5.8e9, stop_hz: 5.9e9, points: 3}",
        "--out", str(out),
    ]
    assert _run(base + ["--set", "mode=spectrum", "--set", "quantity=phonon_to_photon"]) == 0
    body = out.read_text().strip().splitlines()[1:]
    assert all(line.endswith(",inf") for line in body)
    assert _run(base + ["--set", "mode=spectrum", "--set", "quantity=photon_to_phonon"]) == 0
    body = out.read_text().strip().splitlines()[1:]
    assert all(line.endswith(",-inf") for line in body)


def test_inline_params_without_preset(tmp_path):
    out = tmp_path / "inline.csv"
    config = _write(tmp_path, f"""
mode: spectrum
quantity: phonon
params:
  mech_frequency_hz: [5.7884e9, 5.7791e9]
  optical_external_decay_hz: [0.74e9, 0.44e9]
  optical_internal_decay_hz: [0.29e9, 0.31e9]
  mech_external_decay_hz: [4.3e6, 5.7e6]
  mech_internal_decay_hz: [1.0e6, 1.2e6]
  optical_hop_hz: 110e6
  mechanical_hop_hz: 520e3
  enhanced_coupling_hz: [33e6, 31e6]
  flux_pi: 0.25
frequency_grid: {{start_hz: 5.85e9, stop_hz: 5.95e9, points: 5}}
output: {{path: {out}, format: csv}}
""")
    assert _run(["run", config]) == 0
    # identical to the preset route
    preset = of.from_table1(520e3, flux=0.25 * math.pi)
    lines = out.read_text().strip().splitlines()[1:]
    for line in lines:
        freq, db = line.split(",")
        expected = of.isolation_db(preset, TWO_PI * float(freq), of.PHONON)
        assert float(db) == pytest.approx(expected, abs=1e-9)
    assert cli.load_scenario(config).build_params() == preset


def test_params_table_covers_system_params():
    fields = {f.name for f in dataclasses.fields(of.SystemParams)}
    targets = {t for entry in cli._PARAMS.values() for t in entry[0]}
    assert targets - fields == {"flux"}
    assert fields <= targets


def test_inline_params_missing_field_names_key(tmp_path, capsys):
    config = _write(tmp_path, """
mode: spectrum
quantity: phonon
params:
  mech_frequency_hz: [5.7884e9, 5.7791e9]
  mechanical_hop_hz: 520e3
""")
    assert _run(["run", config]) == 2
    assert "optical_external_decay_hz" in capsys.readouterr().err


def test_tune_mode_json(tmp_path):
    out = tmp_path / "tune.json"
    config = _write(tmp_path, f"""
mode: tune
quantity: phonon
params:
  preset: table1
  mechanical_hop_hz: 0
tune:
  flux_bounds_pi: [-0.5, 0.0]
  aux: mechanical_hop
  aux_bounds_hz: [1e5, 1e6]
  coarse_points: 7
  golden_iterations: 8
  descent_sweeps: 1
frequency_grid: {{start_hz: 5.85e9, stop_hz: 5.95e9, points: 101}}
output: {{path: {out}, format: json}}
""")
    assert _run(["run", config]) == 0
    payload = json.loads(out.read_text())
    assert payload["best_aux_name"] == "mechanical_hop"
    assert 1e5 <= payload["best_aux_hz"] <= 1e6
    assert payload["peak_db"] > 0
    objectives = [step["objective_db"] for step in payload["trace"]]
    assert objectives == sorted(objectives)


def test_steadystate_forward_and_inverse(tmp_path):
    out = tmp_path / "ss.json"
    base = f"""
mode: steadystate
params:
  preset: table1
  mechanical_hop_hz: 0
  vacuum_coupling_hz: [200, 200]
output: {{path: {out}, format: json}}
"""
    forward = _write(tmp_path, base + """
steadystate:
  drive_amplitude: [3e6, 1e6]
""", name="fwd.yaml")
    assert _run(["run", forward]) == 0
    payload = json.loads(out.read_text())
    assert payload["G_L_hz"] > 0 and payload["G_R_hz"] > 0

    inverse = _write(tmp_path, base + """
steadystate:
  target_enhanced_coupling_hz: [33e6, 31e6]
""", name="inv.yaml")
    assert _run(["run", inverse]) == 0
    payload = json.loads(out.read_text())
    assert payload["G_L_hz"] == pytest.approx(33e6, rel=1e-9)
    assert payload["G_R_hz"] == pytest.approx(31e6, rel=1e-9)


def test_degenerate_steadystate_exits_3(tmp_path, capsys):
    config = _write(tmp_path, """
mode: steadystate
params:
  mech_frequency_hz: [5.7884e9, 5.7791e9]
  optical_external_decay_hz: [0, 0]
  optical_internal_decay_hz: [0, 0]
  mech_external_decay_hz: [4.3e6, 5.7e6]
  mech_internal_decay_hz: [1.0e6, 1.2e6]
  optical_hop_hz: 0
  mechanical_hop_hz: 0
  enhanced_coupling_hz: [0, 0]
  detuning_hz: [0, 0]
  vacuum_coupling_hz: [200, 200]
steadystate:
  drive_amplitude: [1e6, 1e6]
""")
    assert _run(["run", config]) == 3
    assert "degenerate" in capsys.readouterr().err.lower()


def test_scenario_round_trip():
    raw = {
        "mode": "fluxmap",
        "quantity": "phonon",
        "params": {"preset": "table1", "mechanical_hop_hz": 5.2e5, "flux_pi": 0.3},
        "flux_grid": {"start_pi": -1.0, "stop_pi": 1.0, "points": 21},
        "output": {"path": "x.csv", "format": "csv"},
    }
    scenario = cli.Scenario.from_dict(raw)
    assert cli.Scenario.from_dict(scenario.to_dict()) == scenario
    # and through an actual YAML round trip
    text = yaml.safe_dump(scenario.to_dict())
    assert cli.Scenario.from_dict(yaml.safe_load(text)) == scenario


def test_duplicate_yaml_key_rejected(tmp_path, capsys):
    out = tmp_path / "dup.csv"
    config = _write(tmp_path, f"""
mode: spectrum
quantity: phonon
mode: fluxmap
params: {{preset: table1, mechanical_hop_hz: 5.6e5}}
output: {{path: {out}}}
""")
    assert _run(["run", config]) == 2
    assert "mode: duplicate key" in capsys.readouterr().err
    assert not out.exists()
    dup = "frequency_grid={start_hz: 5.8e9, start_hz: 5.7e9}"
    assert _run(["run", "--preset", "table1", "--set", dup]) == 2
    assert "start_hz: duplicate key" in capsys.readouterr().err


def test_failed_write_keeps_previous_output(tmp_path, monkeypatch, capsys):
    out = tmp_path / "out.csv"
    out.write_text("previous\n")

    def fail(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", fail)
    args = ["run", "--preset", "table1", "--set", "mode=spectrum",
            "--set", "quantity=phonon", "--set", "params.mechanical_hop_hz=520e3",
            "--set", "frequency_grid={start_hz: 5.8e9, stop_hz: 5.9e9, points: 3}",
            "--out", str(out)]
    assert _run(args) == 1
    assert "disk full" in capsys.readouterr().err
    assert out.read_text() == "previous\n"
    assert os.listdir(tmp_path) == ["out.csv"]


def test_run_requires_config_or_preset(capsys):
    assert _run(["run"]) == 2
    assert "preset" in capsys.readouterr().err


def test_set_validation(tmp_path, capsys):
    assert _run(["run", "--preset", "table1", "--set", "novalue"]) == 2
    assert "--set" in capsys.readouterr().err


def test_enhanced_coupling_angular_override(tmp_path):
    # angular override bypasses the 2*pi conversion applied to the _hz form
    out = tmp_path / "g.csv"
    base = [
        "run", "--preset", "table1",
        "--set", "mode=spectrum", "--set", "quantity=phonon",
        "--set", "params.mechanical_hop_hz=520e3",
        "--set", "params.flux_pi=0.5",
        "--set", "frequency_grid={start_hz: 5.88e9, stop_hz: 5.9e9, points: 2}",
        "--out", str(out),
    ]
    angular = [f"params.enhanced_coupling_angular=[{TWO_PI * 33e6}, {TWO_PI * 31e6}]"]
    assert _run(base + ["--set"] + angular) == 0
    with_angular = out.read_text()
    assert _run(base + ["--set", "params.enhanced_coupling_hz=[33e6, 31e6]"]) == 0
    assert out.read_text() == with_angular
