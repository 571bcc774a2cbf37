import contextlib
import dataclasses
import itertools
import json
import math
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
import tracemalloc
import warnings

import numpy as np
import pytest
import yaml

import optoflux as of
from optoflux import cli
from optoflux.model import TWO_PI

import goldens
from goldens import DATA
from helpers import force_ranges


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
    for fmt in ("csv", "json"):
        out = tmp_path / f"fm.{fmt}"
        config = _write(tmp_path, f"""
mode: fluxmap
quantity: phonon
params:
  preset: table1
  mechanical_hop_hz: 520e3
flux_grid: {{start_pi: -1.0, stop_pi: 1.0, points: 5}}
frequency_grid: {{start_hz: 5.8e9, stop_hz: 5.9e9, points: 4}}
output: {{path: {out}, format: {fmt}}}
""")
        assert _run(["run", config]) == 0
        assert out.read_bytes() == (DATA / f"fluxmap_small.{fmt}").read_bytes()


# the items a golden's writer cuts, where they are fewer than 4: the
# sentinel map's 3 rows as CSV, the 2 rows of its flux period as JSON (whose
# lanes cut the first period's rows), and the one record of a tune or a
# steady state
_FEW_ITEMS = {"fluxmap_sentinel.csv": 3, "fluxmap_sentinel.json": 2,
              **{name: 1 for name in goldens.GOLDENS if name.startswith(("tune_", "steady_"))}}


@pytest.mark.parametrize("ranges", [1, 2, 3, 4])
@pytest.mark.parametrize("name", list(goldens.GOLDENS))
def test_golden_matches_committed_bytes(tmp_path, monkeypatch, name, ranges):
    # the writer cuts its rows into ``ranges``, no more than its items; a
    # tune's output and a steady state are one range, and a tune forks
    # nothing to score its scan.  4 ranges cut the small map's CSV, whose
    # ranges compute the map too, at each of its rows
    forks = force_ranges(monkeypatch, ranges)
    out = tmp_path / name
    assert _run(goldens.argv(name, out)) == 0
    assert len(forks) == min(ranges, _FEW_ITEMS.get(name, ranges)) - 1
    assert out.read_bytes() == (DATA / name).read_bytes()
    assert os.listdir(tmp_path) == [name]


def test_tune_matches_committed_golden(tmp_path):
    # unforced, with this machine's CPUs, as a user's run is
    out = tmp_path / "tune_small.json"
    assert _run(goldens.argv("tune_small.json", out)) == 0
    assert out.read_bytes() == (DATA / "tune_small.json").read_bytes()


@pytest.mark.parametrize("name, flux_pi, aux, fmt", [
    ("tune_search_small", "[0.0, 0.5]", "aux: mechanical_hop, aux_bounds_hz: [1e6, 60e6]",
     "json"),
    ("tune_aux_small", "[1.0, 2.0]", "aux: G_L, aux_bounds_hz: [10e6, 40e6]", "csv"),
])
def test_tune_search_matches_committed_golden(tmp_path, name, flux_pi, aux, fmt):
    # unforced, as above; the table's entry is this search box
    assert goldens.GOLDENS[f"{name}.{fmt}"] == goldens._tune(flux_pi, aux)
    out = tmp_path / f"{name}.{fmt}"
    assert _run(goldens.argv(out.name, out)) == 0
    assert out.read_bytes() == (DATA / out.name).read_bytes()


def test_csv_fluxmap_is_not_copied_whole(tmp_path, monkeypatch):
    # the CSV's rows are the map's columns; joined a block of rows at a time,
    # the map is never copied whole (a transposed copy peaked at 2.05x its size)
    force_ranges(monkeypatch, 1)  # one range, formatted here, where tracemalloc sees it
    scenario = cli.load_scenario(preset="table1", out=str(tmp_path / "fm.csv"), overrides=[
        "mode=fluxmap", "quantity=phonon", "params.mechanical_hop_hz=520e3",
        "flux_grid.points=51", "frequency_grid.points=4001"])
    tracemalloc.start()
    try:
        cli.run(scenario)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 51 * 4001 * 8


@pytest.mark.parametrize("name", ["fluxmap_small.csv", "fluxmap_small.json"])
def test_fluxmap_run_makes_its_map_with_flux_map(tmp_path, monkeypatch, name):
    # the CLI makes a map as the library does, once, and never reads its
    # whole values: the writer reads the rows it formats
    maps = []
    flux_map = of.sweep.flux_map

    def counted(*args):
        maps.append(flux_map(*args))
        return maps[-1]

    monkeypatch.setattr(of.sweep, "flux_map", counted)
    out = tmp_path / name
    assert _run(goldens.argv(name, out)) == 0
    assert out.read_bytes() == (DATA / name).read_bytes()
    assert len(maps) == 1 and "values" not in vars(maps[0])


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_fluxmap_peak_does_not_grow_with_the_map(tmp_path, monkeypatch, fmt):
    # each range computes its rows just before it formats them, so the
    # default 401x2001 map (6.4 MB) peaks within a small margin of a 51-row
    # map, which holding the map would take 5.6 MB above it
    force_ranges(monkeypatch, 1)  # one range, computed here, where tracemalloc sees it

    def peak(flux_points):
        scenario = cli.load_scenario(preset="table1", out=str(tmp_path / f"fm.{fmt}"), fmt=fmt,
                                     overrides=["mode=fluxmap", "quantity=phonon",
                                                "params.mechanical_hop_hz=520e3",
                                                f"flux_grid.points={flux_points}"])
        tracemalloc.start()
        try:
            cli.run(scenario)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(3)  # the numeric modules load here, outside the peaks compared
    assert peak(401) < peak(51) + 1024 * 1024


def _child_fails(text, lo, hi):
    if lo:
        raise RuntimeError("formatting failed")
    return text.body(lo, hi)


def _parent_interrupted(text, lo, hi):
    if lo:
        time.sleep(60)  # until the parent kills this child
    raise KeyboardInterrupt


@pytest.mark.parametrize("body", [_child_fails, _parent_interrupted])
def test_failed_split_write_keeps_previous_output(tmp_path, monkeypatch, capsys, body):
    force_ranges(monkeypatch, 2)
    csv = cli._csv

    def failing_csv(header, table, period):
        # the map's block is computed by each range as it formats its rows
        assert isinstance(table[-1], of.sweep.FluxMap)
        text = csv(header, table, period=period)
        return text._replace(body=lambda lo, hi: body(text, lo, hi))

    monkeypatch.setattr(cli, "_csv", failing_csv)
    out = tmp_path / "out.csv"
    out.write_text("previous\n")
    args = goldens.argv("fluxmap_small.csv", out)
    if body is _child_fails:
        assert _run(args) == 1
        err = capsys.readouterr().err
        # the map's 4 frequency rows are cut at 2
        assert "rows 2-4" in err and "exit status 1" in err
    else:
        started = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            _run(args)
        assert time.monotonic() - started < 30  # the sleeping child was killed
    assert out.read_text() == "previous\n"
    assert os.listdir(tmp_path) == ["out.csv"]
    with pytest.raises(ChildProcessError):  # every child was reaped
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("signum, raised", [(signal.SIGINT, KeyboardInterrupt),
                                            (signal.SIGTERM, SystemExit)])
def test_signal_right_after_a_fork_still_reaps_the_child(tmp_path, monkeypatch, signum, raised):
    # the signal is pending from the fork on and fires once the mask is
    # restored; the child's pid must be recorded by then.  SIGTERM is handled
    # as the process entry handles it.
    forks = force_ranges(monkeypatch, 2)
    fork = os.fork

    def signalled_fork():
        pid = fork()
        if pid:
            os.kill(os.getpid(), signum)
        return pid

    monkeypatch.setattr(os, "fork", signalled_fork)
    previous = signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))
    try:
        with pytest.raises(raised):
            _run(goldens.argv("fluxmap_small.csv", tmp_path / "out.csv"))
    finally:
        signal.signal(signal.SIGTERM, previous)
    assert len(forks) == 1
    assert os.listdir(tmp_path) == []
    with pytest.raises(ChildProcessError):  # every child was reaped
        os.waitpid(-1, os.WNOHANG)


def test_no_child_unwinds_into_the_caller(tmp_path, monkeypatch):
    forks = force_ranges(monkeypatch, 3)
    pids = tmp_path / "pids"
    out = tmp_path / "out.json"
    try:
        code = _run(goldens.argv("fluxmap_small.json", out))
    finally:
        with open(pids, "a", encoding="utf-8") as fh:
            fh.write(f"{os.getpid()}\n")
    assert code == 0
    assert len(forks) == 2
    assert pids.read_text() == f"{os.getpid()}\n"


def test_terminated_run_leaves_no_file_or_process(tmp_path):
    # a 1601x2001 map takes seconds to write; SIGTERM it once its temporary
    # file exists, in a session of its own so that a surviving child shows
    out = tmp_path / "map.json"
    src = os.path.dirname(os.path.dirname(of.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.Popen(
        [sys.executable, "-m", "optoflux", "run", "--preset", "table1", "--set", "mode=fluxmap",
         "--set", "quantity=phonon", "--set", "params.mechanical_hop_hz=515709.8644424447",
         "--set", "flux_grid.points=1601", "--format", "json", "--out", str(out)],
        env=env, start_new_session=True, stderr=subprocess.DEVNULL)
    try:
        deadline = time.monotonic() + 30
        while not any(name.endswith(".tmp") for name in os.listdir(tmp_path)):
            assert proc.poll() is None and time.monotonic() < deadline
            time.sleep(0.005)
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=30) == 143
        with pytest.raises(ProcessLookupError):  # no child outlived the run
            os.killpg(proc.pid, 0)
    finally:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
    assert os.listdir(tmp_path) == []


def test_schema_defaults_match_numeric_layers():
    # the schema reads its defaults and allowed values from model, so that
    # validation needs no numpy; they must still be what the layers use
    from optoflux import linsys, model, optimize, response, sweep

    params = {"preset": "table1", "mechanical_hop_hz": 5e5}
    tune = cli.Scenario.from_dict({"mode": "tune", "quantity": "phonon", "params": params,
                                   "tune": {"flux_bounds_pi": [0.0, 1.0]}})
    budget = {f.name: f.default for f in dataclasses.fields(optimize.SearchSpace)}
    for key in ("coarse_points", "golden_iterations", "descent_sweeps"):
        assert tune.tune[key] == budget[key]
    assert tune.build_frequency_grid() == sweep.default_frequency_grid()

    fluxmap = cli.Scenario.from_dict({"mode": "fluxmap", "quantity": "phonon", "params": params})
    assert fluxmap.flux_grid["points"] == sweep.DEFAULT_FLUX_POINTS
    assert np.array_equal(fluxmap.build_flux_axis(), sweep.default_flux_grid())
    assert fluxmap.build_frequency_grid() == sweep.default_frequency_grid()

    for quantity in response.QUANTITIES:
        cli.Scenario.from_dict({"mode": "spectrum", "quantity": quantity, "params": params})
    assert model.QUANTITIES == response.QUANTITIES
    assert cli._SECTIONS["tune"][1]["aux"][0] == (None, *optimize.AUX_PARAMETERS)
    assert linsys.DEGENERACY_RTOL is model.DEGENERACY_RTOL


_ORACLE_VALUES = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e-4, 9.999999999999999e-05,
                  1 / 3, 5800000000.0, 9999999999999998.0, 1e16, 1e22]
# 7 rows, each column a pattern over the rows: cells a period apart that
# compare equal but differ in bits (0.0 and -0.0, by row parity, by row
# mod 3 and by half), cells that keep their bits (nan, 1/3) and signs of
# inf and of the least subnormal that alternate
_BIT_TRAPS = np.array([[0.0 if i % 2 else -0.0, -0.0 if i % 3 else 0.0, math.nan,
                        math.inf if i % 2 else -math.inf, 1 / 3, 0.0 if i < 4 else -0.0,
                        5e-324 if i % 3 else -5e-324] for i in range(7)])


def _periods(items):
    """No period, and periods fewer than ``items`` rows or columns: 2 and
    3 divide some of the tables' counts, 1 divides every one and 5 none."""
    return [None, *(p for p in (1, 2, 3, 5) if p < items)]


@pytest.mark.parametrize("values", [
    pytest.param([_ORACLE_VALUES[:6], _ORACLE_VALUES[6:]], id="2 rows mixed"),
    pytest.param([[1.5, -2.0], [math.inf, math.nan]], id="finite row, sentinel row"),
    # a row that is finite until its last cell
    pytest.param([[1 / 3, -0.0, 1e22], [5e-324, 1e16, math.nan]], id="nan last cell"),
    pytest.param([[x] for x in _ORACLE_VALUES], id="1 column"),
    pytest.param([[math.nan] * 3, [-math.inf] * 3, [math.inf] * 3], id="all sentinels"),
    pytest.param(_BIT_TRAPS.tolist(), id="bit traps"),
])
def test_json_writer_matches_stdlib_encoder(tmp_path, monkeypatch, values):
    # a flux map: its axes go through json.dumps, its 2-D array is the rows
    def plain(v):  # the nested lists json would need, with sentinel strings
        if isinstance(v, list):
            return [plain(x) for x in v]
        return v if math.isfinite(v) else {math.inf: "inf", -math.inf: "-inf"}.get(v, "nan")

    payload = {"mode": "fluxmap", "best_aux_name": None, "peak_db": -math.inf,
               "points": [{"frequency_hz": 5.8e9, "isolation_db": math.nan}],
               "flux_pi": _ORACLE_VALUES, "isolation_db": np.array(values, dtype=float),
               "quantity": "phonon"}
    expected = {"mode": "fluxmap", "best_aux_name": None, "peak_db": "-inf",
                "points": [{"frequency_hz": 5.8e9, "isolation_db": "nan"}],
                "flux_pi": plain(_ORACLE_VALUES), "isolation_db": plain(values),
                "quantity": "phonon"}
    out = tmp_path / "out.json"
    # up to more ranges than rows, and periods that divide the rows and
    # periods that do not; each later row reuses the texts of the cells of
    # the row a segment before it that have the same bits
    for ranges, period in itertools.product((1, 2, 3, 4), _periods(len(values))):
        force_ranges(monkeypatch, ranges)
        cli._write(cli._json(payload, rows="isolation_db", period=period), str(out))
        assert out.read_text(encoding="utf-8") == json.dumps(expected, indent=2) + "\n"


def _records(n):
    """n (frequency, value) pairs: the oracle values, then finite values
    broken by a non-finite one every 1,000 records."""
    values = [*_ORACLE_VALUES, *(i / 7 if i % 1000 else math.inf for i in range(n))][:n]
    return list(zip(values[::-1], values))


@pytest.mark.parametrize("n", [1, 12, 10_001])
def test_json_records_match_stdlib_encoder(tmp_path, monkeypatch, n):
    # a spectrum's points: a mapping of columns written as a list of objects,
    # its rows cut inside and across the chunks of a few thousand records
    def plain(x):
        return x if math.isfinite(x) else {math.inf: "inf", -math.inf: "-inf"}.get(x, "nan")

    pairs = _records(n)
    freqs, values = np.array(pairs, dtype=float).T
    payload = {"mode": "spectrum", "quantity": "phonon",
               "points": {"frequency_hz": freqs, "isolation_db": values}}
    expected = json.dumps({"mode": "spectrum", "quantity": "phonon", "points": [
        {"frequency_hz": plain(f), "isolation_db": plain(v)} for f, v in pairs]}, indent=2)
    out = tmp_path / "out.json"
    for ranges in (1, 2, 3, 4):
        force_ranges(monkeypatch, ranges)
        cli._write(cli._json(payload, rows="points"), str(out))
        assert out.read_text(encoding="utf-8") == expected + "\n"


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_map_parts_larger_than_a_copy_buffer_join_to_the_same_bytes(tmp_path, monkeypatch, fmt):
    # a 64x2001 phonon map: cut in three, each part is still over 8 of the
    # buffers that copy a part into the output
    argv = ["run", "--preset", "table1", "--set", "mode=fluxmap", "--set", "quantity=phonon",
            "--set", "params.mechanical_hop_hz=515709.8644424447",
            "--set", "flux_grid.points=64", "--format", fmt]
    outputs = []
    for ranges in (1, 2, 3):
        forks = force_ranges(monkeypatch, ranges)
        out = tmp_path / f"map_{ranges}.{fmt}"
        assert _run([*argv, "--out", str(out)]) == 0
        assert len(forks) == ranges - 1
        outputs.append(out.read_bytes())
    assert len(outputs[0]) > 3 * 8 * shutil.COPY_BUFSIZE
    assert outputs[1] == outputs[0] and outputs[2] == outputs[0]
    assert sorted(os.listdir(tmp_path)) == [f"map_{ranges}.{fmt}" for ranges in (1, 2, 3)]


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_many_period_map_joins_to_the_same_bytes(tmp_path, monkeypatch, fmt):
    # 40 flux periods of 100 rows: a JSON lane writes into at most 4 segments
    # of 11 periods, so a split opens at most 4 part files per lane, and one
    # lane on one CPU opens them too.  The bytes are those of a write that
    # reuses no text
    argv = ["run", "--preset", "table1", "--set", "mode=fluxmap", "--set", "quantity=phonon",
            "--set", "params.mechanical_hop_hz=515709.8644424447",
            "--set", "flux_grid={start_pi: -40, stop_pi: 40, points: 4001}",
            "--set", "frequency_grid={start_hz: 5.85e9, stop_hz: 5.95e9, points: 3}",
            "--format", fmt]
    parts = []
    temporary_file = tempfile.TemporaryFile

    def counted(*args, **kwargs):
        parts.append(temporary_file(*args, **kwargs))
        return parts[-1]

    monkeypatch.setattr(tempfile, "TemporaryFile", counted)
    outputs = []
    for ranges in (1, 3):
        forks = force_ranges(monkeypatch, ranges)
        parts.clear()
        out = tmp_path / f"map_{ranges}.{fmt}"
        assert _run([*argv, "--out", str(out)]) == 0
        assert len(forks) == ranges - 1
        assert len(parts) <= ranges * 4 and all(part.closed for part in parts)
        outputs.append(out.read_bytes())
    writer = getattr(cli, f"_{fmt}")
    monkeypatch.setattr(cli, f"_{fmt}", lambda *args, period, **kwargs: writer(*args, **kwargs))
    assert _run([*argv, "--out", str(tmp_path / "reference")]) == 0
    assert outputs[0] == outputs[1] == (tmp_path / "reference").read_bytes()
    assert sorted(os.listdir(tmp_path)) == ["map_1." + fmt, "map_3." + fmt, "reference"]


# two blocks of rows and 3 more: ranges end inside blocks and across them
_BLOCKS_ROWS = 2 * cli._CSV_BLOCK_ROWS + 3


def _csv_rows(blocks):
    """The rows of column blocks for cli._csv, each a list of its cells taken
    cell by cell from each block."""
    return [[x for block in blocks for x in np.atleast_1d(block[i])]
            for i in range(len(blocks[0]))]


@pytest.mark.parametrize("ranges", [1, 2, 3, 4])
@pytest.mark.parametrize("table", [
    pytest.param((np.array([_ORACLE_VALUES]),), id="1 row"),
    pytest.param((np.array([_ORACLE_VALUES]).T,), id="1 column"),
    pytest.param((np.array(_ORACLE_VALUES).reshape(4, 3),), id="4 rows"),
    pytest.param((np.empty((0, 3)),), id="empty"),
    # a frequency column and a map's transpose, as a flux map is written
    pytest.param((np.linspace(5.8e9, 5.9e9, _BLOCKS_ROWS),
                  np.resize(_ORACLE_VALUES, (5, _BLOCKS_ROWS)).T), id="column blocks"),
    # a frequency column and a map of bit traps, transposed as a flux map
    # is written, over more rows than a block
    pytest.param((np.linspace(5.8e9, 5.9e9, _BLOCKS_ROWS),
                  np.resize(_BIT_TRAPS.T, (_BLOCKS_ROWS, 7))), id="bit traps"),
])
def test_csv_writer_matches_cell_by_cell_format(tmp_path, monkeypatch, table, ranges):
    force_ranges(monkeypatch, ranges)
    rows = _csv_rows(table)
    header = [f"c{i}" for i in range(len(rows[0]) if rows else table[0].shape[1])]
    expected = ",".join(header) + "\n" + "".join(
        ",".join("%.12g" % x for x in row) + "\n" for row in rows)
    out = tmp_path / "out.csv"
    # periods of the last block's columns, each of which from its period-th
    # on reuses the text of the cell a period before it with the same bits
    for period in _periods(table[-1].shape[1] if table[-1].ndim == 2 else 0):
        cli._write(cli._csv(header, table, period), str(out))
        assert out.read_text(encoding="utf-8") == expected


@pytest.mark.parametrize("ranges", [1, 2, 3, 4])
def test_csv_row_matches_cell_by_cell_format(tmp_path, monkeypatch, ranges):
    # one record, as a tune or a steady state is written: one range, whatever the CPUs
    forks = force_ranges(monkeypatch, ranges)
    fields = {"c0": 1.5, "c1": "G_L", "c2": "", "c3": -math.inf, "c4": None,
              **{f"c{i + 5}": x for i, x in enumerate(_ORACLE_VALUES)}}
    expected = ",".join(fields) + "\n" + ",".join(
        "" if x is None else x if isinstance(x, str) else "%.12g" % x
        for x in fields.values()) + "\n"
    out = tmp_path / "out.csv"
    cli._write(cli._csv_row(fields), str(out))
    assert out.read_text(encoding="utf-8") == expected
    assert forks == []


def test_cut_gives_one_range_per_cpu_within_items_and_cost(monkeypatch):
    # the rule by which the writer cuts its rows into ranges
    for cpus, items, (cost, minimum) in itertools.product(
            [1, 2, 3, 8], [0, 1, 2, 5, 7, 100],
            [(0, 1), (1, 1), (99, 100), (250, 100), (10**6, 7)]):
        force_ranges(monkeypatch, cpus)
        bounds = cli._cut(items, cost, minimum)
        n = len(bounds) - 1
        # contiguous ranges that cover the items, within one item of each other
        assert bounds[0] == 0 and bounds[-1] == items
        sizes = [hi - lo for lo, hi in zip(bounds, bounds[1:])]
        assert min(sizes) >= 0 and max(sizes) - min(sizes) <= 1
        # at least one range; more only while each has an item and `minimum`
        # of the cost, and no more than one per CPU
        assert 1 <= n <= cpus
        assert n == 1 or (n <= items and n * minimum <= cost)
        # and as many as those limits allow
        assert n in (cpus, items) or (n + 1) * minimum > cost or items == 0


@pytest.mark.parametrize("missing", ["fork", "sched_getaffinity"])
def test_cut_gives_one_range_where_it_cannot_fork_or_count_cpus(monkeypatch, missing):
    force_ranges(monkeypatch, 4)
    monkeypatch.delattr(os, missing)
    assert cli._cut(100, 10**6, 1) == [0, 100]


def test_cut_gives_one_range_where_it_cannot_count_threads(monkeypatch):
    force_ranges(monkeypatch, 4)
    listdir = os.listdir

    def no_proc(path="."):
        if str(path).startswith("/proc"):
            raise FileNotFoundError(2, "No such file or directory", path)
        return listdir(path)

    monkeypatch.setattr(os, "listdir", no_proc)
    assert cli._cut(100, 10**6, 1) == [0, 100]


def test_a_process_of_two_threads_forks_nothing(tmp_path, monkeypatch):
    # the signals blocked around a fork stay deliverable to another thread,
    # which would take them and lose the child before its pid is recorded,
    # so the writer forks only from a process of one thread
    forks = force_ranges(monkeypatch, 2)
    release = threading.Event()
    helper = threading.Thread(target=release.wait)
    helper.start()
    try:
        out = tmp_path / "fluxmap_small.csv"
        assert _run(goldens.argv(out.name, out)) == 0
    finally:
        release.set()
        helper.join(timeout=10)
    assert not helper.is_alive()
    assert forks == []
    assert out.read_bytes() == (DATA / out.name).read_bytes()
    assert os.listdir(tmp_path) == [out.name]
    with pytest.raises(ChildProcessError):  # no child was left
        os.waitpid(-1, os.WNOHANG)


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


@pytest.mark.parametrize("value", ["params.mechanical_hop_hz=1e300",
                                   "params.optical_internal_decay_hz=[1e300, 1e300]"])
def test_overflowed_amplitude_is_nan(tmp_path, value):
    # every value is finite in rad/s, but V det_A, or det_A itself, is beyond
    # the float range: both amplitudes overflow, so no ratio is known, and no
    # warning is raised
    out = tmp_path / "spectrum.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _run(["run", "--preset", "table1", "--set", "mode=spectrum",
                     "--set", "quantity=phonon", "--set", "params.mechanical_hop_hz=5e5",
                     "--set", value, "--set", "frequency_grid.points=3",
                     "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "frequency_hz,isolation_db" and len(lines) == 4
    assert all(line.endswith(",nan") for line in lines[1:])


def test_perfect_isolation_serializes_as_inf(tmp_path):
    # kill the optical bridge and the left coupling: one conversion direction
    # has identically zero amplitude
    for fmt in ("csv", "json"):
        out = tmp_path / f"inf.{fmt}"
        base = [
            "run", "--preset", "table1", "--set", "mode=spectrum",
            "--set", "params.mechanical_hop_hz=1e6",
            "--set", "params.optical_hop_hz=0",
            "--set", "params.enhanced_coupling_hz=[0, 31e6]",
            "--set", "frequency_grid={start_hz: 5.8e9, stop_hz: 5.9e9, points: 3}",
            "--out", str(out), "--format", fmt,
        ]
        for quantity, sentinel in (("phonon_to_photon", "inf"), ("photon_to_phonon", "-inf")):
            assert _run(base + ["--set", f"quantity={quantity}"]) == 0
            if fmt == "csv":
                body = out.read_text().strip().splitlines()[1:]
                assert all(line.endswith("," + sentinel) for line in body)
            else:
                points = json.loads(out.read_text())["points"]
                assert [pt["isolation_db"] for pt in points] == [sentinel] * 3


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
    targets = {t for entry in cli._SECTIONS["params"][1].values() for t in entry[3]}
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


@pytest.mark.parametrize("vacuum, steady, field", [
    # a target over a tiny vacuum coupling asks for a field past the float range
    pytest.param("[1e-300, 1e-300]", "{target_enhanced_coupling_hz: [1e300, 1e300]}",
                 "alpha_L", id="inverse"),
    # a finite field times a huge vacuum coupling is a coupling past it
    pytest.param("[1e300, 1e300]", "{drive_amplitude: [1e307, 1e307]}", "G_L", id="forward"),
])
def test_steadystate_beyond_the_float_range_exits_3(tmp_path, capsys, vacuum, steady, field):
    out = tmp_path / "ss.csv"
    assert _run(["run", "--preset", "table1", "--set", "mode=steadystate",
                 "--set", "params.mechanical_hop_hz=5e5",
                 "--set", f"params.vacuum_coupling_hz={vacuum}",
                 "--set", f"steadystate={steady}", "--out", str(out)]) == 3
    assert f"{field} = " in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


def test_scenario_round_trip():
    raw = {
        "mode": "fluxmap",
        "quantity": "phonon",
        "params": {"preset": "table1", "mechanical_hop_hz": 5.2e5, "flux_pi": 0.3},
        "flux_grid": {"start_pi": -1.0, "stop_pi": 1.0, "points": 21},
        "output": {"path": "x.csv", "format": "csv"},
    }
    tune = {"mode": "tune", "quantity": "phonon", "params": raw["params"],
            "tune": {"flux_bounds_pi": [-0.5, 0.0], "aux": "G_L", "aux_bounds_hz": [1e7, 4e7]}}
    steady = {"mode": "steadystate",
              "params": {"preset": "table1", "mechanical_hop_hz": 5.2e5,
                         "drive_phase_pi": [0.5, 0.0]},
              "steadystate": {"drive_amplitude": [1e6, 2e6]}}
    for case in (raw, tune, steady):
        scenario = cli.Scenario.from_dict(case)
        assert cli.Scenario.from_dict(scenario.to_dict()) == scenario
        # and through an actual YAML round trip
        text = yaml.safe_dump(scenario.to_dict())
        assert cli.Scenario.from_dict(yaml.safe_load(text)) == scenario
    # sections a mode does not use are None and left out of the dict
    assert scenario.frequency_grid is None
    assert set(scenario.to_dict()) == {"mode", "params", "steadystate", "output"}


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


@pytest.mark.parametrize("out, error", [
    pytest.param("out", "[Errno 21] Is a directory: '{}'", id="a directory"),
    pytest.param("missing/out.json", "[Errno 2] No such file or directory: '{}'",
                 id="in a missing directory"),
    pytest.param("file/out.json", "[Errno 20] Not a directory: '{}'", id="in a file"),
])
def test_unwritable_output_path_is_refused_before_any_work(tmp_path, monkeypatch, capsys,
                                                           out, error):
    # the path the user gave is named, no runner starts, and no part or
    # temporary file is made
    (tmp_path / "out").mkdir()
    (tmp_path / "file").write_text("kept\n")
    monkeypatch.chdir(tmp_path)

    def runner(scenario, params):
        raise AssertionError("the runner started")

    monkeypatch.setitem(cli._RUNNERS, "fluxmap", runner)
    assert _run(["run", "--preset", "table1", "--set", "mode=fluxmap",
                 "--set", "quantity=phonon", "--set", "params.mechanical_hop_hz=520e3",
                 "--format", "json", "--out", out]) == 1
    assert capsys.readouterr().err == f"i/o error: {error.format(out)}\n"
    assert sorted(os.listdir(tmp_path)) == ["file", "out"]
    assert os.listdir(tmp_path / "out") == []
    assert (tmp_path / "file").read_text() == "kept\n"


def test_output_link_to_a_directory_is_replaced(tmp_path):
    # a rename replaces a symbolic link, not what it points to
    (tmp_path / "dir").mkdir()
    (tmp_path / "link").symlink_to("dir")
    assert _run(["run", "--preset", "table1", "--set", "mode=steadystate",
                 "--set", "params.mechanical_hop_hz=520e3",
                 "--set", "params.vacuum_coupling_hz=[1000, 1000]",
                 "--set", "steadystate.drive_amplitude=[1e8, 1e8]",
                 "--out", str(tmp_path / "link")]) == 0
    assert (tmp_path / "link").is_file() and not (tmp_path / "link").is_symlink()
    assert os.listdir(tmp_path / "dir") == []


def test_run_requires_config_or_preset(capsys):
    assert _run(["run"]) == 2
    assert "preset" in capsys.readouterr().err


def test_set_validation(tmp_path, capsys):
    assert _run(["run", "--preset", "table1", "--set", "novalue"]) == 2
    assert "--set" in capsys.readouterr().err


def test_tune_budget_defaults_and_minima(capsys):
    raw = {"mode": "tune", "quantity": "phonon",
           "params": {"preset": "table1", "mechanical_hop_hz": 5e5},
           "tune": {"flux_bounds_pi": [-0.5, 0.0], "descent_sweeps": 0}}
    tune = cli.Scenario.from_dict(raw).tune
    default = of.SearchSpace(flux_bounds=(0.0, 0.0))
    assert tune["coarse_points"] == default.coarse_points
    assert tune["golden_iterations"] == default.golden_iterations
    assert tune["descent_sweeps"] == 0
    for key, bad in (("coarse_points", 0), ("golden_iterations", -1), ("descent_sweeps", 2.5)):
        with pytest.raises(cli.ConfigError, match=f"tune.{key}"):
            cli.Scenario.from_dict(dict(raw, tune=dict(raw["tune"], **{key: bad})))


def test_oversized_grid_rejected_before_allocation(capsys):
    # validation only: nothing here runs a scenario, so no grid is built
    with pytest.raises(cli.ConfigError, match="^frequency_grid.points: the scenario needs "
                       "more than 100,000,000 kernel point evaluations$"):
        cli.load_scenario(preset="table1", overrides=[
            "mode=spectrum", "quantity=phonon", "params.mechanical_hop_hz=5e5",
            "frequency_grid.points=1000000000"])
    fluxmap = ["mode=fluxmap", "quantity=phonon", "params.mechanical_hop_hz=5e5",
               "flux_grid.points=1001", "frequency_grid.points=100000"]
    with pytest.raises(cli.ConfigError, match="^frequency_grid.points, flux_grid.points: "):
        cli.load_scenario(preset="table1", overrides=fluxmap)
    # a count past int()'s 4,300-digit string limit is compared, never printed
    huge = fluxmap[:3] + ["flux_grid.points=" + "9" * 3000, "frequency_grid.points=" + "9" * 3000]
    with pytest.raises(cli.ConfigError, match="^frequency_grid.points, flux_grid.points: "):
        cli.load_scenario(preset="table1", overrides=huge)
    assert _run(["run", "--preset", "table1"] + [f"--set={o}" for o in huge]) == 2
    assert "kernel point evaluations" in capsys.readouterr().err
    # the default 401 x 2001 map and a 10**8-cell map stay well inside the limit
    assert cli.load_scenario(preset="table1", overrides=fluxmap[:3]).flux_grid["points"] == 401
    cli.load_scenario(preset="table1", overrides=fluxmap[:3] + [
        "flux_grid.points=1000", "frequency_grid.points=100000"])


_SPECTRUM = ["mode=spectrum", "quantity=phonon", "params.mechanical_hop_hz=5e5"]
_FLUXMAP = ["mode=fluxmap", "quantity=phonon", "params.mechanical_hop_hz=5e5"]
_TUNE = ["mode=tune", "quantity=phonon", "params.mechanical_hop_hz=5e5",
         "tune.flux_bounds_pi=[-0.5, 0.0]"]
_STEADY = ["mode=steadystate", "params.mechanical_hop_hz=0", "params.vacuum_coupling_hz=[200, 200]"]
_FORWARD = _STEADY + ["steadystate.drive_amplitude=[1e6, 1e6]"]
_INVERSE = _STEADY + ["steadystate.target_enhanced_coupling_hz=[33e6, 31e6]"]

# (base overrides, extra overrides, the key or section the message starts with)
REJECTIONS = {
    "unknown top-level key": (_SPECTRUM, ["typo=1"], "scenario.typo"),
    "unknown params key": (_SPECTRUM, ["params.typo=1"], "params.typo"),
    "unknown frequency_grid key": (_SPECTRUM, ["frequency_grid.typo=1"], "frequency_grid.typo"),
    "unknown flux_grid key": (_FLUXMAP, ["flux_grid.typo=1"], "flux_grid.typo"),
    "unknown tune key": (_TUNE, ["tune.typo=1"], "tune.typo"),
    "unknown steadystate key": (_FORWARD, ["steadystate.typo=1"], "steadystate.typo"),
    "unknown output key": (_SPECTRUM, ["output.typo=1"], "output.typo"),
    "bad mode": (_SPECTRUM, ["mode=wiggle"], "mode"),
    "bad quantity": (_SPECTRUM, ["quantity=sound"], "quantity"),
    "quantity in steadystate": (_FORWARD, ["quantity=phonon"], "quantity"),
    "flux_grid in spectrum": (_SPECTRUM, ["flux_grid.points=3"], "flux_grid"),
    "tune in fluxmap": (_FLUXMAP, ["tune.coarse_points=3"], "tune"),
    "steadystate in tune": (_TUNE, ["steadystate.drive_amplitude=[1, 1]"], "steadystate"),
    "frequency_grid in steadystate": (_FORWARD, ["frequency_grid.points=3"], "frequency_grid"),
    "null params": (_SPECTRUM, ["params=null"], "params"),
    "null frequency_grid": (_SPECTRUM, ["frequency_grid=null"], "frequency_grid"),
    "list frequency_grid": (_SPECTRUM, ["frequency_grid=[1, 2]"], "frequency_grid"),
    "null flux_grid": (_FLUXMAP, ["flux_grid=null"], "flux_grid"),
    "null tune": (_TUNE, ["tune=null"], "tune"),
    "scalar tune": (_TUNE, ["tune=3"], "tune"),
    "missing tune": (["mode=tune", "quantity=phonon", "params.mechanical_hop_hz=5e5"], [], "tune"),
    "null steadystate": (_STEADY, ["steadystate=null"], "steadystate"),
    "scalar steadystate": (_STEADY, ["steadystate=x"], "steadystate"),
    "missing steadystate": (_STEADY, [], "steadystate"),
    "null output": (_SPECTRUM, ["output=null"], "output"),
    "frequency_grid start = stop": (_SPECTRUM, ["frequency_grid={start_hz: 6e9, stop_hz: 6e9}"],
                                    "frequency_grid"),
    "frequency_grid start > stop": (_SPECTRUM, ["frequency_grid={start_hz: 6e9, stop_hz: 5e9}"],
                                    "frequency_grid"),
    "flux_grid start > stop": (_FLUXMAP, ["flux_grid={start_pi: 1, stop_pi: -1}"], "flux_grid"),
    "frequency_grid one point": (_SPECTRUM, ["frequency_grid.points=1"], "frequency_grid.points"),
    "flux_grid one point": (_FLUXMAP, ["flux_grid.points=1"], "flux_grid.points"),
    "fractional points": (_SPECTRUM, ["frequency_grid.points=2.5"], "frequency_grid.points"),
    "string points": (_FLUXMAP, ["flux_grid.points='3'"], "flux_grid.points"),
    "boolean points": (_SPECTRUM, ["frequency_grid.points=true"], "frequency_grid.points"),
    "non-number start": (_SPECTRUM, ["frequency_grid.start_hz=abc"], "frequency_grid.start_hz"),
    "infinite stop": (_FLUXMAP, ["flux_grid.stop_pi=.inf"], "flux_grid.stop_pi"),
    "missing flux bounds": (_TUNE, ["tune={coarse_points: 5}"], "tune.flux_bounds_pi"),
    "flux bounds not a pair": (_TUNE, ["tune.flux_bounds_pi=0.5"], "tune.flux_bounds_pi"),
    "flux bounds reversed": (_TUNE, ["tune.flux_bounds_pi=[0.5, -0.5]"], "tune.flux_bounds_pi"),
    "aux bounds reversed": (_TUNE, ["tune.aux=G_L", "tune.aux_bounds_hz=[2e7, 1e7]"],
                            "tune.aux_bounds_hz"),
    "bad aux": (_TUNE, ["tune.aux=kappa", "tune.aux_bounds_hz=[1, 2]"], "tune.aux"),
    "aux without bounds": (_TUNE, ["tune.aux=G_L"], "tune.aux_bounds_hz"),
    "bounds without aux": (_TUNE, ["tune.aux_bounds_hz=[1, 2]"], "tune.aux_bounds_hz"),
    "negative aux bounds": (_TUNE, ["tune.aux=G_R", "tune.aux_bounds_hz=[-1, 2]"],
                            "tune.aux_bounds_hz"),
    "coarse_points below 1": (_TUNE, ["tune.coarse_points=0"], "tune.coarse_points"),
    "one coarse point, open box": (_TUNE, ["tune.coarse_points=1"], "tune.coarse_points"),
    "golden_iterations below 0": (_TUNE, ["tune.golden_iterations=-1"], "tune.golden_iterations"),
    "descent_sweeps below 0": (_TUNE, ["tune.descent_sweeps=-1"], "tune.descent_sweeps"),
    "fractional descent_sweeps": (_TUNE, ["tune.descent_sweeps=1.5"], "tune.descent_sweeps"),
    "both steady directions": (_FORWARD, ["steadystate.target_enhanced_coupling_hz=[1, 1]"],
                               "steadystate"),
    "neither steady direction": (_STEADY, ["steadystate={}"], "steadystate"),
    # each setting has one key: the drive phases are params.drive_phase_pi's
    "only drive phases": (_STEADY, ["steadystate.drive_phase_pi=[0, 1]"],
                          "steadystate.drive_phase_pi: unknown key"),
    "negative drive amplitude": (_STEADY, ["steadystate.drive_amplitude=[-1, 1]"],
                                 "steadystate.drive_amplitude"),
    "drive amplitude not a pair": (_STEADY, ["steadystate.drive_amplitude=[1, 2, 3]"],
                                   "steadystate.drive_amplitude"),
    "negative target coupling": (_STEADY, ["steadystate.target_enhanced_coupling_hz=[1, -1]"],
                                 "steadystate.target_enhanced_coupling_hz"),
    "drive phases with inverse": (_INVERSE, ["steadystate.drive_phase_pi=[0, 1]"],
                                  "steadystate.drive_phase_pi: unknown key"),
    # the default vacuum coupling is zero, so no drive makes G_L > 0
    "target without vacuum coupling": (_STEADY[:2],
                                       ["steadystate.target_enhanced_coupling_hz=[1e6, 1e6]"],
                                       "steadystate.target_enhanced_coupling_hz[0]"),
    "target without right vacuum coupling": (_INVERSE, ["params.vacuum_coupling_hz=[200, 0]"],
                                             "steadystate.target_enhanced_coupling_hz[1]"),
    "bad output format": (_SPECTRUM, ["output.format=xml"], "output.format"),
    "empty output path": (_SPECTRUM, ["output.path=''"], "output.path"),
    "numeric output path": (_SPECTRUM, ["output.path=3"], "output.path"),
    "NUL in output path": (_SPECTRUM, ['output.path="a\\0b"'], "output.path"),
    "unknown preset": (_SPECTRUM, ["params.preset=table2"], "params.preset"),
    "null preset": (_SPECTRUM, ["params.preset=null"], "params.preset"),
    "dotted key through a scalar": (_SPECTRUM, ["mode.typo=1"], "mode"),
    "dotted key through a null section": (_SPECTRUM, ["frequency_grid=null",
                                                      "frequency_grid.points=3"],
                                          "frequency_grid"),
    "negative params value": (_SPECTRUM, ["params.optical_hop_hz=-1"], "params.optical_hop_hz"),
    "zero mechanical frequency": (_SPECTRUM, ["params.mech_frequency_hz=[0, 1e9]"],
                                  "params.mech_frequency_hz"),
    # and the enhanced couplings enhanced_coupling_hz's
    "both coupling forms": (_SPECTRUM, ["params.enhanced_coupling_hz=[1, 1]",
                                        "params.enhanced_coupling_angular=[1, 1]"],
                            "params.enhanced_coupling_angular: unknown key"),
    "angular coupling": (_SPECTRUM, ["params.enhanced_coupling_angular=[1, 1]"],
                         "params.enhanced_coupling_angular: unknown key"),
    "flux and drive phases": (_SPECTRUM, ["params.flux_pi=0.5", "params.drive_phase_pi=[0, 1]"],
                              "params.flux_pi"),
    "oversized spectrum": (_SPECTRUM, ["frequency_grid.points=100000001"], "frequency_grid.points"),
    # finite in file units, infinite in angular ones
    "detuning beyond rad/s": (_SPECTRUM, ["params.detuning_hz=[1e308, 1e308]"],
                              "params.detuning_hz[0]"),
    "mechanical hop beyond rad/s": (_SPECTRUM, ["params.mechanical_hop_hz=1e308"],
                                    "params.mechanical_hop_hz"),
    "flux beyond rad": (_SPECTRUM, ["params.flux_pi=1e308"], "params.flux_pi"),
    "flux bounds beyond rad": (_TUNE, ["tune.flux_bounds_pi=[0, 1e308]"], "tune.flux_bounds_pi[1]"),
    "aux bounds beyond rad/s": (_TUNE, ["tune.aux=G_L", "tune.aux_bounds_hz=[0, 1e308]"],
                                "tune.aux_bounds_hz[1]"),
    "target coupling beyond rad/s": (_INVERSE, ["steadystate.target_enhanced_coupling_hz=[1e308, 1]"],
                                     "steadystate.target_enhanced_coupling_hz[0]"),
    "drive phase beyond rad": (_FORWARD, ["params.drive_phase_pi=[0, 1e308]"],
                               "params.drive_phase_pi[1]"),
    "flux_grid stop beyond rad": (_FLUXMAP, ["flux_grid.stop_pi=1e308"], "flux_grid.stop_pi"),
    # finite ends, a span beyond the float range in angular units
    "frequency_grid span": (_SPECTRUM, ["frequency_grid={start_hz: -2e307, stop_hz: 2e307}"],
                            "frequency_grid"),
    "flux_grid span": (_FLUXMAP, ["flux_grid={start_pi: -4e307, stop_pi: 4e307}"], "flux_grid"),
    "flux bounds span": (_TUNE, ["tune.flux_bounds_pi=[-4e307, 4e307]"], "tune.flux_bounds_pi"),
}


@pytest.mark.parametrize("base, extra, key", REJECTIONS.values(), ids=REJECTIONS.keys())
def test_invalid_scenario_names_its_key(base, extra, key):
    with pytest.raises(cli.ConfigError) as info:
        cli.load_scenario(preset="table1", overrides=base + extra)
    assert str(info.value).startswith(key), str(info.value)


@pytest.mark.parametrize("base", [_SPECTRUM, _FLUXMAP, _TUNE, _FORWARD, _INVERSE],
                         ids=["spectrum", "fluxmap", "tune", "forward", "inverse"])
def test_rejection_bases_are_valid(base):
    cli.load_scenario(preset="table1", overrides=base)


def test_huge_integer_is_rejected_as_not_finite(tmp_path, capsys):
    huge = "9" * 401  # beyond the float range, so float() overflows
    for section in (f"params: {{preset: table1, mechanical_hop_hz: {huge}}}",
                    f"params: {{preset: table1, mechanical_hop_hz: 0}}\n"
                    f"steadystate: {{drive_amplitude: [{huge}, 1]}}"):
        mode = "mode: steadystate" if "steadystate" in section else "mode: spectrum\nquantity: phonon"
        assert _run(["run", _write(tmp_path, f"{mode}\n{section}\n")]) == 2
        err = capsys.readouterr().err
        assert "must be finite" in err
        assert ("steadystate.drive_amplitude[0]" if "steadystate" in section
                else "params.mechanical_hop_hz") in err
    # an integer past int()'s string-conversion limit fails in the YAML reader
    big = "9" * 5000
    assert _run(["run", _write(tmp_path, f"mode: spectrum\nparams: {{mechanical_hop_hz: {big}}}\n")]) == 2
    assert "cannot parse config" in capsys.readouterr().err
    assert _run(["run", "--preset", "table1", "--set", f"params.mechanical_hop_hz={big}"]) == 2
    assert "--set params.mechanical_hop_hz: cannot parse value" in capsys.readouterr().err


@pytest.mark.parametrize("route", ["config", "--set"])
def test_value_nested_beyond_the_stack_exits_2(tmp_path, capsys, route):
    deep = "[" * 1000 + "]" * 1000
    if route == "config":
        assert _run(["run", _write(tmp_path, f"mode: spectrum\nparams: {deep}\n")]) == 2
        expected = "error: cannot parse config "
    else:
        assert _run(["run", "--preset", "table1", "--set", f"params.flux_pi={deep}"]) == 2
        expected = "error: --set params.flux_pi: cannot parse value "
    err = capsys.readouterr().err
    assert err.startswith(expected), err[:200]
    assert "Traceback" not in err


def test_config_that_is_not_utf8_exits_2(tmp_path, capsys):
    path = tmp_path / "latin1.yaml"
    path.write_bytes(b"mode: spectrum\nquantity: phonon  # \xff\n")
    assert _run(["run", str(path)]) == 2
    assert f"cannot read config {str(path)!r}" in capsys.readouterr().err


_STEADY_FLAGS = ["--preset", "table1", *(f"--set={o}" for o in _FORWARD)]


@pytest.mark.parametrize("top", ["[]", "false", "0", '""', "[1]", "3.5", "text"])
def test_config_top_level_that_is_not_a_mapping_exits_2(tmp_path, monkeypatch, capsys, top):
    # falsy tops too: only an empty or null document stands for no keys
    monkeypatch.chdir(tmp_path)
    config = _write(tmp_path, f"{top}\n")
    assert _run(["run", config, *_STEADY_FLAGS]) == 2
    assert capsys.readouterr().err == "error: scenario: top level must be a mapping\n"
    assert os.listdir(tmp_path) == ["scenario.yaml"]


@pytest.mark.parametrize("document", ["", "null\n", "~\n", "---\n", "# nothing\n"])
def test_empty_config_is_an_empty_scenario(tmp_path, monkeypatch, document):
    monkeypatch.chdir(tmp_path)
    assert _run(["run", _write(tmp_path, document), *_STEADY_FLAGS]) == 0
    assert (tmp_path / "result.csv").is_file()


def test_tune_coarse_row_counts_toward_grid_cap():
    # validation only: nothing here runs a search, so no coarse row is built
    base = ["mode=tune", "quantity=phonon", "params.mechanical_hop_hz=5e5",
            "tune.flux_bounds_pi=[-0.5, 0.0]"]
    keys = ("^frequency_grid.points, tune.coarse_points, tune.golden_iterations, "
            "tune.descent_sweeps: the scenario needs more than 100,000,000 kernel point")
    with pytest.raises(cli.ConfigError, match=keys):
        cli.load_scenario(preset="table1", overrides=base + ["tune.coarse_points=100000000000"])
    # 10000 x (10000 coarse + 3 sweeps x (40 + 2) + 1) evaluations
    with pytest.raises(cli.ConfigError, match=keys):
        cli.load_scenario(preset="table1", overrides=base + [
            "tune.coarse_points=10000", "frequency_grid.points=10000"])
    # the golden-section budget counts too, so a typo there cannot run forever
    for key in ("golden_iterations", "descent_sweeps"):
        with pytest.raises(cli.ConfigError, match=keys):
            cli.load_scenario(preset="table1", overrides=base + [
                f"tune.{key}=1000000000", "frequency_grid.points=11"])
    # a second open coordinate squares the coarse scan: 101 x 1000^2 > 10**8
    aux = ["tune.aux=mechanical_hop", "tune.aux_bounds_hz=[1e6, 60e6]"]
    with pytest.raises(cli.ConfigError, match=keys):
        cli.load_scenario(preset="table1", overrides=base + aux + [
            "tune.coarse_points=1000", "frequency_grid.points=101"])
    # the bench's 20001 x (33^2 + 3 x 2 x 42 + 1) tune_2d, a collapsed search
    # (20001 x 2, whatever its coarse_points) and a flux-only
    # 10000 x (9000 + 3 x 42 + 1) one stay inside the limit
    cli.load_scenario(preset="table1", overrides=base + aux + ["frequency_grid.points=20001"])
    cli.load_scenario(preset="table1", overrides=[
        *base[:3], "tune.flux_bounds_pi=[0.5, 0.5]", "tune.coarse_points=1000000",
        "frequency_grid.points=20001"])
    cli.load_scenario(preset="table1", overrides=base + [
        "tune.coarse_points=9000", "frequency_grid.points=10000"])


@pytest.mark.parametrize("tune, evaluations", [
    pytest.param({"flux_bounds_pi": [1.0, 1.0]}, 1 + 1, id="collapsed"),
    pytest.param({"flux_bounds_pi": [1.0, 2.0], "coarse_points": 3, "golden_iterations": 2,
                  "descent_sweeps": 1}, 3 + 1 + 1 * (2 + 2), id="flux only"),
    pytest.param({"flux_bounds_pi": [1.0, 2.0], "aux": "G_L", "aux_bounds_hz": [10e6, 40e6],
                  "coarse_points": 3, "golden_iterations": 1, "descent_sweeps": 1},
                 3**2 + 1 + 1 * 2 * (1 + 2), id="two coordinates"),
])
def test_grid_cap_counts_what_tune_evaluates(monkeypatch, tune, evaluations):
    # the kernel evaluations of a tune: a peak per objective, then the final
    # peak; a call with a row of fluxes scores one objective per flux
    fluxes = []
    kernel = of.response.amplitude_kernel

    def counted_kernel(*args):
        peak = kernel(*args)

        def counted_peak(value, flux, *floor):
            fluxes.append(np.size(flux))
            return peak(value, flux, *floor)

        return counted_peak

    monkeypatch.setattr(of.response, "amplitude_kernel", counted_kernel)
    raw = {"mode": "tune", "quantity": "photon_to_phonon", "tune": tune,
           "params": {"preset": "table1", "mechanical_hop_hz": 520e3}}
    scenario = cli.Scenario.from_dict({**raw, "frequency_grid": {"points": 41}})
    of.tune(scenario.build_params(), scenario.quantity, scenario.build_search_space())
    assert sum(fluxes) == evaluations
    # each evaluation is one per frequency point: the cap takes a grid of
    # exactly MAX_POINT_EVALUATIONS and rejects one point more
    points = cli.MAX_POINT_EVALUATIONS // evaluations
    assert points * evaluations == cli.MAX_POINT_EVALUATIONS
    cli.Scenario.from_dict({**raw, "frequency_grid": {"points": points}})
    with pytest.raises(cli.ConfigError, match="kernel point evaluations$"):
        cli.Scenario.from_dict({**raw, "frequency_grid": {"points": points + 1}})


@pytest.mark.parametrize("flag", [["--out", "x.csv"], ["--format", "json"],
                                  ["--set", "output.path=x.csv"]])
@pytest.mark.parametrize("output", ["null", "3"])
def test_output_flag_needs_output_mapping(tmp_path, monkeypatch, capsys, flag, output):
    monkeypatch.chdir(tmp_path)
    assert _run(["run", "--preset", "table1", "--set", "mode=spectrum",
                 "--set", "quantity=phonon", "--set", "params.mechanical_hop_hz=5e5",
                 "--set", f"output={output}", *flag]) == 2
    assert "output: must be a mapping" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []
