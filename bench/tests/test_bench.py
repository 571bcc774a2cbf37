"""Tests of the benchmark itself.

Run with ``python -m pytest -q bench/tests`` from the repository root.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import check  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402
import scenarios  # noqa: E402


@pytest.fixture
def launcher(monkeypatch):
    monkeypatch.setenv("PYTHONPATH", str(ROOT / "src"))
    for key, value in run.CHILD_THREADS.items():
        monkeypatch.setenv(key, value)
    with run.Launcher() as launcher:
        yield launcher


def _bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)
    return proc


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", scenarios.WORKLOADS)
def test_tiny_smoke_run(workload, trace):
    proc = _bench("--workload", workload, "--seed", "3", "--seconds", "1",
                  "--trace", str(trace), "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = set(layers.UNITS) if trace else set(run.END_TO_END)
    assert set(result["metrics"]) == expected
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
        report = json.loads(proc.stdout.splitlines()[-2])["reports"][workload]
        assert report["reference_runs"] >= report["setup_probes"] >= 1
        for name, raw in report["raw"].items():
            assert result["metrics"][name]["value"] == pytest.approx(raw * report["scale"])
        assert report["scale"] == pytest.approx(run.REFERENCE_S / report["reference_s.mean"])


def test_default_seed_reproduces_criterion_6():
    spectrum = scenarios.scenarios("cli_small", scenarios.DEFAULT_SEED)[0]
    params = spectrum.config["params"]
    assert params["mechanical_hop_hz"] == 515709.8644424447
    assert params["flux_pi"] == -0.1585105713191547


def test_seed_changes_physics_not_cost():
    for workload in scenarios.WORKLOADS:
        a, b = scenarios.scenarios(workload, 1), scenarios.scenarios(workload, 2)
        assert [s.config["params"] for s in a] != [s.config["params"] for s in b]
        for x, y in zip(a, b):
            assert x.config.get("frequency_grid") == y.config.get("frequency_grid")
            assert x.config.get("flux_grid") == y.config.get("flux_grid")


def test_corrupt_byte_and_wrong_golden_count_as_failures(tmp_path, launcher):
    bench = run.Bench("cli_small", scenarios.DEFAULT_SEED, False, tmp_path, launcher)
    bench.run(0)
    assert bench.failures == [] and bench.attempted == 1

    out = Path(bench.files[0][1])
    text = out.read_text()
    out.write_text(text.replace(",65.1710501374\n", ",65.1710501375\n", 1))
    assert out.read_text() != text
    bench.record("spectrum", bench.verify(0))
    assert bench.attempted == 2 and len(bench.failures) == 1
    assert "sha256" in bench.failures[0]

    out.write_text(text)
    bench.golden = check.GOLDEN_PEAK_DB + 1e-3
    bench.verified.clear()
    bench.record("spectrum", bench.verify(0))
    assert bench.attempted == 3 and len(bench.failures) == 2
    assert "golden" in bench.failures[1]


def test_wrong_values_fail_the_content_checks(tmp_path, launcher):
    bench = run.Bench("cli_small", 4, True, tmp_path, launcher)
    for i in range(len(bench.rotation)):
        bench.run(i)
    assert bench.failures == []
    inverse, path = bench.rotation[1], bench.files[1][1]
    payload = json.loads(Path(path).read_text())
    payload["eps_L_re"] *= 1.0 + 1e-6
    Path(path).write_text(json.dumps(payload))
    assert any("round trip" in p for p in check.check_output(inverse, path, 4))

    spectrum, path = bench.rotation[0], bench.files[0][1]
    lines = Path(path).read_text().split("\n")
    for j, line in enumerate(lines[1:-1], start=1):
        freq, value = line.split(",")
        lines[j] = f"{freq},{float(value) + 1e-3!r}"
    Path(path).write_text("\n".join(lines))
    assert any("oracle" in p for p in check.check_output(spectrum, path, 4))


@pytest.mark.parametrize("workload", ["fluxmap_json", "tune_2d", "cli_small"])
def test_traced_output_is_byte_identical(tmp_path, launcher, workload):
    bench = run.Bench(workload, 5, True, tmp_path, launcher)
    for i, scenario in enumerate(bench.rotation):
        bench.run(i)
        plain = check.digest(bench.files[i][1])
        bench.run(i, traced=True, run_id="t")
        assert check.digest(bench.files[i][1]) == plain
        spans = json.loads((tmp_path / f"{scenario.name}.spans.json").read_text())
        assert spans["unwrapped"] == []
        assert {"cli.load_scenario", "cli.run"} <= {s["name"] for s in spans["spans"]}
    assert bench.failures == []


def test_self_times_account_for_the_wall_time():
    spans = [
        {"name": "cli.run", "parent": None, "start": 1.0, "end": 3.0, "hidden": 0.0},
        {"name": "optimize.tune", "parent": 0, "start": 1.5, "end": 2.5, "hidden": 0.1},
        {"name": "response.isolation_db", "parent": 1, "start": 1.6, "end": 1.8,
         "hidden": 0.0, "points": 10, "nonfinite": 1},
    ]
    imports = {"import.total_s": 0.5, "import.numpy_s": 0.2, "import.yaml_s": 0.1,
               "import.optoflux_self_s": 0.1}
    m = layers.rotation_metrics([layers.run_metrics(spans, imports, 100, 4.0)])
    assert m["cli.emit_s"] == pytest.approx(1.0)
    assert m["optimize.tune_s"] == pytest.approx(0.7)
    assert m["optimize.objective_evals"] == 1
    own = sum(m[f"{layer}_s"] for layer in layers.SPAN_LAYERS if layer != "cli.run")
    assert m["trace.wall_s"] == pytest.approx(
        m["import.total_s"] + m["cli.emit_s"] + own + m["trace.unattributed_s"])
    assert m["trace.unattributed_s"] == pytest.approx(4.0 - 0.5 - 1.9)


def test_child_peak_rss_is_not_the_benchmark_peak(tmp_path, launcher):
    ballast = bytearray(300 * 1024 * 1024)
    ballast[::4096] = b"\1" * len(range(0, len(ballast), 4096))
    child = launcher.run([sys.executable, "-c", "pass"], tmp_path / "err")
    assert child.code == 0 and child.rss_mb < 100.0
    del ballast


def test_tail_needs_ten_samples_beyond():
    assert run.tail(range(5)) == (2, 50.0)
    value, pct = run.tail(range(101))
    assert value == 90 and pct == 90.0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _bench("--workload", "cli_small", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
