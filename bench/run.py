"""Outside-in benchmark of ``optoflux run`` over four seeded workloads.

    python3 bench/run.py --workload fluxmap_csv --seed 0 --seconds 28 --trace 0
    python3 bench/run.py --workload all --seconds 28     # every workload, one table

Closed loop with one client: one ``optoflux run`` child at a time, started
only after the previous one has exited and its output has been checked.
Children run the package from ``src/`` of this checkout with one BLAS/OpenMP
thread each.  Workloads and why each exists:

- fluxmap_csv  401x2001 phonon map as CSV (11.7 MB); serialization dominates
- fluxmap_json the same map as JSON (20.9 MB); same layer, other format, more memory
- tune_2d      photon->phonon tune over flux and V on a 20001-point grid;
               the isolation kernel and search loop dominate
- cli_small    spectrum, steady-state inverse, steady-state forward in turn
               (~0.2 s each); import, scenario loading and parameter building
               dominate

Every rotation (each scenario of the workload run once) is followed by one
set-up probe and by runs of ``calibrate.py``, a fixed reference job, until
they have taken a third as long as the rotation.  On a shared host the CPU
speed flips between a fast and a slow state many times a minute, and the
share of time spent slow drifts by tens of percent over minutes.  That
drift moves the program and the reference job alike, so the end-to-end
times are means (which, unlike medians, are linear in that share) scaled to
a reference host: the mean of a raw time times ``REFERENCE_S / mean
reference job time`` over the same run.  The scaled median and tail, the
raw means and the scale are in the report line.

With ``--trace 0`` the result reports the end-to-end metrics; with
``--trace 1`` it alternates untraced and traced rotations (see shim.py and
layers.py) and reports the per-layer metrics.  The last line of stdout is
the result object; the line before it is a report with the environment,
sample counts, digests and failures.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = ROOT / "bench"
# Relative to ROOT, which main() makes the working directory: a scenario's
# paths then read the same in every checkout and every run of one seed.  The
# fluxmap's peak RSS steps by up to 4 MB with the length of those paths.
WORK = Path(".bench_work")
PINNED = BENCH / "digests.json"

# the kernels are elementwise numpy; extra BLAS threads would only add noise
CHILD_THREADS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
# seconds the reference job (calibrate.py) takes on the reference host; scaled
# times read as seconds on a host where it takes this long on average
REFERENCE_S = 0.25
SETUP_CODE = "import sys\nfrom optoflux import cli\ncli.load_scenario(sys.argv[1]).build_params()\n"
TAIL_BEYOND = 10
END_TO_END = {"wall_s.mean": "s", "cpu_s.mean": "s", "peak_rss_mb": "MB", "setup_s": "s"}


@dataclass(frozen=True)
class Child:
    """One finished child process: wall time from spawn to exit, rusage, exit code."""

    wall: float
    cpu: float
    rss_mb: float
    code: int


class Launcher:
    """Runs children one at a time through spawner.py (see there for why).

    Use as a context manager; leaving it stops the helper and any child it
    is running, and waits for both.
    """

    def __init__(self):
        self.proc = subprocess.Popen([sys.executable, str(BENCH / "spawner.py")], cwd=ROOT,
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     text=True, start_new_session=True)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.proc.stdin.close()
        if exc_info[0] is not None:
            os.killpg(self.proc.pid, signal.SIGKILL)
        self.proc.wait()
        self.proc.stdout.close()

    def run(self, argv, stderr_path) -> Child:
        """Run ``argv`` to completion in the checkout root, stderr to a file."""
        self.proc.stdin.write(json.dumps({"argv": argv, "stderr": str(stderr_path)}) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError("spawner.py exited unexpectedly")
        return Child(**json.loads(reply))


def tail(values) -> tuple:
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples
    above it; the median when there are too few samples for that."""
    xs = sorted(values)
    i = len(xs) - 1 - TAIL_BEYOND
    if i < 1 or i / (len(xs) - 1) < 0.5:
        return statistics.median(xs), 50.0
    return xs[i], 100.0 * i / (len(xs) - 1)


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else ():
        if line.endswith(" " + ref[5:]):
            return line.split()[0]
    return "unknown"


def environment() -> dict:
    import numpy
    import yaml

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "pyyaml": yaml.__version__,
        "commit": git_commit(),
        "child_threads": CHILD_THREADS,
        "src_lines": sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py"))),
    }


class Bench:
    """One workload at one seed: its scenario files, references and failure tally."""

    def __init__(self, workload, seed, tiny, workdir, launcher):
        from check import GOLDEN_PEAK_DB
        from scenarios import DEFAULT_SEED, scenarios

        self.seed = seed
        self.workdir = workdir
        self.launcher = launcher
        self.rotation = scenarios(workload, seed, tiny)
        self.files = [sc.write(workdir) for sc in self.rotation]
        reference_seed = seed == DEFAULT_SEED and not tiny
        self.golden = GOLDEN_PEAK_DB if reference_seed else None
        # default seed: digests pinned in digests.json; otherwise the first run's
        self.reference = json.loads(PINNED.read_text())["sha256"] if reference_seed else {}
        self.verified = {}
        self.digests = {}
        self.attempted = 0
        self.failures = []

    def record(self, what, problems):
        self.attempted += 1
        if problems:
            self.failures.append(f"{what}: {'; '.join(problems)}")

    def verify(self, index) -> list:
        from check import check_output, digest

        scenario, (_, out) = self.rotation[index], self.files[index]
        got = digest(out)
        self.digests[scenario.name] = got
        expected = self.reference.setdefault(scenario.name, got)
        problems = [] if got == expected else [f"sha256 {got} differs from {expected}"]
        if got not in self.verified:
            golden = self.golden if scenario.config["mode"] == "spectrum" else None
            self.verified[got] = check_output(scenario, out, self.seed, golden)
        return problems + self.verified[got]

    def run(self, index, traced=False, run_id="") -> Child:
        """One ``optoflux run`` of scenario ``index``, checked afterwards."""
        config, _ = self.files[index]
        name = self.rotation[index].name
        log = self.workdir / f"{name}.stderr"
        if traced:
            argv = [sys.executable, "-X", "importtime", str(BENCH / "shim.py"),
                    str(self.workdir / f"{name}.spans.json"), run_id, "run", config]
        else:
            argv = [sys.executable, "-m", "optoflux", "run", config]
        child = self.launcher.run(argv, log)
        if child.code != 0:
            last = log.read_text(errors="replace").strip().splitlines()[-1:]
            self.record(name, [f"exit code {child.code}: {''.join(last)}"])
        else:
            self.record(name, self.verify(index))
        return child

    def setup_probe(self, index) -> Child:
        """Fresh process: import the CLI, load and validate, build params, exit."""
        config, _ = self.files[index]
        child = self.launcher.run([sys.executable, "-c", SETUP_CODE, config],
                                  self.workdir / "setup.stderr")
        self.record("setup", [] if child.code == 0 else [f"setup probe exit {child.code}"])
        return child

    def calibrate(self) -> Child:
        """One run of the fixed reference job; its failure is the benchmark's."""
        child = self.launcher.run([sys.executable, str(BENCH / "calibrate.py"),
                                   str(self.workdir / "calibrate.txt")],
                                  self.workdir / "calibrate.stderr")
        if child.code != 0:
            raise RuntimeError(f"calibrate.py exited with code {child.code}")
        return child

    def rotations(self, seconds, body):
        """Call ``body()`` (one rotation) until the next one would overrun."""
        deadline = time.perf_counter() + seconds
        last = 0.0
        while True:
            started = time.perf_counter()
            if last and started + last > deadline:
                return
            body()
            last = time.perf_counter() - started

    def end_to_end(self, seconds) -> tuple:
        n = len(self.rotation)
        for i in range(n):
            self.run(i)  # warm-up: page cache, bytecode cache, references
        self.setup_probe(0)
        self.calibrate()
        samples, setup, reference = [], [], []

        def rotation():
            started = time.perf_counter()
            samples.extend(self.run(i) for i in range(n))
            setup.append(self.setup_probe(len(setup) % n).wall)
            # a third of the time on the reference roughly balances the
            # sampling error of its mean against that of the program's
            quota, spent = (time.perf_counter() - started) / 3, 0.0
            while spent < quota:
                reference.append(self.calibrate().wall)
                spent += reference[-1]

        self.rotations(seconds, rotation)
        walls = [c.wall for c in samples]
        scale = REFERENCE_S / statistics.mean(reference)
        raw = {"wall_s.mean": statistics.mean(walls),
               "cpu_s.mean": statistics.mean(c.cpu for c in samples),
               "setup_s": statistics.mean(setup)}
        metrics = {k: v * scale for k, v in raw.items()}
        metrics["peak_rss_mb"] = statistics.median(c.rss_mb for c in samples)
        tail_value, tail_pct = tail(walls)
        info = {"samples": len(walls), "wall_s.p50": statistics.median(walls) * scale,
                "wall_s.tail": tail_value * scale, "tail_percentile": tail_pct,
                "tail_beyond": sum(w > tail_value for w in walls),
                "setup_probes": len(setup), "reference_runs": len(reference),
                "reference_s.mean": statistics.mean(reference), "scale": scale, "raw": raw}
        return {k: (metrics[k], unit) for k, unit in END_TO_END.items()}, info

    def per_layer(self, seconds) -> tuple:
        from layers import UNITS, parse_importtime, rotation_metrics, run_metrics

        for i in range(len(self.rotation)):
            self.run(i)
        plain, traced, unwrapped = [], [], set()

        def rotation():
            plain.append(sum(self.run(i).wall for i in range(len(self.rotation))))
            runs = []
            for i, scenario in enumerate(self.rotation):
                child = self.run(i, traced=True, run_id=f"{len(traced)}-{i}")
                if child.code != 0:
                    return  # counted as a failure; no layer figures from this rotation
                spans = json.loads((self.workdir / f"{scenario.name}.spans.json").read_text())
                unwrapped.update(spans["unwrapped"])
                imports = parse_importtime((self.workdir / f"{scenario.name}.stderr").read_text())
                size = os.path.getsize(self.files[i][1])
                runs.append(run_metrics(spans["spans"], imports, size, child.wall))
            traced.append(rotation_metrics(runs))

        self.rotations(seconds, rotation)
        if not traced:
            raise RuntimeError(f"no traced rotation succeeded: {self.failures[:3]}")
        # all layers from the median traced rotation, so its accounting identity holds
        chosen = sorted(traced, key=lambda m: m["trace.wall_s"])[(len(traced) - 1) // 2]
        chosen["trace.overhead_s"] = (statistics.median(m["trace.wall_s"] for m in traced)
                                      - statistics.median(plain))
        metrics = {k: (round(chosen[k]) if unit == "count" else chosen[k], unit)
                   for k, unit in UNITS.items()}
        info = {"traced_rotations": len(traced), "untraced_rotations": len(plain),
                "unwrapped": sorted(unwrapped)}
        return metrics, info


def measure(workload, seed, seconds, trace, tiny=False) -> dict:
    """Run one workload; return the result object plus a report."""
    workdir = WORK / f"{workload}-{seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        with Launcher() as launcher:
            bench = Bench(workload, seed, tiny, workdir, launcher)
            metrics, info = (bench.per_layer if trace else bench.end_to_end)(seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failed = len(bench.failures)
    info.update(workload=workload, seed=seed, seconds=seconds, trace=trace,
                error_rate=failed / bench.attempted, failures=bench.failures[:10],
                sha256=bench.digests)
    result = {"correct": failed == 0, "attempted": bench.attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    return {"result": result, "report": info}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=28)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every grid and budget (smoke tests only)")
    args = parser.parse_args(argv)

    if not (SRC / "optoflux" / "cli.py").is_file():
        print(f"error: no optoflux sources under {SRC}", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    sys.path[:0] = [str(SRC), str(BENCH)]
    os.environ.update(CHILD_THREADS, PYTHONPATH=str(SRC))
    from scenarios import WORKLOADS

    if args.workload not in WORKLOADS + ("all",):
        parser.error(f"--workload must be one of {WORKLOADS + ('all',)}")
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")

    env = environment()
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    outcomes = {}
    for workload in workloads:
        outcome = measure(workload, args.seed, args.seconds, args.trace, args.tiny)
        outcomes[workload] = outcome
        for name, metric in outcome["result"]["metrics"].items():
            print(f"{workload:13s} {name:36s} {metric['value']:.6g} {metric['unit']}")
        report = outcome["report"]
        print(f"{workload:13s} {'error_rate':36s} {report['error_rate']:.6g} "
              f"({outcome['result']['failed']} of {outcome['result']['attempted']} runs)")
        if "tail_percentile" in report:
            print(f"{workload:13s} {'wall_s.p50':36s} {report['wall_s.p50']:.6g} s")
            print(f"{workload:13s} {'wall_s.tail':36s} {report['wall_s.tail']:.6g} s "
                  f"(p{report['tail_percentile']:.1f} of {report['samples']} samples)")
    print(json.dumps({"environment": env,
                      "reports": {w: o["report"] for w, o in outcomes.items()}}))
    if len(outcomes) == 1:
        print(json.dumps(outcomes[args.workload]["result"]))
    else:
        results = [o["result"] for o in outcomes.values()]
        print(json.dumps({"correct": all(r["correct"] for r in results),
                          "attempted": sum(r["attempted"] for r in results),
                          "failed": sum(r["failed"] for r in results),
                          "workloads": {w: o["result"] for w, o in outcomes.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
