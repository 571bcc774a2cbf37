"""Per-layer metrics from the spans and ``-X importtime`` log of traced runs.

A span's self time is its duration minus the durations of its child spans
and minus the wrapper's own bookkeeping inside it.  Metrics ending in ``_s``
are self times in seconds.  For one rotation of a workload (every scenario
run once) the layers are summed over its runs, and

    wall = import.total_s + sum of span self times + trace.unattributed_s

holds exactly; unattributed time is interpreter start and exit, argument
parsing, the tracer's bookkeeping and anything not wrapped.
"""

from __future__ import annotations

from collections import defaultdict

SPAN_LAYERS = (
    "cli.load_scenario", "cli.build_params", "cli.run", "sweep.flux_map",
    "sweep.spectrum", "optimize.tune", "response.isolation_db",
    "model.susceptibilities", "steadystate.steady_amplitudes",
    "steadystate.drives_for_target_G",
)

# metric name -> unit, in the order they are reported
UNITS = {
    "import.total_s": "s", "import.numpy_s": "s", "import.yaml_s": "s",
    "import.optoflux_self_s": "s",
    "cli.load_scenario_s": "s", "cli.load_scenario.errors": "count",
    "cli.build_params_s": "s",
    "cli.emit_s": "s", "cli.output_bytes": "count", "cli.emit_mb_per_s": "MB/s",
    "sweep.flux_map_s": "s", "sweep.spectrum_s": "s",
    "response.isolation_db_s": "s", "response.isolation_db.calls": "count",
    "response.isolation_db.points": "count", "response.ns_per_point": "ns",
    "response.nonfinite_cells": "count",
    "model.susceptibilities_s": "s", "model.susceptibilities.calls": "count",
    "optimize.tune_s": "s", "optimize.objective_evals": "count",
    "optimize.accepted_ratio": "ratio",
    "steadystate.steady_amplitudes_s": "s", "steadystate.drives_for_target_G_s": "s",
    "trace.wall_s": "s", "trace.overhead_s": "s", "trace.unattributed_s": "s",
}


def parse_importtime(text: str) -> dict:
    """Import times in seconds from a ``python -X importtime`` log."""
    total = optoflux = 0.0
    cumulative = {}
    for line in text.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3 or not fields[0].strip().isdigit():
            continue
        own, cum, name = int(fields[0]) * 1e-6, int(fields[1]) * 1e-6, fields[2].strip()
        total += own
        cumulative.setdefault(name, cum)
        if name == "optoflux" or name.startswith("optoflux."):
            optoflux += own
    return {"import.total_s": total, "import.numpy_s": cumulative.get("numpy", 0.0),
            "import.yaml_s": cumulative.get("yaml", 0.0), "import.optoflux_self_s": optoflux}


def self_times(spans: list) -> dict:
    """Summed self time per span name."""
    own = [s["end"] - s["start"] - s["hidden"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    out = defaultdict(float)
    for s, t in zip(spans, own):
        out[s["name"]] += t
    return out


def run_metrics(spans: list, imports: dict, output_bytes: int, wall: float) -> dict:
    """Layer metrics of one traced run (sums, so rotations add up)."""
    own = self_times(spans)
    named = defaultdict(list)
    for s in spans:
        named[s["name"]].append(s)
    iso = named["response.isolation_db"]
    tune_ids = {i for i, s in enumerate(spans) if s["name"] == "optimize.tune"}
    m = dict(imports)
    m.update({f"{layer}_s": own.get(layer, 0.0) for layer in SPAN_LAYERS})
    m["cli.emit_s"] = m.pop("cli.run_s")
    m.update({
        "cli.load_scenario.errors": sum("error" in s for s in named["cli.load_scenario"]),
        "cli.output_bytes": output_bytes,
        "response.isolation_db.calls": len(iso),
        "response.isolation_db.points": sum(s.get("points", 0) for s in iso),
        "response.nonfinite_cells": sum(s.get("nonfinite", 0) for s in iso),
        "response.isolation_db_incl_s": sum(s["end"] - s["start"] for s in iso),
        "model.susceptibilities.calls": len(named["model.susceptibilities"]),
        "optimize.objective_evals": sum(s["parent"] in tune_ids for s in iso),
        "optimize.accepted": sum(s.get("accepted", 0) for s in named["optimize.tune"]),
        "trace.wall_s": wall,
        "trace.unattributed_s": wall - imports["import.total_s"] - sum(own.values()),
    })
    return m


def rotation_metrics(runs: list) -> dict:
    """Sum the per-run metrics of one rotation and derive the ratios."""
    m = defaultdict(float)
    for run in runs:
        for key, value in run.items():
            m[key] += value
    m = dict(m)
    points = m["response.isolation_db.points"]
    m["response.ns_per_point"] = m.pop("response.isolation_db_incl_s") / points * 1e9 \
        if points else 0.0
    m["cli.emit_mb_per_s"] = m["cli.output_bytes"] / 1e6 / m["cli.emit_s"] \
        if m["cli.emit_s"] > 0 else 0.0
    evals = m["optimize.objective_evals"]
    m["optimize.accepted_ratio"] = m.pop("optimize.accepted") / evals if evals else 0.0
    return m
