"""Traced ``optoflux run``: time each layer from outside, then run the CLI.

Usage::

    python -X importtime bench/shim.py SPANS.json RUN_ID run CONFIG.yaml

Each public function is replaced, under the name its caller looks it up by,
with a wrapper that records a span (name, start, end, parent, run id).
Spans stay in memory and are written to SPANS.json when the CLI returns.
The wrapped functions themselves are untouched, so the output file is
byte-identical to an untraced run.
"""

from __future__ import annotations

import functools
import json
import sys
import time

import numpy as np

from optoflux import cli, optimize, response, steadystate, sweep

# (owner, attribute looked up by the caller, span name)
TARGETS = (
    (cli, "load_scenario", "cli.load_scenario"),
    (cli.Scenario, "build_params", "cli.build_params"),
    (cli, "run", "cli.run"),
    (sweep, "flux_map", "sweep.flux_map"),
    (sweep, "spectrum", "sweep.spectrum"),
    (optimize, "tune", "optimize.tune"),
    (response, "isolation_db", "response.isolation_db"),
    (response, "susceptibilities", "model.susceptibilities"),
    (steadystate, "steady_amplitudes", "steadystate.steady_amplitudes"),
    (steadystate, "drives_for_target_G", "steadystate.drives_for_target_G"),
)


def _isolation_counts(record, args, kwargs, result):
    omega = args[1] if len(args) > 1 else kwargs["omega"]
    record["points"] = int(np.size(omega))
    record["nonfinite"] = int(np.size(result) - np.count_nonzero(np.isfinite(result)))


def _tune_counts(record, args, kwargs, result):
    record["accepted"] = len(result.trace)


COUNTERS = {"response.isolation_db": _isolation_counts, "optimize.tune": _tune_counts}


class Tracer:
    """Span recorder.  Time a wrapper spends on itself (bookkeeping and
    counting) is charged to neither the span nor its parent, so self times
    measure the program and the tracer's cost shows as unattributed."""

    def __init__(self, run_id):
        self.run_id = run_id
        self.spans = []
        self.stack = []
        self.unwrapped = []

    def wrap(self, fn, name):
        counter = COUNTERS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            entered = clock()
            parent = self.stack[-1] if self.stack else None
            record = {"name": name, "run": self.run_id, "parent": parent, "hidden": 0.0}
            self.stack.append(len(self.spans))
            self.spans.append(record)
            record["start"] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                record["error"] = type(exc).__name__
                raise
            finally:
                record["end"] = clock()
                self.stack.pop()
            if counter is not None:
                counter(record, args, kwargs, result)
            if parent is not None:
                own = (clock() - entered) - (record["end"] - record["start"])
                self.spans[parent]["hidden"] += own
            return result

        return traced

    def install(self):
        for owner, attr, name in TARGETS:
            if hasattr(owner, attr):
                setattr(owner, attr, self.wrap(getattr(owner, attr), name))
            else:
                self.unwrapped.append(name)


def main(argv) -> int:
    spans_path, run_id, *cli_args = argv
    tracer = Tracer(run_id)
    tracer.install()
    try:
        return cli.main(cli_args)
    finally:
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"spans": tracer.spans, "unwrapped": tracer.unwrapped}, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
