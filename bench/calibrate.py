"""Fixed reference job that the benchmark times next to every rotation.

It does a little of what an ``optoflux run`` does, with none of its code:
start the interpreter, import numpy and PyYAML, parse a small YAML file,
run complex elementwise numpy over a grid, and format and write the result
as text.  Its cost never changes, so the ratio of the program's mean time
to this job's mean time over the same run removes most of the drift in
CPU speed on a shared host (see run.py, ``REFERENCE_S``).

    python bench/calibrate.py OUTPUT_PATH
"""

import sys

import numpy as np
import yaml

config = yaml.safe_load("grid: {start: 0.0, stop: 6.283185307179586, points: 40000}\n"
                        "rounds: 12\nrows: 25000\n")
grid = config["grid"]
x = np.linspace(grid["start"], grid["stop"], grid["points"])
z = np.exp(1j * x)
acc = np.zeros_like(x)
for k in range(config["rounds"]):
    acc += 20.0 * np.log10(np.abs((1.0 + k * z) / (1.0 - 0.5 * z * z + 1e-3)))
rows = acc[:config["rows"]].reshape(-1, 5).tolist()
with open(sys.argv[1], "w", encoding="utf-8") as fh:
    fh.writelines(",".join(f"{v:.12g}" for v in row) + "\n" for row in rows)
