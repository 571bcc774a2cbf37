"""The golden outputs of tests/data at each SIMD level of this host.

numpy picks the loop of an operation by the CPU it runs on, and a few of
those loops round differently, so a golden file can come out with other
bytes on a host without the SIMD extensions of the one that wrote it.  This
script runs ``goldens.main`` once per level: natively, then with numpy's
dispatch targets that this host has turned off one more at a time, from the
top, through ``NPY_DISABLE_CPU_FEATURES`` in the environment of the child
processes (this process never loads numpy)::

    python tests/simd_goldens.py optoflux OUT_DIR
    python tests/simd_goldens.py python -m optoflux OUT_DIR

It prints the files that differ at each level and exits 0: it shows where
the bytes move, and gates nothing.
"""

import os
import subprocess
import sys

import goldens

# numpy's dispatch targets that this CPU has, in numpy's order: lowest first
_TARGETS = """
try:
    from numpy._core import _multiarray_umath as m
except ImportError:  # numpy < 2
    from numpy.core import _multiarray_umath as m
print(" ".join(t for t in m.__cpu_dispatch__ if m.__cpu_features__.get(t)))
"""


def main(args):
    *command, out_dir = args
    targets = subprocess.run([sys.executable, "-c", _TARGETS], capture_output=True, text=True,
                             check=True).stdout.split()
    for level in range(len(targets) + 1):
        disabled = " ".join(targets[len(targets) - level:])
        print(f"NPY_DISABLE_CPU_FEATURES={disabled!r}:", flush=True)
        os.environ["NPY_DISABLE_CPU_FEATURES"] = disabled
        if goldens.main([*command, out_dir]) == 0:
            print("every file matches", flush=True)
    return 0


if __name__ == "__main__":
    if len(sys.argv) < 3:
        sys.exit(f"usage: {sys.argv[0]} COMMAND... OUT_DIR")
    sys.exit(main(sys.argv[1:]))
