"""Tier-1 set-up: one BLAS thread, as the process entry gives a CLI run.

The tests fork writer and scan ranges from the pytest process, so numpy's
BLAS gets one thread before any test module imports numpy, unless the
environment sets the count; see ``optoflux.__main__``.
"""

import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")
