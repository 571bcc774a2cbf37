"""The process entry of the ``optoflux`` command and of ``python -m optoflux``.

A CLI run is a batch job whose hot paths create no reference cycles, so
:func:`main` turns the cyclic collector off before it imports the CLI and
freezes the objects still alive once the CLI returns: neither collections
during the run nor the final one at interpreter exit walk the numpy and
PyYAML objects.  The forked writer children inherit the disabled
collector.  Atexit handlers, stdio flushing and module teardown still run.
:func:`optoflux.cli.main` leaves the collector alone, for in-process callers.

Before numpy can load, :func:`main` also gives its BLAS one thread, unless
the caller's environment sets the count: a run multiplies no matrix large
enough for more threads to help, and its writer's ranges are then forked
from a process of one thread.

SIGTERM becomes ``SystemExit(143)``, so that a terminated run unwinds like
an interrupted one: the writer removes its temporary file and kills and
reaps its children.
"""

import gc
import os
import signal
import sys


def main():
    """Run ``optoflux.cli.main()`` on ``sys.argv`` without the cyclic
    collector, with one BLAS thread and SIGTERM raising SystemExit(143);
    return its exit code."""
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))
    gc.disable()
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(name, "1")
    from .cli import main as cli_main

    try:
        return cli_main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(main())
