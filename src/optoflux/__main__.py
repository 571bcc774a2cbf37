"""The process entry of the ``optoflux`` command and of ``python -m optoflux``.

A CLI run is a batch job whose hot paths create no reference cycles, so
:func:`main` turns the cyclic collector off before it imports the CLI and
freezes the objects still alive once the CLI returns: neither collections
during the run nor the final one at interpreter exit walk the numpy and
PyYAML objects.  The forked writer and scan children inherit the disabled
collector.  Atexit handlers, stdio flushing and module teardown still run.
:func:`optoflux.cli.main` leaves the collector alone, for in-process callers.
"""

import gc
import sys


def main():
    """Run ``optoflux.cli.main()`` on ``sys.argv`` without the cyclic
    collector; return its exit code."""
    gc.disable()
    from .cli import main as cli_main

    try:
        return cli_main()
    finally:
        gc.freeze()


if __name__ == "__main__":
    sys.exit(main())
