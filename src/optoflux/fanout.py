"""Independent work cut into contiguous ranges, run by forked processes.

The user of this module, the output writer, has rows to format that do not
depend on each other.  :func:`cut` splits them into one contiguous range per
usable CPU, the caller does the first range itself, and :func:`forked` has a
child do each of the others into a file opened for it, to be read back in
order.  The caller joins the results as if it had done every range, so the
output does not depend on how many ranges there are.  A cut of one range
forks nothing and opens no file, and loads neither ``signal`` nor
``tempfile``.

Standard library only.  A fork copies only the calling thread: on Python
>= 3.12 a fork while numpy's BLAS threads exist raises a DeprecationWarning.
"""

from __future__ import annotations

import contextlib
import os
import sys


def cut(items, cost, minimum):
    """Bounds ``[0, ..., items]`` of contiguous ranges of ``items`` items.

    There is one range per usable CPU, but no more ranges than items, nor
    more than leave each range ``minimum`` of the total ``cost``; there is
    always at least one, and only one where the platform cannot fork or
    tell the usable CPUs.
    """
    n = 1
    if hasattr(os, "fork") and hasattr(os, "sched_getaffinity"):
        n = max(1, min(len(os.sched_getaffinity(0)), items, cost // minimum))
    return [items * k // n for k in range(n + 1)]


def _fork(work, lo, hi, part, what, children):
    """Fork a child that runs ``work(lo, hi, part)``; append
    ``(pid, lo, hi, part)`` to ``children``.

    The child leaves only by os._exit, 0 once ``part`` is flushed and 1
    after printing its error, so nothing of the caller's stack (finally
    blocks, exception handlers, atexit hooks) runs in it.  SIGINT and
    SIGTERM stay blocked from before the fork until the child is inside the
    try that ends in os._exit, so that a signal cannot unwind a child into
    the caller either, and in the caller until the pid is recorded, so that
    a signal cannot lose the child before it is reaped.
    """
    import signal  # here, not at the top: only a split needs it

    mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT, signal.SIGTERM})
    try:
        pid = os.fork()
        if pid == 0:
            status = 1
            try:
                signal.pthread_sigmask(signal.SIG_SETMASK, mask)
                work(lo, hi, part)
                part.flush()
                status = 0
            except BaseException as exc:
                print(f"optoflux: {what} {lo}-{hi}: {type(exc).__name__}: {exc}",
                      file=sys.stderr)
                sys.stderr.flush()
            finally:
                os._exit(status)
        children.append((pid, lo, hi, part))
    finally:
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)


@contextlib.contextmanager
def forked(bounds, work, what, directory):
    """Run ``work(lo, hi, part)`` for every range after the first of
    ``bounds`` (see :func:`cut`), each in a forked child of its own.

    ``part`` is a binary file opened here, before the fork, in
    ``directory``; it has no name, so it vanishes once closed, even if this
    process is killed.
    Yields an iterator over the parts in range order: each is rewound and
    handed over once its child has exited with status 0, and a child that
    failed raises OSError naming ``what``, its range and its exit status.
    On every exit path, each child is reaped (killed first if it still
    runs) and every part closed.
    """
    files, children = [], []  # children: (pid, lo, hi, part)
    reaped = 0

    def parts():
        nonlocal reaped
        for pid, lo, hi, part in children:
            _, status = os.waitpid(pid, 0)
            reaped += 1
            if status:
                raise OSError(f"{what} {lo}-{hi} failed "
                              f"(exit status {os.waitstatus_to_exitcode(status)})")
            part.seek(0)
            yield part

    try:
        # a child inherits unflushed output and would write it again
        sys.stdout.flush()
        sys.stderr.flush()
        for lo, hi in zip(bounds[1:-1], bounds[2:]):
            import tempfile  # here, not at the top: only a split opens parts

            files.append(tempfile.TemporaryFile(dir=directory))
            _fork(work, lo, hi, files[-1], what, children)
        yield parts()
    finally:
        for pid, _, _, _ in children[reaped:]:
            from signal import SIGKILL  # loaded by _fork

            with contextlib.suppress(OSError):
                os.kill(pid, SIGKILL)
                os.waitpid(pid, 0)
        for part in files:
            part.close()
