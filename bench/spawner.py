"""Launch benchmark children from a process with a small memory footprint.

On Linux a child's ``ru_maxrss`` is at least the peak RSS of the process it
was forked from, so children forked straight from the benchmark (which
parses 20 MB outputs to check them) would all report the benchmark's own
peak.  This stdlib-only helper stays small and does the forking instead.

Protocol: one JSON request per line on stdin, ``{"argv": [...], "stderr":
path}``; the child runs to completion and one JSON line comes back,
``{"wall": s, "cpu": s, "rss_mb": MB, "code": exit code}``, with wall time
from spawn to exit.  EOF on stdin ends the helper.
"""

import json
import os
import subprocess
import sys
import time


def main():
    for line in sys.stdin:
        request = json.loads(line)
        with open(request["stderr"], "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(request["argv"], stdin=subprocess.DEVNULL,
                                    stdout=subprocess.DEVNULL, stderr=err)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        reply = {"wall": wall, "cpu": usage.ru_utime + usage.ru_stime,
                 "rss_mb": usage.ru_maxrss / 1024.0, "code": proc.returncode}
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
