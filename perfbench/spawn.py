"""Run one command; print its wall time, peak RSS and exit code as JSON.

Usage::

    python3 perfbench/spawn.py STDERR_FILE COMMAND [ARG ...]

The benchmark starts every timed child through this small process.  On
``exec`` Linux records the resident-set high-water mark of the address
space the child was forked from as the child's own ``ru_maxrss``, so a
child forked straight from the benchmark, which holds the inputs and
results, would report the benchmark's memory as its peak.  Forked from
this process, it reports its own.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time

TIMEOUT_S = 120


def main() -> int:
    stderr_path, argv = sys.argv[1], sys.argv[2:]
    with open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err)
        timer = threading.Timer(TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    print(json.dumps({"wall_s": wall, "maxrss_kib": usage.ru_maxrss, "code": proc.returncode}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
