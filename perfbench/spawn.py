"""Child launcher for run.py.

run.py starts this once, as `python3 -I -S spawn.py LIMIT_S`, and sends
one request per line on stdin: tab-separated stdout path, stderr path and
argv. For each it starts the child, waits for it, and answers with one
line: wall seconds, exit code, max RSS in KiB.

The point is the small address space. A child's max RSS includes the
pages it shared with its parent before exec, so children of the benchmark
process itself (~20 MiB) could never read lower than that; this launcher
holds ~9 MiB, below the smallest ccs_solve run. A child running longer
than LIMIT_S seconds is killed.
"""

import os
import signal
import sys
import time


def main():
    limit = float(sys.argv[1])
    child = 0

    def kill(_signum, _frame):
        try:
            os.kill(child, signal.SIGKILL)
        except ProcessLookupError:
            pass

    signal.signal(signal.SIGALRM, kill)
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    for line in sys.stdin:
        out, err, *argv = line.rstrip("\n").split("\t")
        files = [(os.POSIX_SPAWN_OPEN, 1, out, flags, 0o644), (os.POSIX_SPAWN_OPEN, 2, err, flags, 0o644)]
        t0 = time.perf_counter()
        child = os.posix_spawn(argv[0], argv, os.environ, file_actions=files)
        signal.setitimer(signal.ITIMER_REAL, limit)
        _, status, ru = os.wait4(child, 0)
        wall = time.perf_counter() - t0
        signal.setitimer(signal.ITIMER_REAL, 0)
        print(wall, os.waitstatus_to_exitcode(status), ru.ru_maxrss, flush=True)


main()
