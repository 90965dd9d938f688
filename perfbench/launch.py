"""Run one command and write its exit code, wall time, CPU time and peak RSS.

    python3 perfbench/launch.py REPORT PROGRAM [ARG ...]

run.py starts every measured command through this small process.  On Linux
a child's ``ru_maxrss`` starts from the RSS of the process that spawned it,
and run.py itself is about as large as the commands it measures; spawned
from here, a command's peak RSS is its own.  The report is one line:
``exit_code wall_s cpu_s maxrss_kib``.
"""

import os
import sys
import time


def main():
    report, argv = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, os.environ)
    _, status, ru = os.wait4(pid, 0)
    wall = time.perf_counter() - t0
    with open(report, "w", encoding="ascii") as fh:
        fh.write(f"{os.waitstatus_to_exitcode(status)} {wall!r} {ru.ru_utime + ru.ru_stime!r} {ru.ru_maxrss}\n")


if __name__ == "__main__":
    main()
