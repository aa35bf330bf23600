"""Run one command and report its own wall time, CPU time and peak RSS.

    python3 -S perfbench/spawn.py /path/to/python -m zipk0.cli k0 ...

The command inherits standard output and error.  After it ends, one line

    spawn <exit code> <wall s> <user+sys CPU s> <ru_maxrss KiB>

is appended to standard error.  A child's ru_maxrss starts from the RSS of
the process that spawned it, so the benchmark starts each job from this small
process (run without `site`) rather than from itself: the reported peak is
then the job's own.
"""

import os
import sys
import time


def main() -> int:
    argv = sys.argv[1:]
    start = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, os.environ)
    _, status, usage = os.wait4(pid, 0)
    wall = time.perf_counter() - start
    code = os.waitstatus_to_exitcode(status)
    sys.stderr.write(f"\nspawn {code} {wall!r} {usage.ru_utime + usage.ru_stime!r} {usage.ru_maxrss}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
