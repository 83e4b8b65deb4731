"""Run one command, wait for it, and print its wall time and resource use.

    python3 -S perfbench/spawn.py PROGRAM [ARG ...]

The benchmark starts every CLI campaign through this small process.  A child
inherits the peak resident set of the address space it was started from, so
a campaign started straight from the benchmark (which holds golden records and
sympy) would report the benchmark's peak, not its own.  os.wait4 reports the
command's usage summed with that of the pool workers it joined.  The
command's stdout is discarded; stderr is passed through.
"""

import json
import os
import sys
import time

t0 = time.perf_counter()
pid = os.posix_spawn(
    sys.argv[1], sys.argv[1:], os.environ,
    file_actions=[(os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)],
)
_, status, usage = os.wait4(pid, 0)
wall = time.perf_counter() - t0
print(json.dumps({
    "wall_s": wall,
    "cpu_s": usage.ru_utime + usage.ru_stime,
    "rss_mb": usage.ru_maxrss / 1024,
    "code": os.waitstatus_to_exitcode(status),
}))
