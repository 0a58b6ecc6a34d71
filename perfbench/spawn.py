"""Run one command; print its wall time, peak RSS and exit code as JSON.

Usage: python3 perfbench/spawn.py STDOUT_FILE STDERR_FILE COMMAND...

On Linux a child's peak RSS (``wait4``) also counts the memory of the process
that spawned it, as it stood at exec. So the benchmark, which holds a loaded
corpus, does not spawn the measured command itself: this small process does.
"""

import json
import os
import subprocess
import sys
from time import perf_counter


def main() -> int:
    out_path, err_path, *command = sys.argv[1:]
    with open(out_path, "w") as out, open(err_path, "w") as err:
        start = perf_counter()
        proc = subprocess.Popen(command, stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = perf_counter() - start
    print(json.dumps({"wall_s": wall, "peak_rss_mb": usage.ru_maxrss / 1024.0,
                      "code": os.waitstatus_to_exitcode(status)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
