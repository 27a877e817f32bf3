"""Run a command under a time limit and fail unless its peak RSS stays under
a bound.

    python tests/peak_rss.py LABEL MAX_MB SECONDS COMMAND...

COMMAND runs under `timeout SECONDS` and must exit 0.  Its wall time in
seconds and the peak resident set of the processes it started
(`RUSAGE_CHILDREN`) in MB are then printed, and the script exits nonzero
unless that peak is under MAX_MB.  The CI workflow runs the dense scaling
steps through it; pytest does not collect it.
"""
from __future__ import annotations

import resource
import subprocess
import sys
import time


def main(argv: list[str]) -> int | str:
    label, bound, seconds, *command = argv
    start = time.perf_counter()
    subprocess.run(["timeout", seconds, *command], check=True)
    wall = time.perf_counter() - start
    peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss // 1024
    print(f"{label}: {wall:.2f} s, peak RSS {peak} MB")
    return f"{peak} MB is not under {bound} MB" if peak >= int(bound) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
