"""Time one fresh process's set-up for a workload; prints host seconds.

Usage (from the repository root)::

    python3 perfbench/setup_probe.py WORKLOAD SEED WORKDIR

Set-up is what a fresh process pays before the timed work: importing
the library, generating the workload's inputs from the seed, and
starting the server or coordinator.  It prints host seconds and
normalized seconds (``speed.py``; the probe runs in this process);
``run.py`` runs it a few times and reports the median normalized time
as ``setup_s``.
"""

import time

START = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from speed import SpeedProbe  # noqa: E402


def main(argv) -> int:
    name, seed, workdir = argv[0], int(argv[1]), Path(argv[2])
    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    with SpeedProbe() as probe:
        from run import WORKLOADS

        WORKLOADS[name](seed, workdir, root).probe_setup()
        end = time.perf_counter()
    host = end - START
    print(f"{host:.9f} {host * probe.factor(START, end):.9f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
