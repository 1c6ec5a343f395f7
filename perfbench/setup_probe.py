"""Time one workload's set-up in a fresh interpreter.

Set-up is everything before the first timed operation: importing tribvp,
generating the workload's problems from the seed and loading them.  Prints
the seconds taken.  Usage: python3 perfbench/setup_probe.py WORKLOAD SEED
"""

import time

START = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402

workloads.WORKLOADS[sys.argv[1]](int(sys.argv[2]), ROOT, False)
print(time.perf_counter() - START)
