"""One set-up sample: a fresh interpreter imports conetube and builds fixtures.

    python3 bench/setup_probe.py <workload> <seed>

prints two numbers: the seconds taken to import conetube and build the
workload's fixtures, and before that, the seconds numpy's import took.
numpy, which conetube needs, is imported first and timed on its own,
so that ``setup_s`` holds only what the program itself does.
"""

import time

T0 = time.perf_counter()

import numpy  # noqa: E402, F401

T1 = time.perf_counter()

import sys  # noqa: E402

import workloads  # noqa: E402

workloads.import_program()
workloads.fixtures(sys.argv[1], int(sys.argv[2]))
print(repr(time.perf_counter() - T1), repr(T1 - T0))
