"""Set up one workload in a fresh interpreter and print when it was ready.

Run as ``python3 perfbench/setup_probe.py WORKLOAD SEED``.  Prints the
``time.monotonic()`` reading (a clock shared by every process on the
machine) taken once the imports, registry resolution and ``RunSpec`` are
done; the caller subtracts the reading it took before starting this
interpreter, which gives ``setup_s``.
"""

import sys
import time

from workloads import prepare

if __name__ == "__main__":
    prepare(sys.argv[1], int(sys.argv[2]))
    print(repr(time.monotonic()))
