"""Time one import of ``crcgeo`` in a fresh interpreter, at reference speed.

    python3 bench/import_probe.py SRC_DIR

Prints the seconds ``import crcgeo.cli`` took, scaled as ``harness``
scales job times, by the reference kernel timed on the same core right
after the import.  The kernel needs modules that the program imports too,
so it runs only once the import has been timed.
"""

import sys
import time

start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import crcgeo.cli  # noqa: E402,F401

seconds = time.perf_counter() - start

import harness  # noqa: E402  (this script's directory is on sys.path)

print(repr(harness.at_reference_speed(seconds, [harness.time_kernel() for _ in range(9)])))
