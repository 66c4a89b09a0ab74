"""Time one fresh process importing fujitacert and warming per-level caches.

usage: python3 bench/probe_setup.py SRC_DIR [LEVEL ...]

Prints two numbers: the seconds from before the import until every listed
cyclotomic level has been touched once (which fills its per-level caches),
and the same scaled to the reference host by the calibration kernel timed
just before and just after (calibrate.py).
"""

from time import perf_counter

from calibrate import kernel_seconds, scale

k0 = kernel_seconds()
t0 = perf_counter()

import sys  # noqa: E402

sys.path.insert(0, sys.argv[1])

import fujitacert  # noqa: E402

for level in sys.argv[2:]:
    fujitacert.zeta(int(level))
raw = perf_counter() - t0
print(raw, raw * scale([k0, kernel_seconds()]))
