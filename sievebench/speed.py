"""How fast the shared host runs Python right now.

The host's speed wanders by tens of percent, within seconds and over
minutes, and sievelab's jobs slow down with it.  ``sample`` times a fixed
pure-Python loop; the benchmark samples it between jobs and reports each
time scaled by ``REF_S / kernel``, the median sample of the same process.
A change to sievelab moves the jobs but not the loop, so it still shows in
full, while a slow stretch of the host moves both and cancels.  ``REF_S``
is the loop's median on the machine of RECORD.md, so scaled times read
as seconds there.
"""

import time

LOOP = 40_000
REF_S = 3.5e-3


def sample() -> float:
    """Seconds one run of the fixed loop takes."""
    start = time.perf_counter()
    s = 0
    for i in range(LOOP):
        s += i * i % 7
    return time.perf_counter() - start
