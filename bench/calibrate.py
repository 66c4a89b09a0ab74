"""The calibration kernel that scales timings to a reference host speed.

The speed of a shared host moves by 10-50% between runs and within them,
in phases of a few seconds, which would swamp the bounds.  So a fixed
kernel (big-integer arithmetic and dict inserts, like the library's inner
loops) is timed during and around everything measured, which is scaled by
KERNEL_REF_S over the kernel's mean time: timings are seconds on a host
where the kernel takes KERNEL_REF_S (its typical time on the 2-vCPU host
the benchmark was defined on).

This module imports nothing the library imports, so that the set-up probe
can load it before it times the library's import.
"""

from time import perf_counter

KERNEL_ROUNDS = 3000
KERNEL_REF_S = 0.0013  # seconds for KERNEL_ROUNDS rounds


def kernel(rounds: int = KERNEL_ROUNDS) -> int:
    table = {}
    x = 1
    for i in range(rounds):
        x = (x * 6364136223846793005 + 1442695040888963407) % (1 << 127)
        table[x] = i
    return len(table)


def kernel_seconds() -> float:
    """Median of three timings of the calibration kernel."""
    times = []
    for _ in range(3):
        t0 = perf_counter()
        kernel()
        times.append(perf_counter() - t0)
    return sorted(times)[1]


def scale(kernel_times: list[float]) -> float:
    """Factor for a timing around which the kernel took kernel_times."""
    return KERNEL_REF_S * len(kernel_times) / sum(kernel_times)
