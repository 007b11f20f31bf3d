"""Machine-speed probe: a fixed numpy and Python kernel that does not touch
removal_lab.

    python3 perfbench/reference.py

For every line read on stdin it runs the kernel twice and answers with one
JSON list on stdout: the seconds each of the four parts took in the second
run.  The first run is not timed: it brings the kernel's own data back into
the caches after whatever ran before it, so the timed run measures the
machine's speed at that moment and not the job that just ended.  runner.py
keeps one such process and asks it before every job, so that run.py can scale
the run's times to a reference machine speed.  The kernel
runs in its own process so that its memory does not count toward the job
runner's peak RSS.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter

import numpy as np


class Kernel:
    """Four parts that do the kinds of work the program does: integer
    arithmetic with an encode and a gather (as in solution enumeration),
    batched small FFTs (as in coset norms), a Python loop over small numpy
    calls (as in per-point loops), and random reads from a 16 MB table, which
    feel contention for the shared cache and memory the way the program's
    large tables do."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.digits = rng.integers(0, 5, (1 << 12, 6))
        self.powers = 5 ** np.arange(6)
        self.table = rng.integers(1, 4, 5**6)
        self.blocks = rng.random((64, 8, 8))
        self.small = np.arange(32)
        self.big = rng.integers(0, 1 << 30, 1 << 21)
        self.reads = rng.integers(0, 1 << 21, 1 << 17)

    def parts(self) -> list[float]:
        acc = 0
        digits, reads = self.digits, self.reads
        t0 = perf_counter()
        for _ in range(32):
            idx = (digits * 3 + 1) % 5 @ self.powers
            acc += int(np.count_nonzero(self.table[idx] == 2))
            digits = digits[::-1]
        t1 = perf_counter()
        for _ in range(32):
            acc += int(np.abs(np.fft.fftn(self.blocks, axes=(1, 2))).argmax())
        t2 = perf_counter()
        for i in range(6000):
            acc += int(np.bincount(self.small[i % 8 :: 8], minlength=32)[3])
        t3 = perf_counter()
        for _ in range(3):
            acc += int(self.big[reads].sum() & 1)
            reads = (reads * 5 + 1) & ((1 << 21) - 1)
        t4 = perf_counter()
        return [t1 - t0, t2 - t1, t3 - t2, t4 - t3]


if __name__ == "__main__":
    kernel = Kernel()
    for _ in sys.stdin:
        kernel.parts()
        sys.stdout.write(json.dumps(kernel.parts()) + "\n")
        sys.stdout.flush()
