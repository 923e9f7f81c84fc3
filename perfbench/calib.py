"""Reference-speed calibration kernel, run in a child process of the benchmark.

    python3 perfbench/calib.py

For each line read on stdin, runs `calibrate()` once and writes its wall
seconds as one line on stdout; exits at end of input. The kernel (small
matmuls, tanh, pooling bookkeeping and a Python loop, like rawphone's
per-frame code but independent of it) runs in its own process, with its
own interpreter, numpy and BLAS state and `OPENBLAS_NUM_THREADS` and
`OMP_NUM_THREADS` pinned to 1, so nothing the measured code does in the
benchmark process (thread limits, allocator or heap state) changes its
time; only the speed of the machine does.
"""

import sys
import time

import numpy as np

_RNG = np.random.default_rng(0)
_W = _RNG.normal(size=(30, 150)).astype(np.float32)
_X = _RNG.normal(size=(160, 150)).astype(np.float32)


def calibrate():
    """Wall seconds of the fixed calibration kernel."""
    t0 = time.perf_counter()
    for _ in range(3000):
        pooled = np.tanh(_X @ _W.T)[:159].reshape(53, 3, 30).argmax(axis=1)
        total = 0
        for v in pooled[:20, 0]:
            total += int(v)
    return time.perf_counter() - t0


if __name__ == "__main__":
    for _ in sys.stdin:
        print(repr(calibrate()), flush=True)
