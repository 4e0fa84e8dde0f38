"""The host-speed reference: run times in seconds at a fixed host speed.

The VM the benchmark was defined on changes speed by itself: a fixed piece
of work runs about 1.25 to 1.5 times slower for stretches of seconds to
minutes, and the two vCPUs change independently. A 25 s run of the program
then reads anywhere from 22 s to 29 s. To take that out, the benchmark pins
itself and the program to one CPU and, every PERIOD_S while the program
runs, times a fixed reference slice on that CPU in its own thread CPU time.
A run's time is then scaled by REF_NOMINAL_S / (mean slice time during the
run): the seconds the run would have taken at the reference speed. The
mean, not the median: the host switches between a fast and a slow speed,
the program's time follows the share of time spent at each, and so does
the mean of slices taken at even intervals.

The slice mixes what the program spends its time on: interpreted Python,
numpy element-wise passes over a 32 KB array, and a small single-threaded
matrix product. Its data is small, so the program's own cache use hardly
moves it. It takes about 4% of the CPU the program runs on.

python speed.py [SECONDS]   time slices for SECONDS (default 5) and print
                            their median and quartiles, in ms
"""

from __future__ import annotations

import os
import statistics
import sys
import time

# the parent process needs no BLAS threads; set before numpy is imported
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")

import numpy as np  # noqa: E402

# Median slice time on the defining VM (2 vCPU x86_64, Python 3.11) at its
# faster speed. It only sets the unit: both sides of a comparison use it.
REF_NOMINAL_S = 8.0e-4
PERIOD_S = 0.05          # one slice per period while the program runs

_VEC = np.linspace(0.0, 1.0, 4096)
_MAT = np.linspace(-1.0, 1.0, 48 * 48).reshape(48, 48) / 48.0


def _work() -> None:
    acc = 0
    for i in range(4500):
        acc += (i * i) % 7
    v = _VEC
    for _ in range(96):
        v = v * 0.999 + 0.001
    m = _MAT
    for _ in range(12):
        m = m @ _MAT
    if acc < 0 or not np.isfinite(v[0] + m[0, 0]):   # keep the work observable
        raise RuntimeError("reference slice went wrong")


def reference_slice() -> float:
    """Thread CPU time, in seconds, of one fixed piece of work.

    The work runs twice and the second pass is timed, so that what the
    program left in the caches and branch predictors hardly shows.
    """
    _work()
    start = time.thread_time()
    _work()
    return time.thread_time() - start


def scale(wall: float, slices: list[float]) -> float:
    """wall seconds at the measured speed, as seconds at the reference speed."""
    return wall * REF_NOMINAL_S / statistics.fmean(slices)


if __name__ == "__main__":
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    end = time.monotonic() + (float(sys.argv[1]) if len(sys.argv) > 1 else 5.0)
    times = []
    while time.monotonic() < end:
        times.append(reference_slice())
    q = statistics.quantiles(times, n=4)
    print(f"cpu {cpu}: {len(times)} slices, median {statistics.median(times) * 1e3:.4f} ms, "
          f"quartiles {q[0] * 1e3:.4f} / {q[2] * 1e3:.4f} ms")
