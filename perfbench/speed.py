"""Machine-speed sampler for the shared, noisy machines the benchmark runs on.

On a machine shared with other tenants the speed of one core drifts by up
to 1.6x within seconds, and a run's wall times drift with it (measured on
a 2-vCPU cloud container: the same chain verdict took 1.17 s to 2.26 s
within four minutes, with nothing else running in the container).  A small
fixed kernel drifts with it, so the benchmark reports times scaled to the
speed at which the kernel takes `REF_KERNEL_MS`:

    scaled = measured * REF_KERNEL_MS / median kernel time during the measurement

The kernel runs in a sampler process of its own, every `SAMPLE_EVERY_S`
seconds for the whole run, so its heap and caches never hold the program's
objects.  Where the machine has two CPUs or more, the measured process and
the sampler are pinned to different ones.  A measurement too short for
`MIN_SAMPLES` samples is scaled by the `MIN_SAMPLES` samples nearest to its
middle.

Measured on the machine above, over twelve back-to-back chain verdicts:
spread (IQR over median) 0.138 as measured, 0.072 scaled.  The sampler's
median kernel time was the same whether the measured process slept, ran
chain verdicts, or ran them with 300 MB of live objects (2.24, 2.19 and
2.01 ms in one such sequence, 1.90, 1.98 and 2.00 ms in the next), so the
scale does not follow the program's own state.

    python3 perfbench/speed.py OUT      # the sampler: one "start seconds" line per kernel run
"""

from __future__ import annotations

import bisect
import gc
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

REF_KERNEL_MS = 1.6  # a fixed reference; only ratios between runs matter
SAMPLE_EVERY_S = 0.02
MIN_SAMPLES = 4


def kernel() -> int:
    """Fixed work shaped like the program's own: small tuples, strings and
    frozensets, a dict over them and a sort with a key function."""
    items = [(i, str(i), frozenset((i, i + 1))) for i in range(2_000)]
    by_name = {item[1]: item for item in items}
    return len(sorted(by_name, key=lambda s: s[::-1]))


def _sample_forever(out: Path) -> None:
    gc.disable()
    with open(out, "w", encoding="utf-8", buffering=1) as fh:
        while True:
            t0 = time.perf_counter()
            kernel()
            fh.write(f"{t0:.9f} {time.perf_counter() - t0:.9f}\n")
            time.sleep(SAMPLE_EVERY_S)


class Sampler:
    """Runs the kernel in a process of its own from `start` to `stop`, then
    scales any interval of that time (`time.perf_counter` is the same
    clock in every process of the machine)."""

    def __init__(self, out: Path):
        self.out = out
        self.proc = None
        self.times: list[float] = []
        self.kernels: list[float] = []

    def start(self) -> None:
        self.out.unlink(missing_ok=True)
        self.proc = subprocess.Popen([sys.executable, __file__, str(self.out)])
        cpus = sorted(os.sched_getaffinity(0))
        if len(cpus) >= 2:
            os.sched_setaffinity(0, cpus[:1])
            os.sched_setaffinity(self.proc.pid, cpus[1:2])
        deadline = time.monotonic() + 30
        while not (self.out.exists() and self.out.stat().st_size):
            if self.proc.poll() is not None or time.monotonic() > deadline:
                self.stop()
                raise RuntimeError("the speed sampler did not start")
            time.sleep(0.01)

    def stop(self) -> None:
        if self.proc is None:
            return
        self.proc.terminate()
        self.proc.wait()
        self.proc = None
        for line in self.out.read_text(encoding="utf-8").splitlines():
            parts = line.split()
            if len(parts) == 2:  # the last line may be cut short
                self.times.append(float(parts[0]))
                self.kernels.append(float(parts[1]))

    def scale(self, t0: float, t1: float) -> float:
        """REF_KERNEL_MS over the median kernel time during [t0, t1]."""
        lo = bisect.bisect_left(self.times, t0)
        hi = bisect.bisect_right(self.times, t1)
        if hi - lo < MIN_SAMPLES:
            mid = bisect.bisect_left(self.times, (t0 + t1) / 2)
            lo = max(0, min(mid - MIN_SAMPLES // 2, len(self.times) - MIN_SAMPLES))
            hi = lo + MIN_SAMPLES
        if hi > len(self.times):
            raise RuntimeError("too few speed samples")
        return REF_KERNEL_MS / 1000 / statistics.median(self.kernels[lo:hi])


if __name__ == "__main__":
    _sample_forever(Path(sys.argv[1]))
