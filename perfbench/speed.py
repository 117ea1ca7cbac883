"""Host-speed probe that runs beside the measured run phase, on the same vCPU.

On a shared host the vCPU's speed changes from second to second, and slow
stretches can last minutes. On the 2-vCPU KVM host this benchmark was built
on, one bound run took anywhere from 11 to 20 s. A fixed unit of pure-Python
probe work (float math, string formatting, a list join) slows down in step
with the program. Its thread CPU time, sampled every `PERIOD_S` beside the
run, correlated with run time at 0.95 on the tradeoff and bound workloads
(10 to 14 runs each). An integer-only loop tracked worse (0.87 to 0.92).

`time / slowdown`, where slowdown is the mean probe time over
REFERENCE_PROBE_NS, is therefore the time at a fixed reference speed.
REFERENCE_PROBE_NS is roughly the probe's time on that host in a fast
stretch. It is a unit, so two commits compare alike on one host.
Memory-bound runs slow down less than the probe does, so the correction is
too large there. Its spread stays close to that of the raw time. The probe
is pure Python, so starting it before the timed import does not import
numpy early.
"""

from __future__ import annotations

import math
import os
import statistics
import threading
import time

REFERENCE_PROBE_NS = 220_000
PERIOD_S = 0.025


def pin_to_one_cpu() -> None:
    """Keep this process and its later threads on one vCPU, so the probe
    thread measures the vCPU the run phase runs on."""
    allowed = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {allowed[0]})


def _probe_work() -> int:
    cells = [f"{math.log2(i * 0.5 + 1.0):.12g}" for i in range(400)]
    return len(",".join(cells))


class SpeedProbe:
    """Samples the probe's thread CPU time every PERIOD_S until stopped."""

    def __init__(self):
        self.samples_ns = []
        self.thread_cpu_s = 0.0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def _loop(self) -> None:
        while not self._stop.is_set():
            start = time.thread_time_ns()
            _probe_work()
            self.samples_ns.append(time.thread_time_ns() - start)
            self._stop.wait(PERIOD_S)
        self.thread_cpu_s = time.thread_time()

    def __enter__(self) -> "SpeedProbe":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def slowdown(self) -> float:
        """Mean probe time over the reference: > 1 on a slow stretch."""
        return statistics.fmean(self.samples_ns) / REFERENCE_PROBE_NS
