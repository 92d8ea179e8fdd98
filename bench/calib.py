"""Machine-speed reference for the benchmark's timings.

The benchmark runs on shared machines whose speed drifts by tens of percent
within a minute.  It times a fixed pure-Python kernel (sparse integer row
operations on dicts, the same kind of work cychom does) next to every timed
step and scales the step's wall time to a fixed reference speed:

- during a job, a `Probe` interrupts it every PROBE_INTERVAL_S seconds
  (SIGALRM) and times one small kernel; the job's time less the probes'
  time is scaled by PROBE_NOMINAL_S / (mean probe time);
- a job too short for MIN_PROBES probes, and the set-up, are scaled by
  NOMINAL_SECONDS / (mean of the `measure` runs just before and after).

The reported times are therefore seconds at a fixed reference speed: a
change to cychom moves them, a change in machine load mostly does not.  The
kernel is part of the benchmark, not of cychom, so no change to the program
can move it.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time

# Kernel times on an unloaded 2-vCPU x86-64 VM under Python 3.11.
NOMINAL_SECONDS = 0.085  # measure()
PROBE_NOMINAL_S = 0.00065  # one probe, taken inside a running job
PROBE_INTERVAL_S = 0.05
MIN_PROBES = 5

MEASURE_SIZE, PROBE_SIZE = 60, 16
_CHECKSUMS = {60: 3275, 16: 251}


def _kernel(size: int) -> int:
    rows = [dict() for _ in range(size)]
    x = 987654321
    for i in range(size):
        for _ in range(12):
            x = (x * 1103515245 + 12345) % 2147483648
            rows[i][x % size] = (x % 19) - 9
    total = 0
    for k in range(size):
        pivot_row = rows[k]
        for i in range(size):
            if i == k:
                continue
            row = rows[i]
            x = (x * 1103515245 + 12345) % 2147483648
            c = x % 7 - 3
            for j, v in pivot_row.items():
                nv = row.get(j, 0) + c * v
                if nv:
                    row[j] = nv
                else:
                    row.pop(j, None)
        total += len(pivot_row)
    if total != _CHECKSUMS[size]:
        raise RuntimeError("reference kernel returned a wrong checksum")
    return total


def measure(reps: int = 3) -> float:
    """Seconds taken by `reps` runs of the reference kernel."""
    start = time.perf_counter()
    for _ in range(reps):
        _kernel(MEASURE_SIZE)
    return time.perf_counter() - start


def scale(ref_before: float, ref_after: float) -> float:
    """Factor turning wall seconds into reference-speed seconds."""
    return NOMINAL_SECONDS / ((ref_before + ref_after) / 2)


class Probe:
    """Times a small kernel every PROBE_INTERVAL_S while a job runs.

    Use as a context manager in the main thread.  `samples` holds each
    probe's duration; their sum is time the job did not get.
    """

    def __init__(self):
        self.samples = []

    def _tick(self, signum, frame) -> None:
        collecting = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            _kernel(PROBE_SIZE)
            self.samples.append(time.perf_counter() - start)
        finally:
            if collecting:
                gc.enable()

    def __enter__(self) -> "Probe":
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


def job_seconds(job: dict) -> float:
    """Reference-speed seconds of one job record made by the worker."""
    probes = job["probes"]
    busy = job["seconds"] - sum(probes)
    if len(probes) >= MIN_PROBES:
        return busy * PROBE_NOMINAL_S / statistics.fmean(probes)
    return busy * scale(job["ref_before"], job["ref_after"])
