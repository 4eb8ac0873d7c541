"""Machine-speed probe behind the benchmark's speed-corrected timings.

The benchmark runs on shared hosts whose speed drifts: on a shared 2-CPU
Linux host, the same single-threaded work took 20% longer in some minutes
than in others, and the drift moved every timing of a run together.
``probe()`` runs a fixed mix of interpreter and NumPy work that does not
touch horoflow. It runs before each operation, and every timing of a pass
is reported at the reference speed:

    corrected = measured * REFERENCE_S / median(probe times of that pass)

so a timing reads as it would on a host where one probe takes REFERENCE_S.
The probe runs with the garbage collector paused. Its object churn would
otherwise trigger collections that scan the whole heap of the process it
runs in, and the warm-session process holds horoflow's balls, so a change to
how a ball is stored would rescale every timing. Its objects die by
reference counting when it returns, so pausing leaves no garbage behind.

The probe runs next to the work it corrects. The warm session runs it in
process, where its timed library calls run: in five paired runs, probes
pinged in a helper process let one run's profile latency read 30% above the
median, while in-process probes kept all five within 3% of it. The CLI
workloads time freshly spawned processes, and ``Prober`` runs the probe in
a helper process for them: over seven minutes of cold schottky ``classify``
calls, pass-sized windows spread 0.068 raw, 0.038 corrected by a helper's
probes and 0.051 by in-process probes. Run as a script, this file is that
helper; it answers each line on stdin with one probe time.
"""

from __future__ import annotations

import gc
import statistics
import subprocess
import sys
import time

import numpy as np

REFERENCE_S = 0.025     # probe time on the reference host (about its median there)


def probe() -> float:
    """Object churn and hashing like ball enumeration, then NumPy kernels."""
    gc_on = gc.isenabled()
    gc.disable()
    try:
        t = time.perf_counter()
        seen, kept = set(), []
        for i in range(30_000):
            key = (i, 7 * i, 13 * i, -i)
            if key not in seen:
                seen.add(key)
                kept.append((key, float(i)))
        a = np.arange(300_000, dtype=float)
        for _ in range(6):
            a = np.sqrt(a * 1.0001 + 1.0)
        return time.perf_counter() - t
    finally:
        if gc_on:
            gc.enable()


def factor(samples) -> float:
    """Multiplier taking timings made alongside these probes to the reference speed."""
    return REFERENCE_S / statistics.median(samples)


class Prober:
    """The helper process; ``probe()`` pings it and returns its probe time.
    Use as a context manager, so the helper is always stopped and waited on."""

    def __init__(self):
        self._proc = subprocess.Popen([sys.executable, __file__], stdin=subprocess.PIPE,
                                      stdout=subprocess.PIPE, text=True)
        self.probe()  # the first probe of a process warms its caches

    def probe(self) -> float:
        self._proc.stdin.write("\n")
        self._proc.stdin.flush()
        return float(self._proc.stdout.readline())

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._proc.stdin.close()
        self._proc.wait()
        self._proc.stdout.close()


if __name__ == "__main__":
    for _ in sys.stdin:
        print(repr(probe()), flush=True)
