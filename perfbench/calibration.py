"""Host speed, measured with a fixed kernel around every timed run.

The machines this benchmark runs on are shared virtual machines whose CPU
speed moves by up to 1.6x, per vCPU, over seconds to minutes.  A wall time
alone cannot tell a slower program from a slower host, so every timed run is
bracketed by :func:`host_seconds`: the time of a fixed kernel that uses no
``repro`` code (a Python dict/loop part and a small-matrix numpy part, like
the workloads' own mix).  The harness reports each timing scaled to the
reference speed, ``raw * REFERENCE_S / host``, and keeps the raw timing and
the kernel times in the record.  A change to the program moves the scaled
timing as much as the raw one; a change in host speed moves the kernel too
and cancels.
"""

from __future__ import annotations

import os
import statistics
import time

import numpy as np

#: Kernel time (s) that defines the reference speed.  A scaled timing is
#: the time the run would have taken on a host where one kernel call takes
#: this long (about the fast phase of a 2-vCPU Intel Xeon VM).
REFERENCE_S = 0.002
#: Kernel calls per CPU; their median is that CPU's speed.
CALLS_PER_CPU = 5

_MATRIX = np.random.default_rng(0).standard_normal((32, 32))
_VECTOR = np.random.default_rng(1).standard_normal(256) + 0j


def kernel() -> float:
    """Seconds of one call of the fixed calibration kernel."""
    start = time.perf_counter()
    table = {}
    for key in range(6000):
        table[key] = (key * 7) % 13
    total = 0
    for value in table.values():
        total += value
    for _ in range(150):
        _MATRIX @ _MATRIX
        _VECTOR * _VECTOR.conj()
        np.abs(_VECTOR).sum()
    return time.perf_counter() - start


def host_seconds() -> float:
    """Kernel time on this host now: the mean over the CPUs the process may use.

    The kernel runs pinned to each CPU in turn, because the vCPUs change
    speed independently and a run uses them all (the service's pool) or
    migrates between them.  The caller's affinity is restored afterwards.
    """
    allowed = os.sched_getaffinity(0)
    per_cpu = []
    try:
        for cpu in sorted(allowed):
            os.sched_setaffinity(0, {cpu})
            per_cpu.append(statistics.median(kernel() for _ in range(CALLS_PER_CPU)))
    finally:
        os.sched_setaffinity(0, allowed)
    return statistics.fmean(per_cpu)
