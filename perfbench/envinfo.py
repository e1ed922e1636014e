"""Thread pinning and the environment fingerprint attached to every record.

:func:`pin_blas_threads` must run before numpy is first imported: OpenBLAS
sizes its thread pool when it loads, and forked pool workers inherit the
loaded library.  This module therefore imports nothing numeric at the top.
"""

from __future__ import annotations

import ctypes
import os
import platform
import sys

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

#: Thread-count getters exported by the OpenBLAS builds numpy and scipy ship.
_OPENBLAS_GETTERS = (
    "scipy_openblas_get_num_threads64_",
    "scipy_openblas_get_num_threads",
    "openblas_get_num_threads64_",
    "openblas_get_num_threads",
)


def pin_blas_threads() -> dict:
    """Set every BLAS thread variable to 1; return the values found and set."""
    found = {name: os.environ.get(name) for name in THREAD_VARS}
    for name in THREAD_VARS:
        os.environ[name] = "1"
    return {"found": found, "set": {name: "1" for name in THREAD_VARS}}


def openblas_threads() -> dict[str, int]:
    """Effective thread count of each OpenBLAS loaded in this process."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as handle:
            paths = {line.split()[-1] for line in handle if "openblas" in line.lower()}
    except OSError:
        return {}
    threads = {}
    for path in sorted(paths):
        try:
            library = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in _OPENBLAS_GETTERS:
            getter = getattr(library, symbol, None)
            if getter is not None:
                getter.argtypes = []
                getter.restype = ctypes.c_int
                threads[os.path.basename(path)] = int(getter())
                break
    return threads


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def fingerprint(
    threads: dict, load_average: tuple[float, float, float], start_method: str | None
) -> dict:
    """Machine, library and thread settings a measurement depends on.

    ``start_method`` is the one the workload's worker pool used (None: the
    workload starts no pool).
    """
    import numpy
    import scipy
    import scipy.linalg  # noqa: F401  (loads scipy's own OpenBLAS)

    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "affinity_cores": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {
            "name": blas.get("name"),
            "version": blas.get("version"),
            "configuration": blas.get("openblas configuration"),
        },
        "thread_vars": threads,
        "openblas_threads": openblas_threads(),
        "pool_start_method": start_method,
        "load_average_at_start": load_average,
    }
