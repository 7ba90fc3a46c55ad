"""Run environment: CPU count, library versions, BLAS threads, host steal.

Nothing here imports numpy, so ``blas_env`` can run before numpy loads its
BLAS library and the thread count takes effect.
"""

from __future__ import annotations

import ctypes
import os
import platform

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def set_blas_threads() -> int:
    """Pin every BLAS thread-count variable to ``nproc``; call before numpy."""
    n = nproc()
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(n)
    return n


def cpu_jiffies() -> tuple[int, int]:
    """(steal, total) jiffies summed over all CPUs of the host."""
    with open("/proc/stat", encoding="ascii") as fh:
        fields = [int(v) for v in fh.readline().split()[1:]]
    # user nice system idle iowait irq softirq steal [guest guest_nice];
    # guest time is already counted in user and nice
    return fields[7], sum(fields[:8])


def steal(start: tuple[int, int], end: tuple[int, int]) -> dict:
    d_steal, d_total = end[0] - start[0], end[1] - start[1]
    return {"steal_s": d_steal / os.sysconf("SC_CLK_TCK"),
            "steal_share": d_steal / d_total if d_total else 0.0}


def _openblas_libraries() -> list[str]:
    with open("/proc/self/maps", encoding="utf-8") as fh:
        paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    return sorted(p for p in paths if p.startswith("/"))


def _openblas_call(lib, names, restype):
    for name in names:
        fn = getattr(lib, name, None)
        if fn is not None:
            fn.restype = restype
            return fn()
    return None


def describe(blas_threads_set: int) -> dict:
    """Versions and BLAS state of this process; call after the imports."""
    import numpy
    import scipy

    blas = []
    for path in _openblas_libraries():
        lib = ctypes.CDLL(path)
        config = _openblas_call(lib, ("scipy_openblas_get_config64_",
                                      "scipy_openblas_get_config",
                                      "openblas_get_config64_",
                                      "openblas_get_config"), ctypes.c_char_p)
        threads = _openblas_call(lib, ("scipy_openblas_get_num_threads64_",
                                       "scipy_openblas_get_num_threads",
                                       "openblas_get_num_threads64_",
                                       "openblas_get_num_threads"),
                                 ctypes.c_int)
        blas.append({"library": os.path.basename(path),
                     "config": config.decode() if config else None,
                     "threads": threads})
    return {"nproc": nproc(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas_threads_set": blas_threads_set, "openblas": blas,
            "machine": platform.machine()}
