"""Environment record attached to every benchmark result."""

from __future__ import annotations

import ctypes
import os
import platform
import sys


def cpu_count() -> int:
    return len(os.sched_getaffinity(0))


def pin_blas_threads():
    """Run OpenBLAS on one thread, here and in every child process.

    Must run before numpy is imported. On a shared 2-CPU machine a second
    OpenBLAS thread made the trajectory workload 18% slower and its timings
    two to five times as variable from run to run, so they would follow the
    machine's load rather than glme's work.
    """
    os.environ["OPENBLAS_NUM_THREADS"] = "1"


def _openblas_libraries() -> list[dict]:
    """Config string and live thread count of every OpenBLAS mapped into this process."""
    paths = set()
    with open("/proc/self/maps") as handle:
        for line in handle:
            path = line.split()[-1]
            if "openblas" in os.path.basename(path) and ".so" in path:
                paths.add(path)
    out = []
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        entry = {"library": os.path.basename(path)}
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if threads is None or config is None:
                    continue
                threads.argtypes, threads.restype = [], ctypes.c_int
                config.argtypes, config.restype = [], ctypes.c_char_p
                entry.update(threads=threads(), config=config().decode())
                break
            if "threads" in entry:
                break
        out.append(entry)
    return out


def record(seed: int) -> dict:
    import numpy
    import scipy

    def blas_version(module):
        deps = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{deps.get('name')} {deps.get('version')}"

    blas = _openblas_libraries()
    nproc = cpu_count()
    return {
        "seed": seed,
        "cpu_count": nproc,
        "os_cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas_version(numpy),
        "scipy_blas": blas_version(scipy),
        "openblas": blas,
        "openblas_threads_within_cpus": all(e.get("threads", 0) <= nproc for e in blas),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }
