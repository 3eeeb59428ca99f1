"""Machine record written next to every benchmark result.

Two results are comparable only when they ran the same kernel path on the
same BLAS threading, so the record names the CPU, the library versions, the
OpenBLAS thread counts in effect and the environment switches that change
which code runs.
"""

import ctypes
import glob
import os
import platform

import numpy as np
import scipy

# Environment variables that change the code path or the BLAS threading.
PATH_SWITCHES = ("SURRLOSS_NO_NUMBA", "SURRLOSS_THREADS", "OPENBLAS_NUM_THREADS",
                 "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _openblas(package_file, libs_dir):
    """Version string and thread count of the OpenBLAS a wheel bundles."""
    site = os.path.dirname(os.path.dirname(package_file))
    pattern = os.path.join(site, libs_dir, "*openblas*.so*")
    for path in sorted(glob.glob(pattern)):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for suffix in ("64_", ""):
            get_config = getattr(lib, f"scipy_openblas_get_config{suffix}", None)
            get_threads = getattr(lib, f"scipy_openblas_get_num_threads{suffix}", None)
            if get_config is None or get_threads is None:
                continue
            get_config.restype = ctypes.c_char_p
            get_threads.restype = ctypes.c_int
            return {"library": os.path.basename(path),
                    "config": get_config().decode(errors="replace"),
                    "threads": int(get_threads())}
    return {"library": None, "config": "unknown", "threads": None}


def record():
    import scipy.linalg  # noqa: F401  -- loads SciPy's own OpenBLAS

    from surrloss import accel

    numpy_blas = _openblas(np.__file__, "numpy.libs")
    scipy_blas = _openblas(scipy.__file__, "scipy.libs")
    switches = {k: os.environ[k] for k in PATH_SWITCHES if k in os.environ}
    return {
        "cpu_model": _cpu_model(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_openblas": numpy_blas,
        "scipy_openblas": scipy_blas,
        "blas_threads": numpy_blas["threads"],
        "use_numba": bool(accel.USE_NUMBA),
        "env_switches": switches,
        # Set when the kernel path was forced; compare only runs that agree.
        "path_flagged": any(k.startswith("SURRLOSS_") for k in switches),
    }
