"""Machine and version stamp attached to every benchmark result."""

from __future__ import annotations

import os
import platform
import subprocess
import sys

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git(repo: str):
    """(commit, dirty) when the checkout is a git work tree, else (None, None)."""
    if not os.path.isdir(os.path.join(repo, ".git")):
        return None, None
    try:
        head = subprocess.run(["git", "-C", repo, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        status = subprocess.run(["git", "-C", repo, "status", "--porcelain"],
                                capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None, None
    if head.returncode != 0 or status.returncode != 0:
        return None, None
    return head.stdout.strip(), bool(status.stdout.strip())


def collect(repo: str, workload: str, seed: int) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas[k] for k in ("name", "version", "openblas configuration")
                if k in blas}
    except (TypeError, KeyError):  # NumPy < 1.25 has no dict mode
        blas = None
    commit, dirty = _git(repo)
    return {
        "workload": workload,
        "seed": seed,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu": _cpu_model(),
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "git_commit": commit,
        "git_dirty": dirty,
    }
