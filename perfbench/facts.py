"""Facts about the machine and the code that every result records."""

import os
import platform
import sys
from pathlib import Path

from workloads import THREAD_VARS  # first: it sets the BLAS thread count

import numpy as np  # noqa: E402
import scipy  # noqa: E402


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas():
    """BLAS name, version and build line as numpy reports them.

    threadpoolctl is not available, so the thread count is what the
    environment asks for (``workloads`` defaults it to 1).
    """
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.26 has no dict mode
        info = {}
    threads = {var: os.environ[var] for var in THREAD_VARS if var in os.environ}
    return {
        "name": info.get("name", "unknown"),
        "version": info.get("version", "unknown"),
        "config": info.get("openblas configuration", ""),
        "threads": threads or f"unset (one per core: {os.cpu_count()})",
    }


def git_commit(root):
    """HEAD of the checkout, read from ``.git`` itself; None outside git."""
    git = Path(root) / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def machine_facts(root, seed):
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu": _cpu_model(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas(),
        "commit": git_commit(root),
        "seed": seed,
    }
