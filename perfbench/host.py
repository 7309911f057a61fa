"""Host facts recorded with every result, and the peak-RSS reading behind
``mem_mb``. Linux only: both read ``/proc``."""

from __future__ import annotations

import os
import platform


def fingerprint() -> dict:
    """nproc, CPU model and the Python / NumPy / OpenBLAS versions."""
    import numpy as np

    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = ""
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name', '')} {deps.get('version', '')}".strip()
    except (TypeError, KeyError, AttributeError):
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", ""),
    }


def _peak_kib(pid: int) -> int:
    """The kernel's high-water mark of ``pid``'s resident set (VmHWM)."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except (OSError, ValueError):
        pass
    return 0


def _children(pid: int) -> list[int]:
    kids: list[int] = []
    try:
        tids = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return kids
    for tid in tids:
        try:
            with open(f"/proc/{pid}/task/{tid}/children", encoding="ascii") as fh:
                kids.extend(int(k) for k in fh.read().split())
        except (OSError, ValueError):
            continue
    return kids


def tree_peak_rss_mib() -> tuple[float, int]:
    """Summed peak RSS of this process and all its live descendants, and
    how many processes that is.

    The kernel tracks each peak exactly, so this does not depend on when a
    sampler happens to look; read it at the end of the timed phase, whose
    work repeats and outgrows the warm-up's.
    """
    total = 0
    seen: set[int] = set()
    todo = [os.getpid()]
    while todo:
        pid = todo.pop()
        if pid in seen:
            continue
        seen.add(pid)
        total += _peak_kib(pid)
        todo.extend(_children(pid))
    return total / 1024.0, len(seen)
