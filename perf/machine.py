"""What the sandbox looks like while we measure: ``/proc`` CPU and RSS
readers, a fixed calibration kernel, and the machine fingerprint.

The calibration kernel is timed before and after every workload; a
workload whose calibration moves by more than :data:`DISTURBED_DRIFT`
within its own run is marked *disturbed*, and ``--compare`` reports its
rows as unresolved instead of pass/fail.
"""

from __future__ import annotations

import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, Iterable

#: Calibration drift (|after/before - 1|) beyond which a workload's
#: numbers cannot be told apart from a noisy neighbour.
DISTURBED_DRIFT = 0.15

_CLK_TCK = os.sysconf("SC_CLK_TCK")


def cpu_seconds(pid: int) -> float:
    """utime + stime of one live process, 0.0 once it is gone."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return 0.0
    # The command name may contain spaces; fields resume after ")".
    fields = stat.rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _CLK_TCK


def peak_rss_mb(pid: int) -> float:
    """``VmHWM`` (peak resident set) of one live process in MiB."""
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def cpu_by_pid(pids: Iterable[int]) -> Dict[int, float]:
    return {pid: cpu_seconds(pid) for pid in pids}


def cpu_since(before: Dict[int, float]) -> Dict[int, float]:
    """CPU seconds each process of ``before`` has burned since."""
    return {pid: cpu_seconds(pid) - start for pid, start in before.items()}


def _calibration_kernel() -> None:
    total = 0
    for i in range(150_000):
        total += (i * i) % 7
    import numpy as np

    values = np.arange(200_000, dtype=np.int64)
    np.sort((values * 2654435761) % 1_000_003)


def calibrate_ms(repeats: int = 15) -> float:
    """Median milliseconds of a fixed pure-Python + NumPy kernel."""
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        _calibration_kernel()
        samples.append((time.perf_counter() - start) * 1000.0)
    return statistics.median(samples)


def _git_rev(root: Path) -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=root, capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() or "unknown"


def fingerprint(root: Path) -> Dict[str, object]:
    """Enough about the machine to tell two result files apart."""
    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "missing"
    try:
        load = list(os.getloadavg())
    except OSError:
        load = []
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": sys.version.split()[0],
        "numpy": numpy_version,
        "platform": platform.platform(),
        "loadavg": load,
        "git_rev": _git_rev(root),
    }
