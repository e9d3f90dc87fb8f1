"""Helpers shared by the benchmark modules.

Percentiles follow one rule: a stated percentile needs at least ten
samples beyond it (:func:`highest_percentile` says which percentile a
sample count supports).  Digests hash floats by their exact bits.
"""

from __future__ import annotations

import hashlib
import math
import os
import platform
import statistics
import subprocess
from pathlib import Path

#: Percentiles a report may state, highest first.
PERCENTILES = (99.9, 99.0, 95.0, 90.0, 50.0)
#: A stated percentile needs at least this many samples beyond it.
MIN_BEYOND = 10


def _rank(n: int, q: float) -> int:
    """1-based nearest rank; rounding first keeps 99.9% of 10000 at 9990."""
    return max(1, math.ceil(round(q / 100.0 * n, 9)))


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile of an ascending list."""
    if not sorted_values:
        raise ValueError("percentile of no samples")
    return sorted_values[_rank(len(sorted_values), q) - 1]


def samples_beyond(n: int, q: float) -> int:
    """Samples strictly beyond the nearest-rank ``q``-th of ``n``."""
    return n - _rank(n, q) if n else 0


def highest_percentile(n: int) -> float | None:
    """The highest of :data:`PERCENTILES` that ``n`` samples support."""
    for q in PERCENTILES:
        if samples_beyond(n, q) >= MIN_BEYOND:
            return q
    return None


def median(values) -> float:
    """Median of a non-empty sample; an empty one is an error, not 0."""
    values = list(values)
    if not values:
        raise ValueError("median of no samples")
    return statistics.median(values)


def float_digest(items) -> str:
    """sha256 over ``key=<float bits>`` lines in key order."""
    digest = hashlib.sha256()
    for key, value in sorted(items):
        digest.update(f"{key}={float(value).hex()}\n".encode())
    return digest.hexdigest()


def same_bits(served, expected) -> bool:
    """Bit-for-bit float equality (None only matches None)."""
    if served is None or expected is None:
        return served is expected
    return float(served).hex() == float(expected).hex()


def bench_env(root: Path, work: Path) -> dict[str, str]:
    """Environment of every process the benchmark starts.

    The shared-memory plane and temporary files are redirected into the
    run's work directory, so nothing is written outside the checkout.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env["REPRO_SHM_DIR"] = str(work / "shm")
    env["TMPDIR"] = str(work / "tmp")
    return env


def _git_commit(root: Path) -> str | None:
    """HEAD of ``root`` when it is a git checkout, else None."""
    try:
        done = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def environment(root: Path, seed: int) -> dict:
    """The header printed with every result."""
    import numpy

    model = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    try:
        affinity = sorted(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        affinity = None
    return {
        "nproc": os.cpu_count(),
        "affinity": affinity,
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": _git_commit(root),
        "seed": seed,
        "loadavg_before": [round(x, 2) for x in os.getloadavg()],
    }
