"""Paths, summary statistics and the host record shared by the bench files.

Nothing here imports ``repro``: the runner must be able to report a
missing source tree as an error instead of crashing on import.
"""

from __future__ import annotations

import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
CACHE = BENCH / ".cache"

#: samples a serve op needs before its p90 has ten samples above it
MIN_OP_SAMPLES = 100


def child_env() -> Dict[str, str]:
    """Environment for every process the bench starts: the checkout's
    ``src`` first on the import path, and one thread per BLAS pool so
    numpy does not oversubscribe the measured CPUs."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env.setdefault(var, "1")
    return env


def require_source() -> None:
    """Exit 2 unless ``src/repro`` of this checkout is importable and is
    the copy that gets imported (never an installed one elsewhere)."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no source tree at {SRC}/repro", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        print(f"error: imported repro from {repro.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------
def quartiles(values: Sequence[float]) -> List[float]:
    """``[q1, median, q3]`` as ``statistics.quantiles(n=4)`` gives them."""
    vals = list(values)
    if len(vals) == 1:
        return [vals[0]] * 3
    return list(statistics.quantiles(vals, n=4))


def p90(values: Sequence[float]) -> float:
    """Nearest-rank 90th percentile: with N >= 100 samples at least ten
    lie above it, which is the highest percentile the sample supports."""
    vals = sorted(values)
    return vals[max(0, math.ceil(0.9 * len(vals)) - 1)]


# ---------------------------------------------------------------------------
# host and process records
# ---------------------------------------------------------------------------
def effective_cpus() -> float:
    """CPUs this process may use: affinity mask, capped by a cgroup
    quota (v2 ``cpu.max`` or v1 ``cfs_quota_us``) when one is set."""
    cpus = float(len(os.sched_getaffinity(0)))
    quota = period = None
    try:
        q, p = Path("/sys/fs/cgroup/cpu.max").read_text().split()
        if q != "max":
            quota, period = float(q), float(p)
    except (OSError, ValueError):
        try:
            q = float(Path("/sys/fs/cgroup/cpu/cpu.cfs_quota_us").read_text())
            p = float(Path("/sys/fs/cgroup/cpu/cpu.cfs_period_us").read_text())
            if q > 0:
                quota, period = q, p
        except (OSError, ValueError):
            pass
    if quota is not None and period:
        cpus = min(cpus, quota / period)
    return cpus


def git_commit() -> Optional[str]:
    """HEAD of the checkout, read from ``.git`` directly (never a git
    process, which would search directories above the checkout)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def host_record(seed: int) -> Dict[str, object]:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "effective_cpus": effective_cpus(),
        "loadavg_start": os.getloadavg()[0],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": git_commit(),
        "seed": seed,
    }


def peak_rss_mb(pid: object = "self") -> float:
    """``VmHWM`` (peak resident set) of a live process, in MiB."""
    for line in Path(f"/proc/{pid}/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


def now() -> float:
    """The one clock every bench process stamps with (system-wide
    monotonic, so stamps compare across processes)."""
    return time.monotonic()


def last_json_line(text: str) -> dict:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("process printed no result")
    return json.loads(lines[-1])


def run_child(cmd: List[str], timeout: float) -> dict:
    """Run a bench child to completion and parse its last stdout line."""
    proc = subprocess.run(
        cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True,
        timeout=timeout,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"{' '.join(cmd[1:3])} exited {proc.returncode}: {proc.stderr[-2000:]}"
        )
    return last_json_line(proc.stdout)
