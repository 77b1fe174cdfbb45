"""Pieces every perfbench workload shares: statistics, the reference
loop, memory readings, set-up timing and the result record."""
from __future__ import annotations

import math
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

#: BLAS and OpenMP pools pinned to one thread, so a run on a 64-core
#: host loads the machine like a run on the 2-core reference host
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}

#: set-up is repeated this many times per run and reported as a median
#: (a single sub-second set-up drifts by +-15% on a shared host)
SETUP_REPS = 3

#: the modules a caller imports before the first profile or plan run
PROGRAM_MODULES = ("repro.models.registry", "repro.core.profiler",
                   "repro.analysis.cache", "repro.ir.plan",
                   "repro.ir.executor")


def program_env() -> Dict[str, str]:
    """Environment for child processes: the source tree on the path,
    thread pools pinned."""
    env = dict(os.environ)
    env.update(PINNED_ENV)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    return env


@dataclass
class Outcome:
    """What one workload run measured and checked."""

    attempted: int
    failed: int
    #: False when an op failed for a reason other than a named known
    #: fault, or a run-level check did not hold
    correct: bool
    #: metric name -> (value, unit)
    metrics: Dict[str, Tuple[float, str]] = field(default_factory=dict)
    #: human-readable lines printed before the JSON result
    notes: List[str] = field(default_factory=list)


class OpLog:
    """Per-op pass/fail accounting, split into known-fault failures
    (which keep ``correct`` true) and unexpected ones."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.unexpected: List[str] = []

    def record(self, problems: Sequence[str], known_fault: bool = False,
               label: str = "") -> bool:
        self.attempted += 1
        if not problems:
            return True
        self.failed += 1
        if not known_fault:
            self.unexpected.append(f"{label}: {'; '.join(problems)}")
        return False


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def hd_median(values: Sequence[float]) -> float:
    """Harrell-Davis estimate of the median.

    A Beta((n+1)/2, (n+1)/2)-weighted average of all order statistics.
    The ops of a run differ by an order of magnitude (a 125-node graph
    next to a 1296-node one), so the sample median can sit in the gap
    between two kinds of op and jump across it from run to run; this
    estimate moves continuously with the samples around the middle.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 1:
        return float(ordered[0])
    a = (n + 1) / 2.0
    log_norm = 2 * math.lgamma(a) - math.lgamma(2 * a)
    steps = max(8, 20_000 // n)   # midpoint rule inside each 1/n slice
    weights = []
    for k in range(n):
        w = 0.0
        for j in range(steps):
            t = (k + (j + 0.5) / steps) / n
            w += math.exp((a - 1) * (math.log(t) + math.log1p(-t))
                          - log_norm)
        weights.append(w)
    total = sum(weights)
    return sum(w * x for w, x in zip(weights, ordered)) / total


def tail(values: Sequence[float]) -> Optional[Tuple[float, float, int]]:
    """Highest percentile with at least ten samples beyond it.

    Returns ``(percentile, value, samples)`` or ``None`` when fewer
    than forty samples exist, since any percentile of those would have
    too few samples beyond it to be a tail.  Nearest-rank definition.
    """
    n = len(values)
    if n < 40:
        return None
    ordered = sorted(values)
    for pct in (99.9, 99.0, 98.0, 95.0, 90.0, 80.0, 75.0):
        rank = math.ceil(n * pct / 100.0)
        if n - rank >= 10:
            return pct, float(ordered[rank - 1]), n
    return None


def tail_note(label: str, values_ms: Sequence[float]) -> str:
    t = tail(values_ms)
    if t is None:
        return f"{label}: p50 {median(values_ms):.3f} ms over " \
               f"{len(values_ms)} samples (too few for a tail)"
    pct, value, n = t
    return f"{label}: p50 {median(values_ms):.3f} ms, p{pct:g} " \
           f"{value:.3f} ms over {n} samples"


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("inf")


# ----------------------------------------------------------------------
# the host
# ----------------------------------------------------------------------
def reference_loop_ms(reps: int = 7) -> float:
    """A fixed pure-Python loop, median of ``reps`` timings: it tracks
    the host's speed, so a shift here and in a metric together is
    drift, not the program."""
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc += i * i % 7
        times.append((time.perf_counter() - t0) * 1e3)
    return median(times)


def cpu_stall_seconds() -> float:
    """Seconds this container's runnable tasks have waited for a CPU
    (``/proc/pressure/cpu``, "some"); 0 where the kernel has no PSI.
    A run whose share of stalled time is high ran on a busy host."""
    try:
        with open("/proc/pressure/cpu") as fh:
            line = fh.readline()
    except OSError:
        return 0.0
    return int(line.rsplit("total=", 1)[1]) / 1e6


def self_peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def tree_peak_rss_mb(pid: int) -> float:
    """Sum of the peak resident sets of ``pid`` and its descendants,
    read from ``/proc`` (the server and its shard processes)."""
    total_kb = 0
    stack = [pid]
    while stack:
        p = stack.pop()
        try:
            with open(f"/proc/{p}/status") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
                        break
            for tid in os.listdir(f"/proc/{p}/task"):
                with open(f"/proc/{p}/task/{tid}/children") as fh:
                    stack.extend(int(c) for c in fh.read().split())
        except (FileNotFoundError, ProcessLookupError):
            continue  # exited between listing and reading
    return total_kb / 1024.0


def import_seconds(modules: Sequence[str] = PROGRAM_MODULES) -> float:
    """Wall time of a fresh interpreter importing the program: the
    import share of a caller's set-up, measured in a new process
    because this one has the modules loaded already."""
    code = "import " + ", ".join(modules)
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], env=program_env(),
                   check=True, timeout=120)
    return time.perf_counter() - t0


def repeated_setup(build: Callable[[], object], reps: int = SETUP_REPS
                   ) -> Tuple[List[float], object]:
    """Run ``build`` ``reps`` times, each after a fresh-interpreter
    import; return the per-rep seconds and the last rep's state."""
    times = []
    state = None
    for _ in range(max(1, reps)):
        t_import = import_seconds()
        t0 = time.perf_counter()
        state = build()
        times.append(t_import + time.perf_counter() - t0)
    return times, state
