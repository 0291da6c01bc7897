"""Inputs, statistics and the environment record shared by the workloads."""

from __future__ import annotations

import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"


def zipf_items(rng: np.random.Generator, n: int, count: int, skew: float) -> np.ndarray:
    """``count`` draws over ``[0, n)`` where the item of rank r has weight
    r^-skew; ranks map to items through a seeded permutation."""
    weights = np.arange(1, n + 1, dtype=np.float64) ** -skew
    weights /= weights.sum()
    return rng.permutation(n)[rng.choice(n, size=count, p=weights)].astype(np.int64)


def write_stream_file(path: Path, n: int, items: np.ndarray, deltas: np.ndarray) -> None:
    """Write ``(items, deltas)`` in the repository's JSONL stream format
    (the header plus one ``[item,delta]`` line per update, as
    ``repro.streams.io.save_stream`` writes it)."""
    header = {
        "format": "repro-stream",
        "version": 1,
        "domain_size": int(n),
        "magnitude_bound": None,
        "length": int(items.shape[0]),
    }
    body = "".join(f"[{i},{d}]\n" for i, d in zip(items.tolist(), deltas.tolist()))
    path.write_text(json.dumps(header) + "\n" + body)


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (q in [0, 100]) of a non-empty sample."""
    ordered = np.sort(np.asarray(values, dtype=np.float64))
    rank = int(np.ceil(q / 100.0 * ordered.shape[0])) - 1
    return float(ordered[min(max(rank, 0), ordered.shape[0] - 1)])


def median(values) -> float:
    return float(statistics.median(values))


#: Seconds one :func:`reference_loop` takes on a host at reference speed.
#: The CPU speed of a shared host can swing between levels (1.6x apart on
#: a 2-vCPU cloud VM, switching every few hundred milliseconds to every
#: few minutes), so a timed figure is scaled by the host's speed sampled
#: while it was timed (see :class:`HostSpeed`) and reads as on a host of
#: constant speed.  The loop calls nothing in the library, so a change to
#: the library cannot move it.
REFERENCE_S = 0.002
_REFERENCE_ITEMS = np.random.default_rng(0).integers(0, 1 << 20, size=256).tolist()


def reference_loop() -> float:
    """Wall time of a fixed piece of interpreter work: integer arithmetic,
    a dict count and a list sort.  It calls nothing that releases the GIL
    and is shorter than the interpreter's switch interval, so a sample
    taken while other threads run does not wait for them inside it."""
    start = time.perf_counter()
    total, counts = 0, {}
    for i in range(8_000):
        total += i * i
        counts[i % 97] = counts.get(i % 97, 0) + 1
    for _ in range(48):
        ordered = sorted(_REFERENCE_ITEMS)
        total += ordered[len(ordered) // 2]
    return time.perf_counter() - start


class HostSpeed:
    """Samples the host's speed for as long as it is entered: every
    ``interval`` seconds a ``SIGALRM`` handler, which runs in the main
    thread between bytecodes, times :func:`reference_loop` and records
    ``REFERENCE_S / seconds`` (1.0 at reference speed, 2.0 on a host twice
    as fast).  The samples take about 2% of the wall time they cover.

    A span of work that took ``t`` seconds took ``t * over(start, end)``
    seconds at reference speed: the mean speed, sampled uniformly in
    time, is the mean rate of work relative to the reference, whatever the
    mix of fast and slow stretches inside the span."""

    def __init__(self, interval: float = 0.1):
        self.interval = interval
        self.times: list[float] = []
        self.speeds: list[float] = []
        self._previous = None

    def _sample(self, signum=None, frame=None) -> None:
        seconds = reference_loop()
        self.times.append(time.perf_counter())
        self.speeds.append(REFERENCE_S / seconds)

    def __enter__(self) -> "HostSpeed":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        self._sample()
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    def over(self, start: float, end: float) -> float:
        """Mean speed of the samples taken in ``[start, end]`` and of the
        last one before it and the first one after it, so that a span
        shorter than the interval still has the two that bracket it."""
        times = np.asarray(self.times)
        first = max(int(np.searchsorted(times, start)) - 1, 0)
        last = int(np.searchsorted(times, end, side="right")) + 1
        return float(np.mean(self.speeds[first:last]))

    def median(self) -> float:
        return median(self.speeds)


def peak_rss_mb() -> float:
    """Peak resident set size of this process, MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def check_environment() -> None:
    """Refuse to measure under tuning overrides: every figure must come
    from the library's defaults."""
    tuned = sorted(key for key in os.environ if key.startswith("REPRO_"))
    if tuned:
        raise SystemExit(
            "refusing to run with REPRO_* tuning variables set: " + ", ".join(tuned)
        )
    if not (ROOT / "src" / "repro").is_dir():
        raise SystemExit(f"no library sources under {ROOT / 'src'}")


def git_commit() -> str:
    """HEAD of the checkout, or "unknown" when it is not a git clone (git
    would otherwise search the parent directories)."""
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def environment(seed: int, workload: str, why: str) -> dict:
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "commit": git_commit(),
        "seed": seed,
        "workload": workload,
        "why": why,
    }


def child_env() -> dict:
    """Environment for a child Python process that imports the library
    from this checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def use_library() -> None:
    """Import the library from this checkout's ``src/``."""
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
