"""Percentiles, the open-loop schedule, digests and metric-name checks."""

from __future__ import annotations

import hashlib
import re
import resource
import time
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

import numpy as np

METRIC_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

# Candidate tail percentiles, highest first.  The ladder stops at p99: with
# more samples a run reports a steadier p99 rather than a rarer percentile.
TAIL_LADDER = (99.0, 98.0, 95.0, 90.0, 80.0, 75.0, 50.0)


def valid_metric_name(name: str) -> bool:
    return METRIC_NAME.fullmatch(name) is not None


def tail_percentile(count: int) -> Optional[float]:
    """Highest ladder percentile with at least ten samples beyond it.

    ``count * (1 - p/100) >= 10``; ``None`` when even the median lacks ten
    samples above it (fewer than 20 samples).
    """
    for p in TAIL_LADDER:
        if count * (100.0 - p) >= 10.0 * 100.0 - 1e-9:
            return p
    return None


def percentile(values: Sequence[float], p: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), p))


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def tail(values: Sequence[float]) -> Tuple[float, str]:
    """The tail value and its label: the supported percentile, else ``max``."""
    p = tail_percentile(len(values))
    if p is None:
        return float(max(values)), "max"
    return percentile(values, p), f"p{p:g}"


def poisson_schedule(rate: float, count: int, rng: np.random.Generator) -> np.ndarray:
    """Due offsets (seconds from start) of ``count`` Poisson arrivals."""
    if rate <= 0 or count < 1:
        raise ValueError("rate and count must be positive")
    return np.cumsum(rng.exponential(1.0 / rate, size=count))


def drive_open_loop(
    offsets: Iterable[float],
    issue: Callable[[int, float], None],
    clock: Callable[[], float] = time.perf_counter,
    sleep: Callable[[float], None] = time.sleep,
) -> Tuple[float, List[float]]:
    """Issue request ``i`` at ``start + offsets[i]`` from one thread.

    The generator never waits for a reply, but ``issue`` may block (a
    synchronous cache miss, say); later requests then go out late.  Their
    latency is timed from the due time passed to ``issue``, so a stall is
    charged to every request queued behind it.  Returns the start time and
    each request's lateness (issue time minus due time, never negative).
    """
    start = clock()
    late: List[float] = []
    for index, offset in enumerate(offsets):
        due = start + float(offset)
        now = clock()
        if now < due:
            sleep(due - now)
            now = clock()
        late.append(max(0.0, now - due))
        issue(index, due)
    return start, late


def digest(*arrays) -> str:
    """Short sha256 over the exact bytes of the given arrays."""
    h = hashlib.sha256()
    for array in arrays:
        a = np.ascontiguousarray(np.asarray(array))
        h.update(str(a.dtype).encode())
        h.update(str(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()[:16]


def peak_rss_mb() -> float:
    """Peak resident set of this process (``ru_maxrss`` is in KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
