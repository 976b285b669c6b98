"""Perf-history store: append benchmark snapshots, trend them, flag drops.

Every perf gate in ``benchmarks/`` writes a ``BENCH_*.json`` artifact
(kernels, serving, parallel tables, graph classification, perf
regression, ...), but each run overwrote the last — the repo had gates and
no *trajectory*.  This module appends each benchmark sweep to
``benchmarks/history/`` as one immutable entry keyed by commit, UTC
timestamp, a host fingerprint and the thread budget in force
(:func:`repro.nn.kernels.thread_budget`, resolved from the same
``REPRO_NUM_THREADS`` the benchmarks ran under)::

    benchmarks/history/20260808T120000Z-2f9c1ab.json
    {"schema_version": 1, "commit": ..., "timestamp": ..., "host": {...},
     "threads": {"budget": 1, "numpy_blas": 1, "scipy_blas": 1},
     "benches": {"kernels": {...}, "serving": {...}}}

``repro bench record`` appends an entry, ``repro bench trend`` renders
per-metric trajectories across entries, ``repro bench diff`` compares two
entries, and ``repro bench check`` is the regression detector: the latest
entry's metrics against the rolling median of prior entries **from the
same host fingerprint** (perf numbers do not compare across machines),
flagged when a known-direction metric moves the wrong way by more than a
configurable percentage.  ``scripts/ci.sh`` runs record/trend/check as a
report-only stage on PRs.
"""

from __future__ import annotations

import json
import math
import os
import platform
import subprocess
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple

from ..nn.kernels import thread_budget
from .inspect import format_threads, sparkline

HISTORY_SCHEMA_VERSION = 1
DEFAULT_BENCH_DIR = "benchmarks"
DEFAULT_HISTORY_DIR = "benchmarks/history"

# Direction of "better" for metric-name suffixes the detector understands;
# first match wins, unknown metrics are shown in trends but never flagged.
_HIGHER_IS_BETTER = ("speedup", "requests_per_second", "hit_rate", "bytes_ratio")
_LOWER_IS_BETTER = ("warmup_ratio", "_seconds", "_ms", "seconds", "ms")


def metric_direction(name: str) -> Optional[str]:
    """``"higher"``/``"lower"`` for metrics the detector understands."""
    leaf = name.rsplit(".", 1)[-1]
    for suffix in _HIGHER_IS_BETTER:
        if leaf == suffix or leaf.endswith(suffix):
            return "higher"
    for suffix in _LOWER_IS_BETTER:
        if leaf == suffix or leaf.endswith(suffix):
            return "lower"
    return None


def host_fingerprint() -> Dict[str, object]:
    """A stable identity for "numbers from this machine are comparable"."""
    return {
        "hostname": platform.node(),
        "machine": platform.machine(),
        "system": platform.system(),
        "python": platform.python_version(),
        "cpus": os.cpu_count() or 1,
    }


def current_commit(repo_dir: str | Path = ".") -> str:
    """The checked-out commit hash, or ``"unknown"`` outside a git repo."""
    try:
        output = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=str(repo_dir),
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    commit = output.stdout.strip()
    return commit if output.returncode == 0 and commit else "unknown"


def read_bench_files(bench_dir: str | Path = DEFAULT_BENCH_DIR) -> Dict[str, dict]:
    """All ``BENCH_*.json`` artifacts, keyed by their workload name."""
    benches: Dict[str, dict] = {}
    directory = Path(bench_dir)
    if not directory.is_dir():
        return benches
    for path in sorted(directory.glob("BENCH_*.json")):
        name = path.stem[len("BENCH_") :]
        try:
            benches[name] = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            continue  # a half-written artifact never poisons the history
    return benches


def record_bench_history(
    bench_dir: str | Path = DEFAULT_BENCH_DIR,
    history_dir: Optional[str | Path] = None,
    commit: Optional[str] = None,
    timestamp: Optional[str] = None,
    host: Optional[Dict[str, object]] = None,
) -> Optional[Path]:
    """Append one history entry from the current ``BENCH_*.json`` set.

    Returns the written path, or ``None`` when there is nothing to record
    (no benchmark has run).  Entries are immutable: the filename embeds
    timestamp + commit, and an existing file is never overwritten (a
    re-record in the same second gains a disambiguating suffix).
    """
    benches = read_bench_files(bench_dir)
    if not benches:
        return None
    history = Path(history_dir) if history_dir else Path(bench_dir) / "history"
    history.mkdir(parents=True, exist_ok=True)
    stamp = timestamp or time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    commit = commit or current_commit(Path(bench_dir).resolve().parent)
    entry = {
        "schema_version": HISTORY_SCHEMA_VERSION,
        "commit": commit,
        "timestamp": stamp,
        "host": dict(host) if host is not None else host_fingerprint(),
        "threads": thread_budget(),
        "benches": benches,
    }
    compact = stamp.replace("-", "").replace(":", "")
    path = history / f"{compact}-{commit[:7]}.json"
    suffix = 1
    while path.exists():
        path = history / f"{compact}-{commit[:7]}-{suffix}.json"
        suffix += 1
    partial = path.with_suffix(".json.tmp")
    with open(partial, "w") as handle:
        json.dump(entry, handle, indent=2, sort_keys=True)
        handle.write("\n")
    os.replace(partial, path)
    return path


def load_history(history_dir: str | Path = DEFAULT_HISTORY_DIR) -> List[dict]:
    """Every history entry under ``history_dir``, oldest first."""
    directory = Path(history_dir)
    if not directory.is_dir():
        return []
    entries: List[dict] = []
    for path in sorted(directory.glob("*.json")):
        try:
            entry = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            continue
        if isinstance(entry, dict) and isinstance(entry.get("benches"), dict):
            entry["_path"] = str(path)
            try:
                entry["_mtime"] = path.stat().st_mtime_ns
            except OSError:
                entry["_mtime"] = 0
            entries.append(entry)
    # mtime breaks ties between same-second records (suffix "-1" would
    # otherwise sort lexically *before* the un-suffixed first record).
    entries.sort(key=lambda e: (str(e.get("timestamp", "")), e["_mtime"]))
    return entries


def flatten_metrics(benches: dict, prefix: str = "") -> Dict[str, float]:
    """Numeric leaves of a ``benches`` tree as dotted-key scalars."""
    flat: Dict[str, float] = {}
    for key, value in benches.items():
        name = f"{prefix}.{key}" if prefix else str(key)
        if isinstance(value, bool):
            continue
        if isinstance(value, (int, float)):
            if math.isfinite(float(value)):
                flat[name] = float(value)
        elif isinstance(value, dict):
            flat.update(flatten_metrics(value, name))
    return flat


def entry_metrics(entry: dict) -> Dict[str, float]:
    return flatten_metrics(entry.get("benches", {}))


def _entry_label(entry: dict) -> str:
    stamp = str(entry.get("timestamp", "?"))
    return f"{stamp}  {str(entry.get('commit', '?'))[:7]}"


def metric_series(
    entries: Iterable[dict], metric: str
) -> List[Tuple[dict, float]]:
    """``(entry, value)`` pairs of the entries that carry ``metric``."""
    series = []
    for entry in entries:
        value = entry_metrics(entry).get(metric)
        if value is not None:
            series.append((entry, value))
    return series


@dataclass(frozen=True)
class Regression:
    """One metric that moved the wrong way vs its rolling baseline."""

    metric: str
    direction: str
    value: float
    baseline: float
    change_pct: float
    samples: int

    def describe(self) -> str:
        arrow = "dropped" if self.direction == "higher" else "rose"
        return (
            f"{self.metric}: {arrow} {self.change_pct:.1f}% "
            f"({self.baseline:.4g} -> {self.value:.4g}, "
            f"rolling median of {self.samples})"
        )


def _same_host(a: Optional[dict], b: Optional[dict]) -> bool:
    if not a or not b:
        return False
    keys = ("hostname", "machine", "system", "cpus")
    return all(a.get(k) == b.get(k) for k in keys)


def detect_regressions(
    entries: List[dict],
    threshold_pct: float = 10.0,
    window: int = 5,
    same_host_only: bool = True,
) -> List[Regression]:
    """Latest entry vs the rolling median of up to ``window`` prior entries.

    Only metrics with a known direction are considered, and (by default)
    only prior entries whose host fingerprint matches the latest entry's —
    wall-clock numbers are not comparable across machines.  An empty
    baseline (first run on this host) flags nothing.
    """
    if len(entries) < 2:
        return []
    latest = entries[-1]
    prior = entries[:-1]
    if same_host_only:
        prior = [e for e in prior if _same_host(e.get("host"), latest.get("host"))]
    if not prior:
        return []
    prior = prior[-window:]
    regressions: List[Regression] = []
    for metric, value in sorted(entry_metrics(latest).items()):
        direction = metric_direction(metric)
        if direction is None:
            continue
        history = [m[metric] for e in prior if (m := entry_metrics(e)).get(metric) is not None]
        if not history:
            continue
        baseline = float(sorted(history)[len(history) // 2])  # rolling median
        if baseline == 0:
            continue
        if direction == "higher":
            change_pct = (baseline - value) / abs(baseline) * 100.0
        else:
            change_pct = (value - baseline) / abs(baseline) * 100.0
        if change_pct > threshold_pct:
            regressions.append(
                Regression(
                    metric=metric,
                    direction=direction,
                    value=value,
                    baseline=baseline,
                    change_pct=change_pct,
                    samples=len(history),
                )
            )
    return regressions


def render_trend(
    entries: List[dict],
    metrics: Optional[List[str]] = None,
    last: int = 10,
) -> str:
    """The ``repro bench trend`` table: one sparkline row per metric."""
    if not entries:
        return "no bench history (run `repro bench record` after a benchmark)"
    entries = entries[-last:]
    lines = [f"bench history: {len(entries)} entr{'y' if len(entries) == 1 else 'ies'}"]
    for entry in entries:
        lines.append(f"  {_entry_label(entry)}")
    names = metrics or sorted({m for e in entries for m in entry_metrics(e)})
    width = max((len(n) for n in names), default=0)
    spark_width = max(len("trend"), min(len(entries), 40))
    shown = 0
    lines.append("")
    header = f"  {'metric':<{width}}  {'trend':<{spark_width}}"
    lines.append(f"{header}  {'first':>10}  {'last':>10}  {'change':>8}")
    for name in names:
        series = [value for _, value in metric_series(entries, name)]
        if len(series) < (1 if metrics else 2):
            continue  # uninteresting: the metric appears in a single entry
        first, final = series[0], series[-1]
        change = (
            f"{(final - first) / abs(first) * 100.0:+.1f}%" if first else "-"
        )
        lines.append(
            f"  {name:<{width}}  {sparkline(series, width=spark_width):<{spark_width}}"
            f"  {first:>10.4g}  {final:>10.4g}  {change:>8}"
        )
        shown += 1
    if not shown:
        lines.append("  (no metric appears in more than one entry yet)")
    return "\n".join(lines)


def _threads_note(a: Optional[dict], b: Optional[dict]) -> str:
    if a == b:
        return "yes" if a else "unknown (not recorded)"
    before, after = (format_threads(t) if t else "not recorded" for t in (a, b))
    return f"no ({before} -> {after})"


def render_history_diff(a: dict, b: dict) -> str:
    """The ``repro bench diff`` report between two history entries."""
    lines = [
        f"bench diff {_entry_label(a)} -> {_entry_label(b)}",
        f"  same host: {'yes' if _same_host(a.get('host'), b.get('host')) else 'no'}",
        f"  same threads: {_threads_note(a.get('threads'), b.get('threads'))}",
        "",
    ]
    metrics_a, metrics_b = entry_metrics(a), entry_metrics(b)
    names = sorted(set(metrics_a) | set(metrics_b))
    width = max((len(n) for n in names), default=6)
    for name in names:
        va, vb = metrics_a.get(name), metrics_b.get(name)
        if va is None or vb is None:
            marker, delta = "+" if va is None else "-", "(only one side)"
        else:
            pct = (vb - va) / abs(va) * 100.0 if va else float("inf")
            direction = metric_direction(name)
            worse = direction == "higher" and pct < 0 or direction == "lower" and pct > 0
            marker = "*" if worse else " "
            delta = f"{pct:+.1f}%"
        lines.append(
            f"{marker} {name:<{width}}  "
            f"{'-' if va is None else format(va, '.4g'):>12}  "
            f"{'-' if vb is None else format(vb, '.4g'):>12}  {delta}"
        )
    return "\n".join(lines)


def render_regressions(regressions: List[Regression], threshold_pct: float) -> str:
    if not regressions:
        return f"bench check: no regressions above {threshold_pct:.1f}%"
    lines = [
        f"bench check: {len(regressions)} metric(s) regressed more than "
        f"{threshold_pct:.1f}% vs the rolling median:"
    ]
    for regression in regressions:
        lines.append(f"  ! {regression.describe()}")
    return "\n".join(lines)
