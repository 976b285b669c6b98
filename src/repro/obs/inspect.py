"""Read persisted runs back and render them for ``repro runs ...``.

Everything here works from the on-disk artefacts alone (``manifest.json`` +
``events.jsonl``), so a run remains fully inspectable long after the
process that produced it is gone — loss-part curves, per-epoch grad norms,
and span-attributed op breakdowns included.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

_SPARK_CHARS = "▁▂▃▄▅▆▇█"


@dataclass
class Run:
    """One loaded run: its manifest plus parsed event lists."""

    directory: Path
    manifest: Dict[str, object]
    epochs: List[dict] = field(default_factory=list)
    spans: List[dict] = field(default_factory=list)
    counters: List[dict] = field(default_factory=list)
    gauges: List[dict] = field(default_factory=list)
    health: List[dict] = field(default_factory=list)

    @property
    def run_id(self) -> str:
        return str(self.manifest.get("run_id", self.directory.name))

    def epoch_series(self, key: str = "loss") -> List[float]:
        """Per-epoch values of ``loss``, ``epoch_seconds``, or a part name."""
        if key in ("loss", "epoch_seconds"):
            return [float(row[key]) for row in self.epochs]
        return [float(row.get("parts", {}).get(key, float("nan"))) for row in self.epochs]

    def part_names(self) -> List[str]:
        names: List[str] = []
        for row in self.epochs:
            for name in row.get("parts", {}):
                if name not in names:
                    names.append(name)
        return names


def load_run(path: str | Path, strict: bool = True) -> Run:
    """Load one run directory (tolerating a missing/partial event file).

    With ``strict=False`` a missing or corrupt ``manifest.json`` — the
    signature of a run whose process died mid-write — degrades to a stub
    manifest with status ``unknown`` (plus a one-line warning on stderr)
    instead of raising, so one crashed run cannot take down
    ``repro runs list``.  Events are still parsed either way.
    """
    directory = Path(path)
    manifest_path = directory / "manifest.json"
    manifest: Optional[Dict[str, object]] = None
    try:
        manifest = json.loads(manifest_path.read_text())
        if not isinstance(manifest, dict):
            raise json.JSONDecodeError("manifest is not an object", "", 0)
    except FileNotFoundError:
        if strict:
            raise FileNotFoundError(f"no manifest.json under {directory}") from None
    except (OSError, json.JSONDecodeError) as exc:
        if strict:
            raise ValueError(f"corrupt manifest.json under {directory}: {exc}") from exc
    if manifest is None:
        print(
            f"warning: skipping corrupt/partial manifest.json under {directory} "
            "(run surfaced with status unknown)",
            file=sys.stderr,
        )
        manifest = {"run_id": directory.name, "status": "unknown"}
    run = Run(directory=directory, manifest=manifest)
    events_path = directory / "events.jsonl"
    if events_path.exists():
        with open(events_path) as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                try:
                    event = json.loads(line)
                except json.JSONDecodeError:
                    continue  # a line truncated by a crash; keep the rest
                bucket = {
                    "epoch": run.epochs,
                    "span": run.spans,
                    "counter": run.counters,
                    "gauge": run.gauges,
                    "health": run.health,
                }.get(event.get("type"))
                if bucket is not None:
                    bucket.append(event)
    return run


def list_runs(root: str | Path) -> List[Run]:
    """All runs under ``root``, oldest first.

    Crashed runs with a corrupt or partial manifest are kept (status
    ``unknown``, warned once on stderr) rather than aborting the listing.
    """
    directory = Path(root)
    if not directory.exists():
        return []
    runs = []
    for child in sorted(directory.iterdir()):
        if (child / "manifest.json").exists() or (child / "events.jsonl").exists():
            runs.append(load_run(child, strict=False))
    return runs


def find_run(root: str | Path, run_id: str) -> Run:
    """Load the run whose id equals — or uniquely starts with — ``run_id``."""
    exact = Path(root) / run_id
    if (exact / "manifest.json").exists():
        return load_run(exact, strict=False)
    matches = [r for r in list_runs(root) if r.run_id.startswith(run_id)]
    if len(matches) == 1:
        return matches[0]
    if not matches:
        raise FileNotFoundError(f"no run matching {run_id!r} under {root}")
    raise ValueError(
        f"ambiguous run id {run_id!r}: matches "
        + ", ".join(r.run_id for r in matches)
    )


def sparkline(values: List[float], width: int = 40) -> str:
    """A fixed-width unicode sparkline of a numeric series."""
    finite = [v for v in values if v == v]  # drop NaNs
    if not finite:
        return ""
    if len(values) > width:
        # Bucket-mean downsample to the display width.
        step = len(values) / width
        values = [
            sum(values[int(i * step) : max(int((i + 1) * step), int(i * step) + 1)])
            / max(int((i + 1) * step) - int(i * step), 1)
            for i in range(width)
        ]
    low, high = min(finite), max(finite)
    span = high - low
    chars = []
    for value in values:
        if value != value:
            chars.append(" ")
            continue
        level = 0 if span <= 0 else int((value - low) / span * (len(_SPARK_CHARS) - 1))
        chars.append(_SPARK_CHARS[level])
    return "".join(chars)


def _fmt_bytes(value: Optional[float]) -> str:
    if value is None:
        return "-"
    for unit in ("B", "KB", "MB", "GB"):
        if abs(value) < 1024.0 or unit == "GB":
            return f"{value:.1f}{unit}" if unit != "B" else f"{int(value)}B"
        value /= 1024.0
    return f"{value:.1f}GB"


def render_list(runs: List[Run]) -> str:
    """The ``repro runs list`` table."""
    if not runs:
        return "no runs found"
    header = f"{'run id':<44} {'method':<12} {'dataset':<14} {'status':<7} {'epochs':>6} {'wall s':>8}"
    lines = [header, "-" * len(header)]
    for run in runs:
        summary = run.manifest.get("summary", {}) or {}
        epochs = summary.get("epochs", len(run.epochs))
        wall = summary.get("wall_seconds")
        wall_text = f"{wall:>8.2f}" if isinstance(wall, (int, float)) else f"{'-':>8}"
        lines.append(
            f"{run.run_id:<44} {str(run.manifest.get('method', '?')):<12} "
            f"{str(run.manifest.get('dataset', '?')):<14} "
            f"{str(run.manifest.get('status', '?')):<7} {epochs:>6} {wall_text}"
        )
    return "\n".join(lines)


def _series_block(run: Run, key: str, label: str) -> List[str]:
    series = run.epoch_series(key)
    finite = [v for v in series if v == v]
    if not finite:
        return []
    return [
        f"  {label:<16} {sparkline(series)}  "
        f"first {finite[0]:.4f}  last {finite[-1]:.4f}  min {min(finite):.4f}"
    ]


def _last_gauges(gauges: List[dict]) -> Dict[str, float]:
    last: Dict[str, float] = {}
    for gauge in gauges:
        name = gauge.get("name")
        value = gauge.get("value")
        if isinstance(name, str) and isinstance(value, (int, float)):
            last[name] = float(value)
    return last


def _health_block(run: Run) -> List[str]:
    """The training-health section: latest verdict plus probe trajectories."""
    if not run.health:
        return []
    last = run.health[-1]
    anomalies = last.get("anomalies") or []
    lines = ["", f"health ({len(run.health)} reports):"]
    lines.append(
        f"  last verdict             {last.get('status', '?')} "
        f"(epoch {last.get('epoch', '?')})"
        + (f"  anomalies: {', '.join(anomalies)}" if anomalies else "")
    )
    counts: Dict[str, int] = {}
    for report in run.health:
        for anomaly in report.get("anomalies") or []:
            counts[anomaly] = counts.get(anomaly, 0) + 1
    if counts:
        lines.append(
            "  anomaly totals           "
            + ", ".join(f"{name} x{count}" for name, count in sorted(counts.items()))
        )
    for metric in (
        "alignment",
        "uniformity",
        "effective_rank",
        "collapse_score",
        "dead_dimension_ratio",
        "grad_norm_total",
    ):
        series = [
            float(report["metrics"][metric])
            for report in run.health
            if isinstance(report.get("metrics"), dict)
            and isinstance(report["metrics"].get(metric), (int, float))
        ]
        if not series:
            continue
        lines.append(
            f"  {metric:<16} {sparkline(series)}  "
            f"first {series[0]:.4f}  last {series[-1]:.4f}"
        )
    return lines


def _serving_block(counters: Dict[str, float], gauges: List[dict]) -> List[str]:
    """The serving section: cache hit rate plus queue batching economics.

    Rendered only when the run touched :mod:`repro.serve` (any ``serve.*``
    counter present), mirroring how the experiment embedding cache's
    ``cache.hit``/``cache.miss`` counters surface as a derived hit rate
    rather than two raw numbers.
    """
    if not any(name.startswith("serve.") for name in counters):
        return []
    lines = ["", "serving:"]
    hits = counters.get("serve.cache.hit", 0.0)
    misses = counters.get("serve.cache.miss", 0.0)
    if hits or misses:
        lines.append(
            f"  cache                    {hits:g} hit / {misses:g} miss "
            f"(hit rate {hits / (hits + misses):.2f})"
        )
    invalidated = counters.get("serve.cache.invalidated")
    if invalidated:
        lines.append(f"  cache invalidated        {invalidated:g} entries")
    batches = counters.get("serve.queue.batches", 0.0)
    if batches:
        batched_requests = counters.get("serve.queue.batched_requests", 0.0)
        coalesced = counters.get("serve.queue.coalesced", 0.0)
        lines.append(
            f"  queue                    {batched_requests:g} requests in "
            f"{batches:g} batches (mean size {batched_requests / batches:.1f}, "
            f"{coalesced:g} coalesced)"
        )
    for name in ("serve.requests.nodes", "serve.requests.graphs"):
        if counters.get(name):
            lines.append(f"  {name:<24} {counters[name]:g}")
    last = _last_gauges(gauges)
    wait_p50 = last.get("serve.queue.wait_ms.p50")
    wait_p99 = last.get("serve.queue.wait_ms.p99")
    if wait_p50 is not None and wait_p99 is not None:
        lines.append(
            f"  queue wait               p50 {wait_p50:.2f}ms / p99 {wait_p99:.2f}ms"
        )
    size_p50 = last.get("serve.queue.batch_size.p50")
    size_p99 = last.get("serve.queue.batch_size.p99")
    if size_p50 is not None and size_p99 is not None:
        lines.append(
            f"  batch size               p50 {size_p50:g} / p99 {size_p99:g}"
        )
    depth = last.get("serve.queue.depth")
    if depth is not None:
        lines.append(f"  queue depth (last)       {depth:g}")
    return lines


def _sampler_block(counters: Dict[str, float]) -> List[str]:
    """The neighbour-sampling section: block count, sizes, sampling rate.

    Rendered only for runs that trained through a
    :class:`~repro.graph.sampling.NeighborLoader` (any ``sampler.*``
    counter present).  The raw counters are sums, so the derived ratios —
    mean nodes per block, blocks per second — are what a reader actually
    wants when tuning ``sampled_fanouts``/``sampled_batch_size``.
    """
    blocks = counters.get("sampler.blocks", 0.0)
    if not blocks:
        return []
    lines = ["", "sampler:"]
    lines.append(f"  blocks                   {blocks:g}")
    nodes = counters.get("sampler.nodes_per_block", 0.0)
    if nodes:
        lines.append(f"  mean nodes per block     {nodes / blocks:.1f}")
    seconds = counters.get("sampler.seconds", 0.0)
    if seconds:
        lines.append(
            f"  sampling time            {seconds:.4f}s "
            f"({blocks / seconds:.1f} blocks/s)"
        )
    return lines


def _config_block(manifest: Dict[str, object]) -> List[str]:
    """The resolved-config section: the actual hyperparameters of the run."""
    config = manifest.get("config")
    if not isinstance(config, dict) or not config:
        return []
    lines = ["", "config (resolved):"]
    for key in sorted(config):
        lines.append(f"  {key:<24} {config[key]!r}")
    return lines


def _spec_block(manifest: Dict[str, object]) -> List[str]:
    """The expanded-plan section of a spec-driven run (``repro run``)."""
    spec = manifest.get("spec")
    if not isinstance(spec, dict):
        return []
    lines = [
        "",
        f"spec {spec.get('name')} ({spec.get('protocol')}, "
        f"profile {spec.get('profile')}):",
        f"  datasets                 {', '.join(spec.get('datasets', []))}",
        f"  seeds                    "
        f"{', '.join(str(s) for s in spec.get('seeds', []))}",
        f"  cells                    {spec.get('num_cells')}",
    ]
    variants = spec.get("variants")
    if isinstance(variants, list):
        lines.append(f"  variants ({len(variants)}):")
        for variant in variants:
            if not isinstance(variant, dict):
                continue
            label = variant.get("label")
            method = variant.get("method")
            tail = f" [{method}]" if method != label else ""
            digest = variant.get("config_digest")
            lines.append(f"    {label}{tail}  config {digest}")
            config = variant.get("config")
            if isinstance(config, dict) and config:
                rendered = ", ".join(f"{k}={config[k]!r}" for k in sorted(config))
                lines.append(f"      {rendered}")
    marks = spec.get("marks")
    if isinstance(marks, list) and marks:
        lines.append(
            "  pre-marked               "
            + "; ".join(
                f"{row} x {column} -> {mark}" for row, column, mark in marks
            )
        )
    return lines


def format_threads(threads: Dict[str, object]) -> str:
    """One line for a recorded thread budget: ``budget 1 (numpy_blas 1, ...)``."""
    blas = ", ".join(
        f"{name} {'-' if count is None else count}"
        for name, count in threads.items()
        if name != "budget"
    )
    return f"budget {threads.get('budget')} ({blas})"


def render_show(run: Run, span_limit: int = 12, op_limit: int = 6) -> str:
    """The ``repro runs show`` report: curves, grad norms, span breakdown."""
    m = run.manifest
    lines = [
        f"run {run.run_id}",
        f"  method {m.get('method')}  dataset {m.get('dataset')}  "
        f"seed {m.get('seed')}  status {m.get('status')}",
        f"  started {m.get('started_at')}  ended {m.get('ended_at')}  "
        f"version {m.get('package_version')}",
    ]
    if m.get("threads"):
        lines.append(f"  threads {format_threads(m['threads'])}")
    if m.get("error"):
        lines.append(f"  error: {m['error']}")
    lines.extend(_config_block(m))
    lines.extend(_spec_block(m))

    if run.epochs:
        lines.append("")
        lines.append(f"loss curves ({len(run.epochs)} epochs):")
        lines.extend(_series_block(run, "loss", "total"))
        for part in run.part_names():
            lines.extend(_series_block(run, part, part))
        lines.extend(_series_block(run, "epoch_seconds", "epoch seconds"))

        last = run.epochs[-1]
        norms = last.get("grad_norms", {})
        if norms:
            lines.append("")
            lines.append("grad norms (last epoch, per parameter group):")
            for group, value in sorted(norms.items()):
                lines.append(f"  {group:<24} {value:.4e}")
        if last.get("update_ratio") is not None:
            lines.append(f"  adam update/param ratio  {last['update_ratio']:.3e}")
        peak = None
        for gauge in run.gauges:
            if gauge.get("name") == "peak_epoch_bytes":
                peak = gauge.get("value")
        if peak is not None:
            lines.append(f"  peak bytes touched/epoch {_fmt_bytes(peak)}")

    if run.spans:
        lines.append("")
        lines.append("spans (wall seconds; op-attributed when profiled):")
        for span in run.spans[:span_limit]:
            indent = "  " * (int(span.get("depth", 0)) + 1)
            lines.append(f"{indent}{span['name']}: {span['seconds']:.3f}s")
            ops = sorted(
                span.get("ops", {}).items(), key=lambda kv: kv[1], reverse=True
            )
            for op, seconds in ops[:op_limit]:
                lines.append(f"{indent}  {op:<32} {seconds:.4f}s")
        if len(run.spans) > span_limit:
            lines.append(f"  ... {len(run.spans) - span_limit} more spans")

    lines.extend(_health_block(run))

    counters: Dict[str, float] = {}
    for event in run.counters:
        counters[event["name"]] = counters.get(event["name"], 0.0) + event["value"]
    lines.extend(_sampler_block(counters))
    lines.extend(_serving_block(counters, run.gauges))
    if counters:
        lines.append("")
        lines.append("counters:")
        for name, value in sorted(counters.items()):
            lines.append(f"  {name:<24} {value:g}")
    return "\n".join(lines)


def render_diff(a: Run, b: Run) -> str:
    """The ``repro runs diff`` report: config, status, and outcome deltas."""
    lines = [f"diff {a.run_id} -> {b.run_id}"]
    for key in ("method", "dataset", "seed", "status", "package_version"):
        va, vb = a.manifest.get(key), b.manifest.get(key)
        marker = " " if va == vb else "*"
        lines.append(f"{marker} {key:<18} {va!r:<28} {vb!r}")

    config_a = a.manifest.get("config", {}) or {}
    config_b = b.manifest.get("config", {}) or {}
    changed = [
        key
        for key in sorted(set(config_a) | set(config_b))
        if config_a.get(key) != config_b.get(key)
    ]
    lines.append("")
    if changed:
        lines.append("config differences:")
        for key in changed:
            lines.append(
                f"* {key:<18} {config_a.get(key, '<absent>')!r:<28} "
                f"{config_b.get(key, '<absent>')!r}"
            )
    else:
        lines.append("configs identical")

    loss_a, loss_b = a.epoch_series("loss"), b.epoch_series("loss")
    if loss_a and loss_b:
        lines.append("")
        lines.append(
            f"final loss         {loss_a[-1]:<28.4f} {loss_b[-1]:.4f} "
            f"(delta {loss_b[-1] - loss_a[-1]:+.4f})"
        )
        seconds_a = sum(a.epoch_series("epoch_seconds"))
        seconds_b = sum(b.epoch_series("epoch_seconds"))
        lines.append(
            f"total epoch secs   {seconds_a:<28.2f} {seconds_b:.2f} "
            f"(delta {seconds_b - seconds_a:+.2f})"
        )
        lines.append(f"epochs             {len(loss_a):<28} {len(loss_b)}")
    return "\n".join(lines)
