"""Benchmark entry point.

    python3 perfbench/run.py --workload paper-gat-cora --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  ``--trace 0`` measures the end-to-end
metrics with the program untouched; ``--trace 1`` runs the same workload
with layer wrappers and the op profiler on and reports the per-layer
metrics instead.  Human-readable lines (settings, fingerprint, named
metrics) come first; the last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import sys
import time
from pathlib import Path

import settings
import stats
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Set-ups per run; setup_s is their median.
SETUP_REPEATS = 3

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "work_per_cpu_s": "1/s",
    "op_cpu_ms_p50": "ms",
    "probe_acc": "%",
}

# Profiler rows reported per op, forward and backward grouped.
OP_ROWS = (
    "tensor.getitem",
    "tensor.mul",
    "graph.segment.sum",
    "tensor.matmul",
    "tensor.exp",
    "tensor.sub",
    "tensor.div",
    "graph.spmm_linear",
    "graph.structure",
    "graph.sample.neighbors",
    "graph.sample.extract",
)

SELF_TIMES = {
    "nn.backward_s": "nn.backward",
    "nn.optim.step_s": "nn.optim.step",
    "gnn.encoder.forward_s": "gnn.encoder.forward",
    "gnn.decoder.forward_s": "gnn.decoder.forward",
    "core.losses.sce_s": "core.losses.sce",
    "core.losses.info_nce_s": "core.losses.info_nce",
    "core.losses.adjacency_s": "core.losses.adjacency",
    "core.losses.discrimination_s": "core.losses.discrimination",
    "core.losses.sample_nonedges_s": "core.losses.sample_nonedges",
    "graph.augment.mask_s": "graph.augment.mask",
    "graph.augment.drop_s": "graph.augment.drop",
    "graph.sampling.sample_s": "graph.sampling.sample",
    "engine.checkpoint.save_s": "engine.checkpoint.save",
    "graph.datasets.load_s": "graph.datasets.load",
    "spec.expand_s": "spec.expand",
    "eval.embed_s": "eval.embed",
    "eval.probe_s": "eval.probe",
}

PER_LAYER = {
    **{name: "s" for name in SELF_TIMES},
    "nn.unattributed_s": "s",
    **{f"op.{row}.s": "s" for row in OP_ROWS},
    **{f"op.{row}.mb": "MB" for row in OP_ROWS},
    "gnn.structure.builds": "count",
    "core.losses.nonedges": "count",
    "graph.sampling.blocks": "count",
    "graph.sampling.nodes_per_block": "count",
    "graph.sampling.fill_ratio": "share",
    "engine.step_ms_p50": "ms",
    "engine.step_ms_p98": "ms",
    "engine.checkpoint.mb": "MB",
    "parallel.cell_s_p50": "s",
    "parallel.cell_s_max": "s",
    "parallel.busy_share": "share",
    "parallel.worker_blas_threads": "count",
    "serve.queue.wait_ms_p50": "ms",
    "serve.queue.wait_ms_p99": "ms",
    "serve.queue.batch_size_p50": "count",
    "serve.forward_ms_p50": "ms",
    "serve.cache.hit_rate": "share",
    "serve.node_forwards": "count",
    "graph.batch.from_graphs_ms_p50": "ms",
    "serve.generator.late_ms_p99": "ms",
    "trace.overhead_share": "share",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _p(values, q):
    return stats.percentile(values, q) if values else 0.0


def layer_metrics(tracer, session, outcome, calibration) -> dict:
    """Per-layer numbers from the tracer, the op profiler and the workload."""
    metrics = {name: tracer.self_s.get(span, 0.0) for name, span in SELF_TIMES.items()}
    metrics["nn.unattributed_s"] = tracer.root_self
    ops = {stat.name: stat for stat in session.op_stats(group_backward=True)}
    for row in OP_ROWS:
        stat = ops.get(row)
        metrics[f"op.{row}.s"] = stat.seconds if stat else 0.0
        metrics[f"op.{row}.mb"] = stat.bytes_touched / 1e6 if stat else 0.0
    structure = session.stats.get("graph.structure")
    metrics["gnn.structure.builds"] = float(structure.calls) if structure else 0.0
    counters, durations = tracer.counters, tracer.durations
    blocks = counters.get("graph.sampling.blocks", 0.0)
    metrics["core.losses.nonedges"] = counters.get("core.losses.nonedges", 0.0)
    metrics["graph.sampling.blocks"] = blocks
    metrics["graph.sampling.nodes_per_block"] = (
        counters.get("graph.sampling.nodes", 0.0) / blocks if blocks else 0.0
    )
    fill = durations.get("graph.sampling.fill", [])
    metrics["graph.sampling.fill_ratio"] = sum(fill) / len(fill) if fill else 0.0
    steps_ms = [s * 1000.0 for s in durations.get("engine.step", [])]
    metrics["engine.step_ms_p50"] = _p(steps_ms, 50)
    metrics["engine.step_ms_p98"] = _p(steps_ms, 98)
    metrics["engine.checkpoint.mb"] = counters.get("engine.checkpoint.bytes", 0.0) / 1e6
    cells = durations.get("parallel.cell", [])
    metrics["parallel.cell_s_p50"] = _p(cells, 50)
    metrics["parallel.cell_s_max"] = max(cells) if cells else 0.0
    pool = counters.get("parallel.wall_s", 0.0)  # one worker: cells run inline
    metrics["parallel.busy_share"] = sum(cells) / pool if pool else 0.0
    threads = durations.get("parallel.worker_blas_threads", [])
    metrics["parallel.worker_blas_threads"] = max(threads) if threads else 0.0
    forward_ms = [s * 1000.0 for s in durations.get("serve.forward", [])]
    batch_ms = [s * 1000.0 for s in durations.get("graph.batch.from_graphs", [])]
    metrics["serve.forward_ms_p50"] = _p(forward_ms, 50)
    metrics["graph.batch.from_graphs_ms_p50"] = _p(batch_ms, 50)
    for name in (
        "serve.queue.wait_ms_p50",
        "serve.queue.wait_ms_p99",
        "serve.queue.batch_size_p50",
        "serve.cache.hit_rate",
        "serve.node_forwards",
        "serve.generator.late_ms_p99",
    ):
        metrics[name] = outcome.layer.get(name, 0.0)
    spans = sum(tracer.calls.values())
    records = sum(stat.calls for stat in session.stats.values())
    overhead = spans * calibration["span_s"] + records * calibration["record_s"]
    wall = tracer.root_wall
    metrics["trace.overhead_share"] = overhead / wall if wall else 0.0
    return metrics


def calibrate() -> dict:
    """Per-call cost of one span and one profiler record, measured here."""
    import numpy as np

    from repro.nn.profiler import profile
    from repro.nn.tensor import Tensor
    from tracer import Tracer

    calls = 20000

    def noop():
        return None

    wrapped = Tracer().timed(noop, "noop")
    start = time.perf_counter()
    for _ in range(calls):
        noop()
    bare = time.perf_counter() - start
    start = time.perf_counter()
    for _ in range(calls):
        wrapped()
    span_s = max(0.0, (time.perf_counter() - start - bare) / calls)

    a, b = Tensor(np.zeros(1)), Tensor(np.zeros(1))
    ops = 5000
    start = time.perf_counter()
    for _ in range(ops):
        a + b
    bare = time.perf_counter() - start
    with profile():
        start = time.perf_counter()
        for _ in range(ops):
            a + b
        profiled = time.perf_counter() - start
    record_s = max(0.0, (profiled - bare) / ops)
    return {"span_s": span_s, "record_s": record_s}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").exists():
        print(f"perfbench: no program source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    if args.workload not in WORKLOADS:
        print(
            f"perfbench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    if args.seconds < 1:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return 2

    scratch = ROOT / ".perfbench" / f"{args.workload}-{args.seed}-{time.time_ns()}"
    scratch.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, args.seconds, scratch)
    traced = bool(args.trace)
    tracer = None
    try:
        if traced:
            import layers
            from repro.nn.profiler import profile
            from tracer import Tracer

            calibration = calibrate()
            tracer = Tracer()
            layers.install(tracer)
            trace = tracer
        else:
            from tracer import Untraced

            trace = Untraced()
        setup_s, setup_wall_s = [], []
        for _ in range(SETUP_REPEATS):
            start, cpu = time.perf_counter(), time.thread_time()
            with trace.root():
                workload.setup()
            setup_s.append(time.thread_time() - cpu)
            setup_wall_s.append(time.perf_counter() - start)
        if traced:
            with profile() as session:
                outcome = workload.measure(trace)
        else:
            outcome = workload.measure(trace)
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(scratch, ignore_errors=True)

    op_tail, tail_label = stats.tail(outcome.op_cpu_ms)
    outcome.named[f"op_cpu_ms_{tail_label}"] = op_tail
    outcome.named["setup_wall_s"] = stats.median(setup_wall_s)
    end_to_end = {
        "setup_s": stats.median(setup_s),
        "peak_rss_mb": stats.peak_rss_mb(),
        "work_per_cpu_s": outcome.work_per_cpu_s,
        "op_cpu_ms_p50": stats.median(outcome.op_cpu_ms),
        "probe_acc": outcome.probe_acc,
    }
    for name, value in end_to_end.items():
        outcome.check(math.isfinite(value) and value > 0, f"{name} = {value}")

    stamp = settings.stamp(ROOT, args.workload, args.seed, traced)
    stamp.update(
        seconds=args.seconds,
        op_samples=len(outcome.op_cpu_ms),
        op_tail=tail_label,
        setup_samples=[round(s, 6) for s in setup_s],
    )
    print("settings " + json.dumps(stamp, sort_keys=True))
    print("fingerprint " + json.dumps(outcome.fingerprint, sort_keys=True))
    print("named " + json.dumps(outcome.named, sort_keys=True))
    for problem in outcome.problems:
        print(f"check failed: {problem}")

    if traced:
        outcome.check(tracer.root_self > -1e-3, "self times exceed the traced wall")
        values = layer_metrics(tracer, session, outcome, calibration)
        units = PER_LAYER
        print(
            f"trace: wall {tracer.root_wall:.4f} s = attributed {tracer.attributed:.4f} s"
            f" + unattributed {tracer.root_self:.4f} s"
        )
    else:
        values, units = end_to_end, END_TO_END
    for name, value in values.items():
        print(f"  {name:<36} {value:>16.6g} {units[name]}")
    result = {
        "correct": outcome.failed == 0,
        "attempted": max(1, outcome.attempted),
        "failed": outcome.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
