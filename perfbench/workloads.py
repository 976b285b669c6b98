"""The benchmark workloads, driven only through ``repro``'s public API.

Each workload has a ``setup`` that makes its inputs from the seed and a
``measure(trace)`` that runs the timed phase inside ``trace.root()``
contexts (the tracer's reconciliation scope in traced runs, no-ops in
untraced ones).  ``measure`` returns an :class:`Outcome`; correctness
checks count into ``failed``.
"""

from __future__ import annotations

import os
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List

import numpy as np

import stats


@dataclass
class Outcome:
    """What a workload measured.

    ``work_per_cpu_s`` and ``op_cpu_ms`` count CPU seconds of every thread
    of the process, which a busy host moves far less than wall time;
    ``named`` holds the wall-clock figures.
    """

    work_per_cpu_s: float
    op_cpu_ms: List[float]
    probe_acc: float
    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    fingerprint: Dict[str, object] = field(default_factory=dict)
    named: Dict[str, float] = field(default_factory=dict)
    layer: Dict[str, float] = field(default_factory=dict)

    def check(self, ok: bool, problem: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(problem)


class EpochClock:
    """Epoch hook stamping process CPU time at the end of every epoch."""

    wants_gradients = False

    def __init__(self) -> None:
        self.marks = [time.process_time()]

    def on_epoch(self, event) -> None:
        self.marks.append(time.process_time())

    def epoch_cpu_ms(self) -> List[float]:
        return (np.diff(self.marks) * 1000.0).tolist()


class CellClock:
    """Epoch hook splitting a sweep's process CPU time into one period per cell.

    The program tells untraced callers nothing when a cell starts, but
    every training loop emits one event per epoch and each cell's epochs
    count up from 0, so an epoch index that does not grow marks a new
    cell.  A period runs from one cell's last epoch to the next cell's
    last epoch (the first from the sweep's start, the last to its end):
    one cell's set-up and training plus the previous cell's probe.  The
    periods add up to the sweep.
    """

    wants_gradients = False

    def __init__(self, clock: Callable[[], float] = time.process_time) -> None:
        self.clock = clock
        self.marks = [clock()]
        self.last_epoch = None
        self.last_time = 0.0

    def on_epoch(self, event) -> None:
        now = self.clock()
        if self.last_epoch is not None and event.epoch <= self.last_epoch:
            self.marks.append(self.last_time)
        self.last_epoch = event.epoch
        self.last_time = now

    def cell_cpu_ms(self) -> List[float]:
        """Per-cell periods, closed at the current time."""
        return (np.diff([*self.marks, self.clock()]) * 1000.0).tolist()


def warm_up(graph, seed: int) -> None:
    """Train one epoch of the paper's GCMAE, so timing starts in a warm process.

    The first training in a process ran slower than every later one (15%
    per GAT epoch; GRACE and GraphMAE sweep cells 50% and 15% slower until a
    GCMAE cell had run): glibc malloc raises its mmap and trim thresholds
    only once the first large buffers are freed, and until then pages are
    returned to and faulted back from the kernel.  Set-up calls this, so
    that cost shows in setup_s.
    """
    from repro.core import GCMAEConfig, train_gcmae

    train_gcmae(graph, GCMAEConfig(epochs=1), seed=seed)


def _loss_fingerprint(losses: List[float], embeddings: np.ndarray) -> dict:
    return {
        "final_loss": repr(float(losses[-1])),
        "loss_digest": stats.digest(np.asarray(losses, dtype=np.float64)),
        "embedding_digest": stats.digest(embeddings),
    }


# ----------------------------------------------------------------------
# Full-graph GCMAE with the paper's configuration
# ----------------------------------------------------------------------
class PaperGatCora:
    """``GCMAEConfig()`` defaults on cora-like, checkpointed, served, probed."""

    name = "paper-gat-cora"
    checkpoint_every = 10
    # The cora-like edge count varies by +-14% with the generator seed, and
    # GAT cost with it, so the graph is fixed and the workload seed drives
    # initialisation, masks, drops, non-edge sampling and serving traffic.
    dataset_seed = 0

    def __init__(self, seed: int, seconds: int, scratch: Path) -> None:
        self.seed = seed
        # About 0.55 s per epoch on a 2-core host, plus ~4 s of serving and
        # probing; at least 50 epochs so the p80 has ten samples beyond it.
        self.epochs = max(50, round((seconds - 4) / 0.55))
        self.scratch = scratch

    def setup(self) -> None:
        from repro.graph import load_node_dataset

        self.graph = load_node_dataset("cora-like", seed=self.dataset_seed)
        self.serving = ServingPhase(self.graph, self.seed)
        warm_up(self.graph, self.seed)

    def train_config(self):
        from repro.core import GCMAEConfig

        return GCMAEConfig(epochs=self.epochs)

    def measure(self, trace) -> Outcome:
        from repro import engine
        from repro.core import train_gcmae
        from repro.eval import evaluate_probe

        graph = self.graph
        directory = self.scratch / "checkpoints"
        serving = Outcome(work_per_cpu_s=0.0, op_cpu_ms=[], probe_acc=0.0)
        with trace.root():
            clock = EpochClock()
            with engine.checkpointing(directory, every=self.checkpoint_every):
                result = train_gcmae(graph, self.train_config(), seed=self.seed, hooks=[clock])
            train_cpu = time.process_time() - clock.marks[0]
            embeddings = result.model.embed(graph.adjacency, graph.features)
        # Outside the root: the generator's idle waits are not program time.
        served = self.serving.run(result.model.encoder, self.train_config(), serving, trace)
        with trace.root():
            probe = evaluate_probe(served, graph.labels, graph.train_mask, graph.test_mask)
        shutil.rmtree(directory, ignore_errors=True)
        outcome = _training_outcome(graph, result, clock, train_cpu, embeddings, probe)
        outcome.check(np.array_equal(served, embeddings), "served rows differ from embed")
        outcome.attempted += serving.attempted
        outcome.failed += serving.failed
        outcome.problems += serving.problems
        outcome.named.update(serving.named)
        outcome.layer.update(serving.layer)
        return outcome


# Serving traffic after training (README.md, "Serving phase", gives the
# source of each value).  Only the rate comes from a measurement; the
# request mix, the Zipf exponent and the write period are unmeasured
# synthetic choices, so the serving figures are not to be tuned against.
SERVE_RATE = 200.0  # requests per second
SERVE_REQUESTS = 600  # three seconds at SERVE_RATE
SERVE_GRAPH_SHARE = 0.5  # graph requests; the rest are node reads
SERVE_ZIPF = 1.0  # node-read popularity: the rank-k node is read in proportion to 1/k
SERVE_WRITE_PERIOD_S = 1.0


class ServingPhase:
    """Serve a trained encoder through ``EmbeddingService`` and check every row.

    Open-loop Poisson arrivals from one thread.  A graph request is the
    1-hop ego-net of a uniformly drawn node, sent through ``submit_graph``
    and the micro-batch queue; a node read asks ``embed_nodes`` for one
    Zipf-distributed node id through the LRU cache.  Each write re-attaches
    the graph with ``update_graph``, which invalidates the cache.  After
    attaching and after each write every node is read once, so the cache
    holds all rows again: a miss costs one full-graph forward.
    """

    def __init__(self, graph, seed: int) -> None:
        self.graph = graph
        rng = np.random.default_rng([seed, 1])
        n = graph.num_nodes
        self.offsets = stats.poisson_schedule(SERVE_RATE, SERVE_REQUESTS, rng)
        self.is_graph = rng.random(SERVE_REQUESTS) < SERVE_GRAPH_SHARE
        self.centres = rng.integers(0, n, size=SERVE_REQUESTS)
        weights = 1.0 / np.arange(1, n + 1) ** SERVE_ZIPF
        ranks = rng.choice(n, size=SERVE_REQUESTS, p=weights / weights.sum())
        self.node_ids = rng.permutation(n)[ranks]
        self.writes = np.arange(SERVE_WRITE_PERIOD_S, self.offsets[-1], SERVE_WRITE_PERIOD_S)
        self.ego_nets = {
            int(c): graph.subgraph(np.unique(np.append(graph.adjacency[c].indices, c)))
            for c in np.unique(self.centres[self.is_graph])
        }

    def run(self, encoder, config, outcome: Outcome, trace) -> np.ndarray:
        """Drive the traffic; returns every node's row as finally served."""
        from repro.serve import EmbeddingService, EncoderSpec, ModelRegistry

        spec = EncoderSpec(
            in_features=self.graph.num_features,
            hidden_features=config.hidden_dim,
            out_features=config.embed_dim,
            num_layers=config.num_layers,
            conv_type=config.conv_type,
            activation=config.activation,
            dropout=config.dropout,
            heads=config.heads,
        )
        registry = ModelRegistry()
        registry.register("gcmae", encoder, spec)
        # References: a direct no-grad forward of each input.  They are not
        # served requests, so the traced forward durations start after them.
        ego_refs = {c: encoder.infer(g.adjacency, g.features) for c, g in self.ego_nets.items()}
        node_ref = encoder.infer(self.graph.adjacency, self.graph.features)
        trace.forget("serve.forward")
        everyone = np.arange(self.graph.num_nodes)
        count = SERVE_REQUESTS
        times = np.concatenate([self.offsets, self.writes])
        order = np.argsort(times, kind="stable")
        times = times[order]
        kinds = np.concatenate([np.where(self.is_graph, 0, 1), np.full(self.writes.size, 2)])[
            order
        ]
        index = np.concatenate([np.arange(count), np.zeros(self.writes.size, dtype=np.int64)])[
            order
        ]
        done = np.full(times.size, np.nan)
        due_at = np.zeros(times.size)
        futures, reads = [], []

        with EmbeddingService(registry, "gcmae", graph=self.graph) as service:
            reads.append((everyone, service.embed_nodes(everyone)))

            def stamp(i: int):
                return lambda _future: done.__setitem__(i, time.perf_counter())

            def issue(i: int, due: float) -> None:
                due_at[i] = due
                if kinds[i] == 0:
                    centre = int(self.centres[index[i]])
                    future = service.submit_graph(self.ego_nets[centre])
                    future.add_done_callback(stamp(i))
                    futures.append((future, centre))
                elif kinds[i] == 1:
                    ids = self.node_ids[index[i] : index[i] + 1]
                    reads.append((ids, service.embed_nodes(ids)))
                    done[i] = time.perf_counter()
                else:
                    service.update_graph(self.graph)
                    reads.append((everyone, service.embed_nodes(everyone)))
                    done[i] = time.perf_counter()

            _start, late = stats.drive_open_loop(times, issue)
            for future, centre in futures:
                try:
                    rows = future.result(timeout=60.0)
                except Exception as error:  # a failed request counts as failed
                    outcome.check(False, f"graph request failed: {error!r}")
                    continue
                outcome.check(
                    np.array_equal(rows, ego_refs[centre]), f"ego-net of {centre} rows differ"
                )
            served = service.embed_nodes(everyone)
            reads.append((everyone, served))
            queue = service.queue.stats()
            totals = service.stats()
        for ids, rows in reads:
            outcome.check(np.array_equal(rows, node_ref[ids]), "node rows differ")

        requests = kinds != 2
        latency_ms = (done[requests] - due_at[requests]) * 1000.0
        latency_ms[~np.isfinite(latency_ms)] = np.inf
        tail, label = stats.tail(latency_ms)
        outcome.named = {"req_ms_p50": stats.median(latency_ms), f"req_ms_{label}": tail}
        lookups = totals["cache.hits"] + totals["cache.misses"]
        outcome.layer = {
            "serve.queue.wait_ms_p50": queue.get("wait_ms_p50", 0.0),
            "serve.queue.wait_ms_p99": queue.get("wait_ms_p99", 0.0),
            "serve.queue.batch_size_p50": queue.get("batch_size_p50", 0.0),
            "serve.cache.hit_rate": totals["cache.hits"] / lookups if lookups else 0.0,
            "serve.node_forwards": totals["node_forwards"],
            "serve.generator.late_ms_p99": stats.percentile(late, 99.0) * 1000.0,
        }
        return served


def _training_outcome(graph, result, clock, train_cpu, embeddings, probe) -> Outcome:
    epochs = len(result.epoch_seconds)
    epoch_ms = [s * 1000.0 for s in result.epoch_seconds]
    outcome = Outcome(
        work_per_cpu_s=graph.num_nodes * epochs / train_cpu,
        op_cpu_ms=clock.epoch_cpu_ms(),
        probe_acc=100.0 * probe.accuracy,
    )
    for epoch, loss in enumerate(result.loss_history):
        outcome.check(bool(np.isfinite(loss)), f"epoch {epoch} loss {loss}")
    outcome.check(bool(np.all(np.isfinite(embeddings))), "non-finite embeddings")
    outcome.fingerprint = _loss_fingerprint(result.loss_history, embeddings)
    tail, label = stats.tail(epoch_ms)
    outcome.named = {
        "nodes_per_s": graph.num_nodes * epochs / result.train_seconds,
        "epoch_ms_p50": stats.median(epoch_ms),
        f"epoch_ms_{label}": tail,
        "epochs": float(epochs),
    }
    return outcome


# ----------------------------------------------------------------------
# Neighbour-sampled GCMAE on the 50k-node graph
# ----------------------------------------------------------------------
class SampledRedditLarge:
    """The ``large_graph`` gate config: GCN 32-d, SCE+InfoNCE, fan-outs (2,2)."""

    name = "sampled-reddit-large"

    def __init__(self, seed: int, seconds: int, scratch: Path) -> None:
        self.seed = seed
        # One epoch (782 blocks of 64 seeds) takes 10-23 s on a 2-core host.
        # The program offers untraced callers no per-step hook, so the op
        # behind op_cpu_ms is the epoch: at one epoch per run it is the
        # same CPU time work_per_cpu_s inverts.  The traced run's
        # engine.step_ms_p50 and engine.step_ms_p98 give the per-block view.
        self.epochs = max(1, seconds // 25)

    def setup(self) -> None:
        from repro.graph import load_node_dataset

        self.graph = load_node_dataset("reddit-large", seed=self.seed)

    def train_config(self):
        from repro.core import GCMAEConfig

        return GCMAEConfig(
            epochs=self.epochs,
            conv_type="gcn",
            heads=1,
            hidden_dim=32,
            embed_dim=32,
            projector_hidden=16,
            use_structure_reconstruction=False,
            use_discrimination=False,
            sampled_fanouts=(2, 2),
            sampled_batch_size=64,
        )

    def measure(self, trace) -> Outcome:
        from repro.core import train_gcmae
        from repro.eval import evaluate_probe

        graph = self.graph
        with trace.root():
            clock = EpochClock()
            result = train_gcmae(graph, self.train_config(), seed=self.seed, hooks=[clock])
            train_cpu = time.process_time() - clock.marks[0]
            embeddings = result.model.embed(graph.adjacency, graph.features)
            probe = evaluate_probe(
                embeddings, graph.labels, graph.train_mask, graph.test_mask
            )
        return _training_outcome(graph, result, clock, train_cpu, embeddings, probe)


# ----------------------------------------------------------------------
# A mini Table 4 through run_spec
# ----------------------------------------------------------------------
SWEEP_METHODS = ("DGI", "GRACE", "CCA-SSG", "GraphMAE", "MaskGAE", "GCMAE")


class Table4Sweep:
    """Six SSL methods x cora-like x 3 seeds through ``run_spec``, cache disabled.

    ``jobs=1``: at ``jobs=2`` each forked worker keeps 2 OpenBLAS threads,
    and on a 2-core host the spinning threads made both wall time and CPU
    time follow host load (see README.md).
    """

    name = "table4-sweep"
    jobs = 1
    # Eight epochs per method: GraphMAE and MaskGAE would otherwise train
    # their profile minimum of 180 and 160 epochs.
    epochs = 8
    # Each seed is a fresh cora-like graph as well as a fresh
    # initialisation.  With two seeds per run the table mean's spread
    # across runs was 0.09 of its median, with three it shrank by a fifth.
    # Six lowered the spread of probe_acc but raised that of peak_rss_mb
    # to 0.18: the peak follows the densest of the run's graphs, and with
    # six a run often holds one.
    seeds_per_run = 3

    def __init__(self, seed: int, seconds: int, scratch: Path) -> None:
        self.seed = seed
        n = self.seeds_per_run
        self.seeds = [n * seed + i for i in range(n)]
        # One sweep takes 11-25 s on a 2-core host.
        self.repeats = max(1, seconds // 25)

    def spec_dict(self) -> dict:
        return {
            "name": "perfbench-table4",
            "protocol": "classification",
            "datasets": ["cora-like"],
            "seeds": list(self.seeds),
            "methods": [
                {"name": m, "overrides": {"epochs": self.epochs}} for m in SWEEP_METHODS
            ],
        }

    def setup(self) -> None:
        from repro.experiments import Profile
        from repro.graph import load_node_dataset
        from repro.spec import expand_spec, parse_spec

        self.profile = Profile(
            name="perfbench",
            hidden_dim=128,
            epochs=self.epochs,
            gcmae_epochs=self.epochs,
            num_seeds=len(self.seeds),
            graph_epochs=self.epochs,
            include_reddit=False,
        )
        self.spec = parse_spec(self.spec_dict())
        self.plan = expand_spec(self.spec, self.profile)
        # The cells generate these graphs again; generating them here too
        # puts the sweep's input cost into setup_s.
        self.graphs = [load_node_dataset("cora-like", seed=s) for s in self.seeds]
        warm_up(self.graphs[0], self.seed)

    def measure(self, trace) -> Outcome:
        from repro.obs import use_hooks
        from repro.spec import run_spec

        # No root here: in a traced run each cell is a root of its own.
        previous = os.environ.get("REPRO_NO_CACHE")
        os.environ["REPRO_NO_CACHE"] = "1"  # time the compute, not the cache
        walls, cpus, tables, cell_ms = [], [], [], []
        try:
            for _ in range(self.repeats):
                start, cpu = time.perf_counter(), time.process_time()
                clock = CellClock()
                with use_hooks(clock):
                    tables.append(run_spec(self.spec, profile=self.profile, jobs=self.jobs))
                walls.append(time.perf_counter() - start)
                cpus.append(time.process_time() - cpu)
                cell_ms.append(clock.cell_cpu_ms())
        finally:
            if previous is None:
                os.environ.pop("REPRO_NO_CACHE", None)
            else:
                os.environ["REPRO_NO_CACHE"] = previous

        cells = len(self.plan.cells)
        outcome = Outcome(
            work_per_cpu_s=cells * len(cpus) / sum(cpus),
            op_cpu_ms=[ms for periods in cell_ms for ms in periods],
            probe_acc=0.0,
        )
        for periods in cell_ms:
            outcome.check(len(periods) == cells, f"{len(periods)} cell periods for {cells} cells")
        means = []
        for table in tables:
            for row in table.rows:
                for column in table.columns:
                    cell = table.get(row, column)
                    ok = (
                        cell is not None
                        and (row, column) not in table.missing
                        and np.isfinite(cell.mean)
                    )
                    mark = table.missing.get((row, column))
                    outcome.check(ok, f"cell {row} x {column}: {mark or cell}")
                    if ok:
                        means.append(cell.mean)
        outcome.probe_acc = float(np.mean(means)) if means else float("nan")
        first = tables[0]
        rows = sorted(
            (row, col, cell.mean, cell.std) for (row, col), cell in first.cells.items()
        )
        outcome.fingerprint = {
            "table_digest": stats.digest(np.asarray([r[2:] for r in rows])),
            "table": {f"{r[0]}/{r[1]}": round(r[2], 4) for r in rows},
        }
        outcome.named = {
            "cells_per_s": cells * len(walls) / sum(walls),
            "cells": float(cells),
            "table_s": stats.median(walls),
        }
        return outcome


WORKLOADS: Dict[str, Callable] = {
    cls.name: cls
    for cls in (PaperGatCora, SampledRedditLarge, Table4Sweep)
}
