"""Which public functions of each ``repro`` layer a traced run wraps.

Every wrapper is installed by :func:`install` on a :class:`Tracer` and
removed again by :meth:`Tracer.uninstall`.  All ``repro`` submodules are
imported first, so no module can pick up a wrapper by importing it while
the trace is active and keep it afterwards.
"""

from __future__ import annotations

import importlib
import os
import pkgutil

from settings import blas_threads
from tracer import Tracer, defining_classes

ENCODER_SPAN = "gnn.encoder.forward"


def import_all(package: str = "repro") -> None:
    root = importlib.import_module(package)
    for info in pkgutil.walk_packages(root.__path__, prefix=package + "."):
        if info.name.endswith("__main__"):
            continue
        importlib.import_module(info.name)


def _count_nonedges(tracer: Tracer, args, result) -> None:
    tracer.count("core.losses.nonedges", len(result))


def _count_block(tracer: Tracer, args, result) -> None:
    sampler = args[0]
    bound, width = 1, 1
    for fanout in sampler.fanouts:
        width *= fanout
        bound += width
    tracer.count("graph.sampling.blocks")
    tracer.count("graph.sampling.nodes", result.num_nodes)
    tracer.sample("graph.sampling.fill", result.num_nodes / (result.num_seeds * bound))


def _checkpoint_bytes(tracer: Tracer, args, result) -> None:
    path = str(result) if result is not None else str(args[0])
    if os.path.exists(path):
        tracer.count("engine.checkpoint.bytes", os.path.getsize(path))


def _not_in_encoder(tracer: Tracer) -> bool:
    return tracer.parent_name() != ENCODER_SPAN


def _wrap_zero_grad(tracer: Tracer, cls: type) -> None:
    original = vars(cls)["zero_grad"]

    def zero_grad(self):
        tracer._tls.step_start = tracer.clock()
        return original(self)

    zero_grad.__perfbench_original__ = original
    tracer.patch(cls, "zero_grad", zero_grad)


def _step_time(tracer: Tracer, args, result) -> None:
    start = getattr(tracer._tls, "step_start", None)
    if start is not None:
        tracer.sample("engine.step", tracer.clock() - start)
        tracer._tls.step_start = None


def _wrap_run_cells(tracer: Tracer) -> None:
    """Time each parallel cell as a root.

    Spans recorded in a forked worker would stay in that worker, so a
    traced run refuses ``jobs > 1``; every workload runs its cells inline.
    """
    import repro.parallel
    from repro.parallel import executor

    original = executor.run_cells

    def run_cells(cells, fn, jobs=None, **kwargs):
        if executor.resolve_jobs(jobs) > 1:
            raise RuntimeError("traced runs execute parallel cells inline (jobs=1)")

        def traced_cell(cell):
            start = tracer.clock()
            with tracer.root():
                result = fn(cell)
            tracer.sample("parallel.cell", tracer.clock() - start)
            tracer.sample("parallel.worker_blas_threads", blas_threads())
            return result

        start = tracer.clock()
        results = original(cells, traced_cell, jobs=jobs, **kwargs)
        tracer.count("parallel.wall_s", tracer.clock() - start)
        return results

    run_cells.__perfbench_original__ = original
    for module in (repro.parallel, executor):
        if vars(module).get("run_cells") is original:
            tracer.patch(module, "run_cells", run_cells)


def install(tracer: Tracer) -> None:
    """Wrap the public entry points of every traced layer."""
    import_all()
    from repro.core import gcmae, losses
    from repro.engine import checkpoint
    from repro.engine.method import Method
    from repro.eval import classification
    from repro.gnn import conv
    from repro.gnn.encoder import GNNEncoder
    from repro.graph import augment, datasets, sampling
    from repro.graph.batch import GraphBatch
    from repro.nn import optim
    from repro.nn.tensor import Tensor
    from repro.spec import model as spec_model

    tracer.wrap_method(Tensor, "backward", "nn.backward")
    for cls in defining_classes(optim.Optimizer, "zero_grad"):
        _wrap_zero_grad(tracer, cls)
    for cls in defining_classes(optim.Optimizer, "step"):
        tracer.wrap_method(cls, "step", "nn.optim.step", on_result=_step_time)

    tracer.wrap_method(GNNEncoder, "forward", ENCODER_SPAN)
    for cls in (conv.GCNConv, conv.SAGEConv, conv.GATConv, conv.GINConv):
        tracer.wrap_method(cls, "forward", "gnn.decoder.forward", when=_not_in_encoder)

    tracer.wrap_function(losses.sce_loss, "core.losses.sce")
    tracer.wrap_function(losses.info_nce, "core.losses.info_nce")
    tracer.wrap_function(losses.adjacency_reconstruction_loss, "core.losses.adjacency")
    tracer.wrap_function(losses.discrimination_loss, "core.losses.discrimination")
    tracer.wrap_function(
        losses.sample_nonedges, "core.losses.sample_nonedges", on_result=_count_nonedges
    )

    tracer.wrap_function(augment.mask_node_features, "graph.augment.mask")
    tracer.wrap_function(augment.mask_feature_dimensions, "graph.augment.mask")
    tracer.wrap_function(augment.drop_nodes, "graph.augment.drop")
    tracer.wrap_function(augment.drop_edges, "graph.augment.drop")

    tracer.wrap_method(
        sampling.NeighborSampler, "sample", "graph.sampling.sample", on_result=_count_block
    )
    tracer.wrap_function(
        checkpoint.save_checkpoint, "engine.checkpoint.save", on_result=_checkpoint_bytes
    )
    tracer.wrap_function(datasets.load_node_dataset, "graph.datasets.load")
    tracer.wrap_function(datasets.load_graph_dataset, "graph.datasets.load")
    tracer.wrap_function(spec_model.expand_spec, "spec.expand")

    for cls in defining_classes(Method, "embed"):
        tracer.wrap_method(cls, "embed", "eval.embed")
    tracer.wrap_method(gcmae.GCMAE, "embed", "eval.embed")
    tracer.wrap_function(classification.evaluate_probe, "eval.probe")

    tracer.wrap_method(GNNEncoder, "infer", "serve.forward", keep_duration=True)
    tracer.wrap_method(
        GraphBatch, "from_graphs", "graph.batch.from_graphs", keep_duration=True
    )
    _wrap_run_cells(tracer)
