"""Table 9: end-to-end training time of representative methods.

The paper times CCA-SSG (fastest: no ``N x N`` similarity matrix), GraphMAE
(slowest: full-graph GAT encoder), MaskGAE and GCMAE on all four datasets.
The paper's GCMAE row uses its *scalability configuration* — a GraphSAGE
encoder with subgraph mini-batching (Section 4.4) — which is what makes it
land near MaskGAE rather than GraphMAE.  We time both GCMAE configurations:

* ``GCMAE``        — the accuracy-tuned GAT configuration used in Tables 4-6
  (full-graph attention, hence GraphMAE-tier cost at this scale),
* ``GCMAE (sage)`` — the paper's Table 9 mechanism: SAGE + subgraph
  sampling, which restores the CCA < MaskGAE < GCMAE < GraphMAE ordering.

Absolute numbers here are CPU-substrate seconds; the bench asserts the
orderings produced by the same mechanisms.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Tuple

from ..core import GCMAEMethod
from ..core.trainer import train_gcmae
from ..eval.classification import evaluate_probe
from ..graph.datasets import load_node_dataset
from ..nn import profiler as nn_profiler
from ..obs.spans import trace_span
from ..parallel import run_cells
from .cache import cached_fit
from .node_classification import fit_node_method
from .profiles import Profile, current_profile
from .registry import gcmae_config, node_task_datasets
from .results import ExperimentTable

TIMED_METHODS = ("CCA-SSG", "GraphMAE", "MaskGAE", "GCMAE", "GCMAE (sage)")

# Profiler op names grouped into the components the Table 9 discussion talks
# about.  Anything not matched lands in "other autograd ops".
COMPONENT_GROUPS = (
    ("sparse matmul (message passing)", ("graph.spmm", "graph.spmm_linear")),
    ("structure build (normalisation)", ("graph.structure",)),
    ("attention / segment ops", ("graph.gat.aggregate", "graph.segment.sum",
                                 "graph.segment.mean", "graph.segment.max",
                                 "nn.leaky_relu")),
    ("dense matmul (projections)", ("tensor.matmul",)),
    ("activations & norms", ("nn.softmax", "nn.log_softmax", "nn.layer_norm", "nn.elu",
                             "tensor.relu", "tensor.tanh", "tensor.sigmoid", "tensor.exp")),
)
OTHER_COMPONENT = "other autograd ops"


def _sage_minibatch_config(profile: Profile):
    """The paper's scalability configuration for GCMAE (Section 4.4)."""
    return gcmae_config(
        profile,
        conv_type="sage",
        activation="relu",
        subgraph_threshold=0,   # always mini-batch, as on the paper's Reddit
        subgraph_size=256,
        steps_per_epoch=2,
    )


def run_table9(
    profile: Optional[Profile] = None,
    datasets: Optional[List[str]] = None,
    methods: Optional[List[str]] = None,
    jobs: Optional[int] = None,
) -> ExperimentTable:
    """Reproduce Table 9: pretraining + probe wall-clock seconds."""
    profile = profile if profile is not None else current_profile()
    datasets = datasets if datasets is not None else node_task_datasets(profile)
    methods = list(methods) if methods is not None else list(TIMED_METHODS)

    table = ExperimentTable(
        name="Table 9 — end-to-end training time (seconds, CPU substrate)",
        rows=methods,
        columns=list(datasets),
    )
    seed = 0
    cells: List[Tuple[str, str]] = [
        (method_name, dataset_name)
        for method_name in methods
        for dataset_name in datasets
    ]

    def run_cell(cell: Tuple[str, str]) -> float:
        method_name, dataset_name = cell
        graph = load_node_dataset(dataset_name, seed=seed)
        if method_name == "GCMAE (sage)":
            key = f"t9-gcmae-sage-{dataset_name}-{seed}-{profile.name}"
            config = _sage_minibatch_config(profile)
            with trace_span(f"table9/{method_name}/{dataset_name}/seed{seed}"):
                result = cached_fit(
                    key, lambda: GCMAEMethod(config).fit(graph, seed=seed)
                )
        else:
            with trace_span(f"table9/{method_name}/{dataset_name}/seed{seed}"):
                result = fit_node_method(method_name, dataset_name, seed, profile)
        probe_start = time.perf_counter()
        evaluate_probe(
            result.embeddings, graph.labels, graph.train_mask, graph.test_mask
        )
        probe_seconds = time.perf_counter() - probe_start
        return result.train_seconds + probe_seconds

    seconds = run_cells(cells, run_cell, jobs=jobs, label="table9")
    for (method_name, dataset_name), value in zip(cells, seconds):
        table.set(method_name, dataset_name, [value])

    table.notes.append(
        "paper ordering: CCA-SSG fastest; GraphMAE slowest (full-graph GAT); "
        "GCMAE in its SAGE/mini-batch configuration lands between MaskGAE "
        "and GraphMAE. The accuracy-tuned GAT configuration of Tables 4-6 "
        "pays GraphMAE-tier attention cost at this (full-batch) scale."
    )
    return table


def profile_gcmae_components(
    dataset_name: str = "cora-like",
    epochs: int = 5,
    seed: int = 0,
    profile: Optional[Profile] = None,
    **config_overrides,
) -> Dict[str, float]:
    """Component seconds of a short profiled GCMAE train on one dataset.

    Runs ``epochs`` of GCMAE in the paper's Table 9 scalability
    configuration (SAGE + mini-batching) under an op-level
    :func:`repro.nn.profiler.profile` session and folds the per-op totals
    into the :data:`COMPONENT_GROUPS` buckets.  This is what turns Table 9's
    end-to-end stopwatch numbers into a per-component cost story.
    """
    profile = profile if profile is not None else current_profile()
    config = _sage_minibatch_config(profile).with_overrides(
        epochs=epochs, **config_overrides
    )
    graph = load_node_dataset(dataset_name, seed=seed)
    with nn_profiler.profile() as prof:
        with trace_span(f"table9/components/{dataset_name}"):
            train_gcmae(graph, config, seed=seed)
    breakdown = {name: 0.0 for name, _ in COMPONENT_GROUPS}
    breakdown[OTHER_COMPONENT] = 0.0
    for stat in prof.op_stats(group_backward=True):
        for name, ops in COMPONENT_GROUPS:
            if stat.name in ops:
                breakdown[name] += stat.seconds
                break
        else:
            breakdown[OTHER_COMPONENT] += stat.seconds
    return breakdown


def run_table9_breakdown(
    profile: Optional[Profile] = None,
    datasets: Optional[List[str]] = None,
    epochs: int = 5,
    jobs: Optional[int] = None,
) -> ExperimentTable:
    """Companion to Table 9: profiler-derived per-component milliseconds.

    Rows are cost components, columns datasets; cells are milliseconds spent
    in each component over a short profiled GCMAE train (forward and
    backward grouped).  Backs the paper's relative-cost narrative with real
    op-level timings instead of end-to-end wall clock alone.
    """
    profile = profile if profile is not None else current_profile()
    datasets = datasets if datasets is not None else node_task_datasets(profile)
    rows = [name for name, _ in COMPONENT_GROUPS] + [OTHER_COMPONENT]
    table = ExperimentTable(
        name=f"Table 9 companion — component breakdown (ms, {epochs} profiled epochs)",
        rows=rows,
        columns=list(datasets),
    )
    def run_cell(dataset_name: str) -> Dict[str, float]:
        return profile_gcmae_components(dataset_name, epochs=epochs, profile=profile)

    breakdowns = run_cells(list(datasets), run_cell, jobs=jobs, label="table9_breakdown")
    for dataset_name, breakdown in zip(datasets, breakdowns):
        for component, seconds in breakdown.items():
            table.set(component, dataset_name, [seconds * 1e3])
    table.notes.append(
        "profiler-derived (repro.nn.profiler); per-op forward+backward times "
        "grouped into components, so relative cost is explained by mechanism "
        "rather than stopwatch totals."
    )
    return table
