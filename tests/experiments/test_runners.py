"""Integration tests: every table/figure runner executes end-to-end.

These use a micro profile (tiny dims, 1-2 epochs) — they validate plumbing,
shapes, and annotations, not accuracy (the benchmarks do that).
"""

import numpy as np
import pytest

from repro.experiments import (
    ABLATION_ROWS,
    Profile,
    VARIANT_ROWS,
    run_figure1,
    run_figure4,
    run_figure5,
    run_figure6,
    run_table10,
    run_table4,
    run_table5,
    run_table6,
    run_table7,
    run_table8,
    run_table9,
)
from repro.experiments.efficiency import COMPONENT_GROUPS
from repro.gnn import GATConv
from repro.graph.sparse import adjacency_from_edges
from repro.nn import Tensor, profiler
from repro.obs import record

MICRO = Profile(
    name="micro",
    hidden_dim=16,
    epochs=2,
    gcmae_epochs=2,
    num_seeds=1,
    graph_epochs=2,
    include_reddit=False,
)


@pytest.fixture(autouse=True)
def no_cache(monkeypatch):
    monkeypatch.setenv("REPRO_NO_CACHE", "1")


class TestTableRunners:
    def test_table4(self):
        table = run_table4(
            profile=MICRO,
            datasets=["cora-like"],
            methods=["DGI", "GCMAE"],
            include_supervised=True,
        )
        assert table.get("GCN", "cora-like") is not None
        assert table.get("GCMAE", "cora-like") is not None
        assert any("best on" in note for note in table.notes)

    def test_table4_without_supervised(self):
        table = run_table4(
            profile=MICRO,
            datasets=["cora-like"],
            methods=["DGI"],
            include_supervised=False,
        )
        assert "GCN" not in table.rows

    def test_table5(self):
        table = run_table5(
            profile=MICRO, datasets=["cora-like"], methods=["MaskGAE", "GCMAE"]
        )
        cell = table.get("MaskGAE", "cora-like:AUC")
        assert cell is not None and 0 <= cell.mean <= 100

    def test_table6(self):
        table = run_table6(
            profile=MICRO,
            datasets=["cora-like"],
            methods=["DGI", "GCMAE"],
            include_clustering_specialists=False,
        )
        assert table.get("GCMAE", "cora-like:NMI") is not None
        assert table.get("GCMAE", "cora-like:ARI") is not None

    def test_table6_with_specialists(self):
        table = run_table6(
            profile=MICRO,
            datasets=["cora-like"],
            methods=["DGI"],
            include_clustering_specialists=True,
        )
        assert table.get("GCC", "cora-like:NMI") is not None

    def test_table7(self):
        table = run_table7(
            profile=MICRO, datasets=["mutag-like"], methods=["GraphCL", "GCMAE"]
        )
        assert table.get("GCMAE", "mutag-like") is not None

    def test_table7_oom_on_later_seed_voids_cell(self, monkeypatch):
        """An OOM on any seed marks the whole cell OOM — earlier seeds'
        scores must not be reported as a partial mean."""
        from repro.registry import METHODS, MethodEntry, derive_config_class

        class FlakyMethod:
            calls = 0

            def fit_graphs(self, dataset, seed=0):
                type(self).calls += 1
                if seed > 0:
                    raise MemoryError("simulated OOM on the second seed")
                import numpy as np
                from repro.core.base import EmbeddingResult
                rng = np.random.default_rng(seed)
                return EmbeddingResult(
                    rng.normal(size=(len(dataset), 4)), 0.0, [1.0]
                )

            name = "Flaky"

        monkeypatch.setitem(
            METHODS._entries,
            ("Flaky", "graph"),
            MethodEntry(
                name="Flaky",
                protocol="graph",
                tags=("contrastive",),
                order=999.0,
                seq=999,
                cls=FlakyMethod,
                config_cls=derive_config_class(FlakyMethod),
                defaults=None,
                builder=lambda cfg: FlakyMethod(),
            ),
        )
        two_seeds = Profile(
            name="micro2",
            hidden_dim=16,
            epochs=2,
            gcmae_epochs=2,
            num_seeds=2,
            graph_epochs=2,
            include_reddit=False,
        )
        table = run_table7(
            profile=two_seeds, datasets=["mutag-like"], methods=["Flaky"]
        )
        assert FlakyMethod.calls == 2  # first seed scored, second OOMed
        assert table.get("Flaky", "mutag-like") is None
        assert table.missing[("Flaky", "mutag-like")] == "OOM"

    def test_table8(self):
        table = run_table8(profile=MICRO, datasets=["cora-like"])
        for row in VARIANT_ROWS:
            assert table.get(row, "cora-like") is not None

    def test_table9(self):
        table = run_table9(
            profile=MICRO, datasets=["cora-like"], methods=["CCA-SSG", "GCMAE"]
        )
        cell = table.get("GCMAE", "cora-like")
        assert cell is not None and cell.mean > 0

    def test_table9_spans_are_its_own(self):
        with record() as rec:
            run_table9(
                profile=MICRO, datasets=["cora-like"], methods=["CCA-SSG", "GCMAE"]
            )
        names = [span.name for span in rec.spans]
        assert names == [
            "table9/CCA-SSG/cora-like/seed0",
            "table9/GCMAE/cora-like/seed0",
        ]
        assert not any("table4/" in name for name in names)

    def test_table9_groups_every_gat_graph_kernel(self):
        # A graph kernel missing from COMPONENT_GROUPS would silently land
        # in "other autograd ops" in the Table 9 breakdown.
        adjacency = adjacency_from_edges(np.array([(0, 1), (1, 2), (2, 3)]), 4)
        conv = GATConv(3, 2, heads=2, rng=np.random.default_rng(0))
        with profiler.profile() as prof:
            x = Tensor(np.ones((4, 3)), requires_grad=True)
            conv(adjacency, x).sum().backward()
        emitted = {s.name for s in prof.op_stats(group_backward=True)}
        grouped = {op for _, ops in COMPONENT_GROUPS for op in ops}
        graph_ops = {name for name in emitted if name.startswith("graph.")}
        assert "graph.gat.aggregate" in graph_ops
        assert graph_ops <= grouped

    def test_table10(self):
        table = run_table10(profile=MICRO, datasets=["cora-like"])
        for row in ABLATION_ROWS:
            assert table.get(row, "cora-like") is not None


class TestFigureRunners:
    def test_figure1_panels(self):
        panels = run_figure1(profile=MICRO, tsne_iterations=30)
        assert [p.method for p in panels] == ["GCMAE", "GraphMAE", "CCA-SSG"]
        for panel in panels:
            assert panel.coordinates.shape[1] == 2
            assert 0.0 <= panel.nmi <= 1.0

    def test_figure4_series(self):
        figure = run_figure4(profile=MICRO, num_targets=5, probe_every=1)
        assert set(figure.series) == {"GCMAE", "GraphMAE"}
        for points in figure.series.values():
            assert len(points) == MICRO.gcmae_epochs

    def test_figure5_grid(self):
        figure = run_figure5(
            profile=MICRO, mask_rates=(0.3, 0.6), drop_rates=(0.0, 0.2)
        )
        assert set(figure.series) == {"p_drop=0", "p_drop=0.2"}
        assert all(len(points) == 2 for points in figure.series.values())

    def test_figure6_sweeps(self):
        figure = run_figure6(profile=MICRO, widths=(8, 16), depths=(1, 2))
        assert set(figure.series) == {"width", "depth"}
        assert sorted(figure.series["width"]) == [8, 16]
