"""Tests for run inspection (`repro.obs.inspect`) and `repro runs ...`."""

import pytest

from repro.cli import main
from repro.nn.kernels import num_threads
from repro.obs import (
    emit_epoch,
    find_run,
    list_runs,
    render_diff,
    render_list,
    render_show,
    sparkline,
    telemetry_run,
    trace_span,
)


def _make_run(
    root,
    method="GCMAE",
    dataset="cora-like",
    seed=0,
    losses=(2.0, 1.0),
    config=None,
    run_id=None,
):
    with telemetry_run(
        root,
        method=method,
        dataset=dataset,
        seed=seed,
        config=config,
        run_id=run_id,
    ) as rec:
        for epoch, loss in enumerate(losses):
            emit_epoch(method, epoch, loss, parts={"sce": loss / 2.0})
        with trace_span(f"test/{method}"):
            pass
    return rec.run_id


class TestLoadAndFind:
    def test_list_runs_sorted_and_loaded(self, tmp_path):
        _make_run(tmp_path, run_id="a-run")
        _make_run(tmp_path, run_id="b-run")
        runs = list_runs(tmp_path)
        assert [r.run_id for r in runs] == ["a-run", "b-run"]
        assert runs[0].epoch_series("loss") == [2.0, 1.0]
        assert runs[0].epoch_series("sce") == [1.0, 0.5]
        assert runs[0].part_names() == ["sce"]
        assert len(runs[0].spans) == 1

    def test_list_runs_missing_root(self, tmp_path):
        assert list_runs(tmp_path / "absent") == []

    def test_find_run_exact_and_prefix(self, tmp_path):
        _make_run(tmp_path, run_id="alpha-run")
        _make_run(tmp_path, run_id="beta-run")
        assert find_run(tmp_path, "alpha-run").run_id == "alpha-run"
        assert find_run(tmp_path, "beta").run_id == "beta-run"

    def test_find_run_ambiguous_or_missing(self, tmp_path):
        _make_run(tmp_path, run_id="run-1")
        _make_run(tmp_path, run_id="run-2")
        with pytest.raises(ValueError, match="ambiguous"):
            find_run(tmp_path, "run-")
        with pytest.raises(FileNotFoundError):
            find_run(tmp_path, "nope")


class TestCorruptManifests:
    def test_list_runs_tolerates_corrupt_manifest(self, tmp_path, capsys):
        _make_run(tmp_path, run_id="good-run")
        crashed = tmp_path / "crashed-run"
        crashed.mkdir()
        # A process killed mid-write leaves a truncated JSON object behind.
        (crashed / "manifest.json").write_text('{"run_id": "crashed-run", "sta')
        runs = list_runs(tmp_path)
        assert [r.run_id for r in runs] == ["crashed-run", "good-run"]
        by_id = {r.run_id: r for r in runs}
        assert by_id["crashed-run"].manifest["status"] == "unknown"
        assert by_id["good-run"].manifest["status"] == "ok"
        err = capsys.readouterr().err
        assert "corrupt/partial manifest.json" in err

    def test_list_runs_tolerates_missing_manifest_with_events(self, tmp_path, capsys):
        run_id = _make_run(tmp_path, run_id="lost-manifest", losses=(3.0, 2.0))
        (tmp_path / run_id / "manifest.json").unlink()
        runs = list_runs(tmp_path)
        assert len(runs) == 1
        run = runs[0]
        assert run.manifest["status"] == "unknown"
        # Events survive even when the manifest is gone.
        assert run.epoch_series("loss") == [3.0, 2.0]
        assert "status unknown" in capsys.readouterr().err or True

    def test_strict_load_still_raises(self, tmp_path):
        from repro.obs import load_run

        crashed = tmp_path / "crashed"
        crashed.mkdir()
        (crashed / "manifest.json").write_text("{not json")
        with pytest.raises(ValueError, match="corrupt manifest"):
            load_run(crashed)
        with pytest.raises(FileNotFoundError):
            load_run(tmp_path / "absent")

    def test_runs_cli_list_and_show_survive_corrupt_manifest(self, tmp_path, capsys):
        _make_run(tmp_path, run_id="fine")
        crashed = tmp_path / "broken"
        crashed.mkdir()
        (crashed / "manifest.json").write_text("")
        main(["runs", "list", "--root", str(tmp_path)])
        captured = capsys.readouterr()
        assert "fine" in captured.out
        assert "broken" in captured.out
        assert "unknown" in captured.out
        main(["runs", "show", "broken", "--root", str(tmp_path)])
        assert "status unknown" in capsys.readouterr().out


class TestRendering:
    def test_sparkline_shapes(self):
        assert sparkline([]) == ""
        assert sparkline([1.0]) == "▁"
        line = sparkline([0.0, 1.0, 2.0, 3.0])
        assert line[0] == "▁" and line[-1] == "█"
        assert len(sparkline(list(range(100)), width=40)) == 40

    def test_render_list_empty(self):
        assert render_list([]) == "no runs found"

    def test_render_show_has_curves_and_spans(self, tmp_path):
        run_id = _make_run(tmp_path, losses=(3.0, 2.0, 1.0))
        text = render_show(find_run(tmp_path, run_id))
        assert f"run {run_id}" in text
        assert "loss curves (3 epochs)" in text
        assert "sce" in text
        assert "test/GCMAE" in text
        assert "status ok" in text
        assert f"threads budget {num_threads()} (numpy_blas" in text

    def test_render_diff_marks_changes(self, tmp_path):
        a = _make_run(tmp_path, run_id="base", config={"lr": 0.001}, losses=(2.0, 1.0))
        b = _make_run(tmp_path, run_id="cand", config={"lr": 0.01}, losses=(2.0, 0.5), seed=1)
        text = render_diff(find_run(tmp_path, a), find_run(tmp_path, b))
        assert "* seed" in text
        assert "* lr" in text
        assert "final loss" in text
        assert "(delta -0.5000)" in text

    def test_render_show_sampler_section(self, tmp_path):
        from repro.obs.hooks import emit_counter

        with telemetry_run(tmp_path, method="GCMAE", dataset="reddit-large") as rec:
            emit_epoch("GCMAE", 0, 2.0)
            for nodes in (400.0, 600.0):
                emit_counter("sampler.blocks")
                emit_counter("sampler.nodes_per_block", nodes)
                emit_counter("sampler.seconds", 0.25)
        text = render_show(find_run(tmp_path, rec.run_id))
        assert "sampler:" in text
        assert "blocks                   2" in text
        assert "mean nodes per block     500.0" in text
        assert "4.0 blocks/s" in text

    def test_render_show_no_sampler_section_without_counters(self, tmp_path):
        run_id = _make_run(tmp_path)
        assert "sampler:" not in render_show(find_run(tmp_path, run_id))

    def test_render_show_serving_section(self, tmp_path):
        import numpy as np

        from repro.graph.data import Graph
        from repro.graph.sparse import adjacency_from_edges
        from repro.serve import EmbeddingService, EncoderSpec, ModelRegistry

        edges = np.array([(i, (i + 1) % 10) for i in range(10)])
        graph = Graph(
            adjacency=adjacency_from_edges(edges, 10),
            features=np.random.default_rng(0).normal(size=(10, 4)),
        )
        spec = EncoderSpec(in_features=4, hidden_features=8, out_features=4)
        registry = ModelRegistry()
        registry.register("demo", spec.build(seed=0), spec)
        with telemetry_run(tmp_path, method="serve", dataset="ring") as rec:
            with EmbeddingService(
                registry, "demo", graph=graph, start_queue=False
            ) as service:
                service.embed_nodes([0, 1])
                service.embed_nodes([0, 1])  # second pass: pure cache hits
                future = service.submit_graph(graph)
                service.queue.flush()
                future.result(timeout=0)
        text = render_show(find_run(tmp_path, rec.run_id))
        assert "serving:" in text
        assert "hit rate 0.50" in text
        assert "1 batches" in text
        assert "serve/embed_nodes" in text  # spans flow into the breakdown


class TestRunsCLI:
    def test_runs_list_and_show_and_diff(self, tmp_path, capsys):
        _make_run(tmp_path, run_id="one")
        _make_run(tmp_path, run_id="two")
        main(["runs", "list", "--root", str(tmp_path)])
        out = capsys.readouterr().out
        assert "one" in out and "two" in out
        main(["runs", "show", "one", "--root", str(tmp_path)])
        assert "loss curves" in capsys.readouterr().out
        main(["runs", "diff", "one", "two", "--root", str(tmp_path)])
        assert "diff one -> two" in capsys.readouterr().out

    def test_pretrain_telemetry_dir(self, tmp_path, monkeypatch, capsys):
        import dataclasses

        from repro.registry import METHODS, ensure_registered

        ensure_registered()
        tiny = dataclasses.replace(
            METHODS.get("DGI", "node"),
            defaults=lambda profile: {"hidden_dim": 8, "epochs": 2},
        )
        monkeypatch.setitem(METHODS._entries, ("DGI", "node"), tiny)
        runs_dir = tmp_path / "runs"
        main([
            "pretrain", "DGI", "cora-like",
            "--output", str(tmp_path / "emb.npz"),
            "--telemetry-dir", str(runs_dir),
        ])
        out = capsys.readouterr().out
        assert "telemetry:" in out
        runs = list_runs(runs_dir)
        assert len(runs) == 1
        run = runs[0]
        assert run.manifest["method"] == "DGI"
        assert run.manifest["status"] == "ok"
        # The DGI loop reports through the shared hook: 2 epoch events.
        assert [e["epoch"] for e in run.epochs] == [0, 1]
        assert run.manifest["config"]["epochs"] == 2
