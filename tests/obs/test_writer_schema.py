"""Tests for persisted runs: RunWriter, telemetry_run, and the schemas.

The round-trip tests are the executable form of ``docs/OBSERVABILITY.md``:
every event and manifest a real run writes must validate against
``repro.obs.schema``, so the documented shapes cannot drift from the code.
"""

import json

import numpy as np
import pytest

from repro.core.config import GCMAEConfig
from repro.core.trainer import train_gcmae
from repro.graph.datasets import load_node_dataset
from repro.nn.kernels import thread_budget
from repro.nn.profiler import profile
from repro.obs import (
    RunWriter,
    SchemaError,
    config_dict,
    emit_counter,
    emit_epoch,
    load_run,
    make_run_id,
    telemetry_run,
    trace_span,
    validate_event,
    validate_manifest,
)

TINY_CONFIG = GCMAEConfig(
    conv_type="gcn",
    heads=1,
    hidden_dim=16,
    embed_dim=16,
    epochs=2,
)


class TestRunIdAndConfig:
    def test_run_id_slugs_and_varies(self):
        a = make_run_id("GCMAE (sage)", "cora-like", 3)
        assert a.startswith("GCMAE__sage_-cora-like-s3-")
        assert "/" not in a and " " not in a
        assert a != make_run_id("GCMAE (sage)", "cora-like", 3)

    def test_config_dict_from_dataclass(self):
        payload = config_dict(TINY_CONFIG)
        assert payload["hidden_dim"] == 16
        assert payload["conv_type"] == "gcn"
        assert all(
            isinstance(v, (bool, int, float, str, list, type(None)))
            for v in payload.values()
        )

    def test_config_dict_from_object_skips_private_and_reprs_rest(self):
        class Method:
            def __init__(self):
                self.epochs = 5
                self.rate = 0.5
                self.array = np.zeros(3)
                self._private = "hidden"

        payload = config_dict(Method())
        assert payload == {"epochs": 5, "rate": 0.5, "array": repr(np.zeros(3))}

    def test_config_dict_none(self):
        assert config_dict(None) == {}


class TestTelemetryRun:
    def test_full_run_round_trips_through_schema(self, tmp_path):
        graph = load_node_dataset("cora-like", seed=0)
        with profile():
            with telemetry_run(
                tmp_path,
                method="GCMAE",
                dataset="cora-like",
                seed=0,
                config=TINY_CONFIG,
            ) as rec:
                with trace_span("test/GCMAE"):
                    train_gcmae(graph, TINY_CONFIG, seed=0)
                emit_counter("table7.oom", method="MVGRL")
        run_dir = tmp_path / rec.run_id
        manifest = json.loads((run_dir / "manifest.json").read_text())
        validate_manifest(manifest)
        assert manifest["status"] == "ok"
        assert manifest["config"]["hidden_dim"] == 16
        assert manifest["threads"] == thread_budget()
        assert manifest["summary"]["epochs"] == 2
        events = [
            json.loads(line)
            for line in (run_dir / "events.jsonl").read_text().splitlines()
        ]
        assert events, "run emitted no events"
        for event in events:
            validate_event(event)
        types = {e["type"] for e in events}
        assert {"epoch", "span", "counter", "gauge"} <= types

    def test_memory_error_marks_oom(self, tmp_path):
        with pytest.raises(MemoryError):
            with telemetry_run(tmp_path, method="MVGRL", dataset="x") as rec:
                emit_epoch("MVGRL", 0, 1.0)
                raise MemoryError("dense diffusion too large")
        manifest = json.loads(
            (tmp_path / rec.run_id / "manifest.json").read_text()
        )
        validate_manifest(manifest)
        assert manifest["status"] == "oom"
        assert "dense diffusion" in manifest["error"]
        assert manifest["summary"]["epochs"] == 1  # events up to the OOM kept

    def test_other_exception_marks_error(self, tmp_path):
        with pytest.raises(ValueError):
            with telemetry_run(tmp_path, method="X", dataset="y") as rec:
                raise ValueError("boom")
        manifest = json.loads(
            (tmp_path / rec.run_id / "manifest.json").read_text()
        )
        assert manifest["status"] == "error"
        assert manifest["error"] == "ValueError: boom"

    def test_manifest_atomic_no_tmp_left_behind(self, tmp_path):
        with telemetry_run(tmp_path, method="X", dataset="y") as rec:
            pass
        run_dir = tmp_path / rec.run_id
        assert sorted(p.name for p in run_dir.iterdir()) == [
            "events.jsonl", "manifest.json",
        ]

    def test_events_flushed_line_buffered_before_close(self, tmp_path):
        """A live tail must see each epoch row without waiting for finish()."""
        with telemetry_run(tmp_path, method="X", dataset="y") as rec:
            emit_epoch("X", 0, 1.0)
            events_path = tmp_path / rec.run_id / "events.jsonl"
            lines = events_path.read_text().splitlines()
            epoch_rows = [
                json.loads(line) for line in lines
                if json.loads(line)["type"] == "epoch"
            ]
            assert [e["epoch"] for e in epoch_rows] == [0]
            assert lines[-1].endswith("}")  # no partial trailing line

    def test_reader_skips_truncated_lines(self, tmp_path):
        with telemetry_run(tmp_path, method="X", dataset="y") as rec:
            emit_epoch("X", 0, 1.0)
            emit_epoch("X", 1, 0.5)
        events_path = tmp_path / rec.run_id / "events.jsonl"
        with open(events_path, "a") as handle:
            handle.write('{"type": "epoch", "trunc')  # simulated crash
        run = load_run(tmp_path / rec.run_id)
        assert [e["epoch"] for e in run.epochs] == [0, 1]


class TestSchemaValidation:
    def test_unknown_event_type_rejected(self):
        with pytest.raises(SchemaError, match="unknown event type"):
            validate_event({"type": "mystery", "ts": 0.0})

    def test_missing_required_field_rejected(self):
        with pytest.raises(SchemaError, match="missing required field"):
            validate_event({"type": "counter", "ts": 0.0, "value": 1.0, "tags": {}})

    def test_unknown_field_rejected(self):
        with pytest.raises(SchemaError, match="unknown fields"):
            validate_event(
                {"type": "gauge", "ts": 0.0, "name": "x", "value": 1.0,
                 "tags": {}, "extra": True}
            )

    def test_wrong_type_rejected(self):
        with pytest.raises(SchemaError, match="field 'value'"):
            validate_event(
                {"type": "gauge", "ts": 0.0, "name": "x", "value": "high",
                 "tags": {}}
            )

    def test_non_numeric_parts_rejected(self):
        event = {
            "type": "epoch", "ts": 0.0, "method": "X", "epoch": 0,
            "loss": 1.0, "parts": {"sce": "low"}, "grad_norms": {},
            "update_ratio": None, "epoch_seconds": 0.1, "bytes_touched": None,
        }
        with pytest.raises(SchemaError, match="str -> number"):
            validate_event(event)

    def test_bad_health_status_rejected(self):
        event = {
            "type": "health", "ts": 0.0, "method": "X", "epoch": 0,
            "status": "melted", "metrics": {}, "anomalies": [],
        }
        with pytest.raises(SchemaError, match="status"):
            validate_event(event)

    def test_health_event_validates(self):
        validate_event({
            "type": "health", "ts": 0.0, "method": "X", "epoch": 3,
            "status": "warn", "metrics": {"effective_rank": 5.0},
            "anomalies": ["plateau"],
        })

    def test_diverged_manifest_status_accepted(self):
        manifest = {
            "schema_version": 1, "run_id": "r", "method": "m", "dataset": "d",
            "seed": 0, "config": {}, "package_version": "1.0.0",
            "started_at": "now", "ended_at": None, "status": "diverged",
        }
        validate_manifest(manifest)

    def test_threads_field_validated(self):
        manifest = {
            "schema_version": 1, "run_id": "r", "method": "m", "dataset": "d",
            "seed": 0, "config": {}, "package_version": "1.0.0",
            "started_at": "now", "ended_at": None, "status": "ok",
            "threads": {"budget": 2, "numpy_blas": 2, "scipy_blas": None},
        }
        validate_manifest(manifest)
        manifest["threads"] = {"budget": "2", "numpy_blas": 2, "scipy_blas": 2}
        with pytest.raises(SchemaError, match="threads"):
            validate_manifest(manifest)

    def test_bad_manifest_status_rejected(self):
        manifest = {
            "schema_version": 1, "run_id": "r", "method": "m", "dataset": "d",
            "seed": 0, "config": {}, "package_version": "1.0.0",
            "started_at": "now", "ended_at": None, "status": "exploded",
        }
        with pytest.raises(SchemaError, match="status"):
            validate_manifest(manifest)

    def test_writer_events_validate_as_written(self, tmp_path):
        writer = RunWriter(tmp_path, method="m", dataset="d")
        writer.write_event("counter", name="x", value=2.0, tags={})
        writer.finish()
        for line in (writer.directory / "events.jsonl").read_text().splitlines():
            validate_event(json.loads(line))
        validate_manifest(json.loads((writer.directory / "manifest.json").read_text()))
