"""Tests for the perf-history store: record, trend, diff, regression check.

The acceptance contract: two recorded entries reproduce a trajectory, and
an injected slowdown on a known-direction metric is flagged against the
rolling median — but never across host fingerprints, and never for
direction-less metrics.
"""

import json

import pytest

from repro.nn.kernels import thread_budget
from repro.obs import history


HOST_A = {"hostname": "a", "machine": "x86_64", "system": "Linux", "python": "3", "cpus": 8}
HOST_B = {"hostname": "b", "machine": "arm64", "system": "Linux", "python": "3", "cpus": 4}


def write_bench(bench_dir, name, payload):
    bench_dir.mkdir(parents=True, exist_ok=True)
    (bench_dir / f"BENCH_{name}.json").write_text(json.dumps(payload))


def make_entry(timestamp, benches, host=HOST_A, commit="abc1234"):
    return {
        "schema_version": 1,
        "commit": commit,
        "timestamp": timestamp,
        "host": dict(host),
        "benches": benches,
    }


class TestMetricDirection:
    @pytest.mark.parametrize(
        "name, expected",
        [
            ("kernels.spmm.speedup", "higher"),
            ("serving.requests_per_second", "higher"),
            ("cache.hit_rate", "higher"),
            ("kernels.spmm.csr_seconds", "lower"),
            ("serving.p99_ms", "lower"),
            ("serving.warmup_ratio", "lower"),
            ("kernels.spmm.nnz", None),
            ("table4.accuracy", None),
        ],
    )
    def test_directions(self, name, expected):
        assert history.metric_direction(name) == expected


class TestRecordAndLoad:
    def test_record_appends_immutable_entries(self, tmp_path):
        bench = tmp_path / "benchmarks"
        write_bench(bench, "kernels", {"spmm": {"speedup": 3.0}})
        first = history.record_bench_history(bench)
        write_bench(bench, "kernels", {"spmm": {"speedup": 3.5}})
        second = history.record_bench_history(bench)
        assert first != second and first.parent == bench / "history"
        entries = history.load_history(bench / "history")
        assert len(entries) == 2
        assert [history.entry_metrics(e)["kernels.spmm.speedup"] for e in entries] == [
            3.0,
            3.5,
        ]
        for entry in entries:
            assert entry["commit"]
            assert entry["timestamp"]
            assert entry["host"]["hostname"]
            assert entry["threads"] == thread_budget()

    def test_same_second_records_keep_append_order(self, tmp_path):
        bench = tmp_path / "benchmarks"
        stamp = "2026-01-01T00:00:00Z"
        for value in (1.0, 2.0, 3.0):
            write_bench(bench, "kernels", {"speedup": value})
            history.record_bench_history(bench, timestamp=stamp)
        series = [
            value
            for _, value in history.metric_series(
                history.load_history(bench / "history"), "kernels.speedup"
            )
        ]
        assert series == [1.0, 2.0, 3.0]

    def test_nothing_to_record_returns_none(self, tmp_path):
        assert history.record_bench_history(tmp_path / "empty") is None

    def test_corrupt_entries_skipped(self, tmp_path):
        store = tmp_path / "history"
        store.mkdir()
        (store / "bad.json").write_text("{not json")
        (store / "good.json").write_text(
            json.dumps(make_entry("2026-01-01T00:00:00Z", {"k": {"v": 1.0}}))
        )
        assert len(history.load_history(store)) == 1


class TestFlatten:
    def test_numeric_leaves_only(self):
        flat = history.flatten_metrics(
            {"a": {"b": 1.5, "note": "text", "flag": True, "bad": float("nan")}, "c": 2}
        )
        assert flat == {"a.b": 1.5, "c": 2.0}


class TestDetectRegressions:
    def test_injected_slowdown_flagged(self):
        entries = [
            make_entry(f"2026-01-0{i}T00:00:00Z", {"k": {"spmm": {"speedup": 3.0}}})
            for i in range(1, 5)
        ]
        entries.append(
            make_entry("2026-01-05T00:00:00Z", {"k": {"spmm": {"speedup": 1.5}}})
        )
        found = history.detect_regressions(entries, threshold_pct=10.0)
        assert [r.metric for r in found] == ["k.spmm.speedup"]
        regression = found[0]
        assert regression.direction == "higher"
        assert regression.baseline == 3.0
        assert regression.change_pct == pytest.approx(50.0)
        assert "dropped" in regression.describe()

    def test_lower_is_better_direction(self):
        entries = [
            make_entry("2026-01-01T00:00:00Z", {"k": {"csr_seconds": 1.0}}),
            make_entry("2026-01-02T00:00:00Z", {"k": {"csr_seconds": 1.6}}),
        ]
        found = history.detect_regressions(entries, threshold_pct=10.0)
        assert [r.metric for r in found] == ["k.csr_seconds"]
        assert found[0].change_pct == pytest.approx(60.0)

    def test_improvement_and_noise_not_flagged(self):
        entries = [
            make_entry("2026-01-01T00:00:00Z", {"k": {"speedup": 3.0, "nnz": 100}}),
            make_entry("2026-01-02T00:00:00Z", {"k": {"speedup": 3.2, "nnz": 5}}),
        ]
        assert history.detect_regressions(entries, threshold_pct=10.0) == []

    def test_cross_host_entries_not_compared(self):
        entries = [
            make_entry("2026-01-01T00:00:00Z", {"k": {"speedup": 9.0}}, host=HOST_B),
            make_entry("2026-01-02T00:00:00Z", {"k": {"speedup": 1.0}}, host=HOST_A),
        ]
        assert history.detect_regressions(entries) == []
        assert len(history.detect_regressions(entries, same_host_only=False)) == 1

    def test_rolling_median_absorbs_one_outlier(self):
        values = [3.0, 3.1, 0.5, 3.0, 2.9]  # one glitchy historical entry
        entries = [
            make_entry(f"2026-01-0{i + 1}T00:00:00Z", {"k": {"speedup": v}})
            for i, v in enumerate(values)
        ]
        entries.append(make_entry("2026-01-06T00:00:00Z", {"k": {"speedup": 2.95}}))
        assert history.detect_regressions(entries, threshold_pct=10.0, window=5) == []

    def test_fewer_than_two_entries_pass(self):
        assert history.detect_regressions([]) == []
        assert (
            history.detect_regressions([make_entry("2026-01-01T00:00:00Z", {"k": {"s": 1}})])
            == []
        )


class TestRendering:
    def test_trend_reproduces_trajectory(self):
        entries = [
            make_entry("2026-01-01T00:00:00Z", {"k": {"speedup": 1.0}}),
            make_entry("2026-01-02T00:00:00Z", {"k": {"speedup": 2.0}}),
            make_entry("2026-01-03T00:00:00Z", {"k": {"speedup": 4.0}}),
        ]
        text = history.render_trend(entries)
        assert "3 entries" in text
        assert "k.speedup" in text
        assert "+300.0%" in text

    def test_trend_empty_history(self):
        assert "no bench history" in history.render_trend([])

    def test_diff_marks_the_worse_side(self):
        a = make_entry("2026-01-01T00:00:00Z", {"k": {"speedup": 3.0, "csr_seconds": 1.0}})
        b = make_entry("2026-01-02T00:00:00Z", {"k": {"speedup": 1.0, "csr_seconds": 0.9}})
        text = history.render_history_diff(a, b)
        assert "* k.speedup" in text  # regressed: marked
        assert "* k.csr_seconds" not in text  # improved: unmarked
        assert "same host: yes" in text
        assert "same threads: unknown" in text

    def test_diff_shows_differing_thread_budgets(self):
        a = make_entry("2026-01-01T00:00:00Z", {"k": {"speedup": 1.0}})
        b = make_entry("2026-01-02T00:00:00Z", {"k": {"speedup": 1.0}})
        a["threads"] = {"budget": 1, "numpy_blas": 1, "scipy_blas": 1}
        b["threads"] = {"budget": 2, "numpy_blas": 2, "scipy_blas": None}
        text = history.render_history_diff(a, b)
        assert "same threads: no (budget 1 (numpy_blas 1, scipy_blas 1) -> " in text
        assert "budget 2 (numpy_blas 2, scipy_blas -))" in text
        b["threads"] = dict(a["threads"])
        assert "same threads: yes" in history.render_history_diff(a, b)

    def test_regressions_render(self):
        entries = [
            make_entry("2026-01-01T00:00:00Z", {"k": {"speedup": 3.0}}),
            make_entry("2026-01-02T00:00:00Z", {"k": {"speedup": 1.0}}),
        ]
        found = history.detect_regressions(entries)
        text = history.render_regressions(found, threshold_pct=10.0)
        assert "1 metric(s) regressed" in text and "k.speedup" in text
        assert "no regressions" in history.render_regressions([], threshold_pct=10.0)


class TestRealBenchArtifacts:
    def test_repo_bench_files_flatten_with_known_directions(self):
        """The repo's own BENCH_*.json artifacts stay detector-compatible."""
        benches = history.read_bench_files("benchmarks")
        if not benches:
            pytest.skip("no BENCH_*.json artifacts in this checkout")
        flat = history.flatten_metrics(benches)
        assert flat, "benchmark artifacts flattened to no numeric metrics"
        directed = [name for name in flat if history.metric_direction(name)]
        assert directed, "no benchmark metric has a known direction"
