"""Tests of the benchmark's own arithmetic and of its tracing hygiene.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import stats  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import CellClock  # noqa: E402


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def sleep(self, seconds: float) -> None:
        self.now += seconds


# -- the "highest percentile with ten samples beyond" rule ---------------
@pytest.mark.parametrize(
    "count, expected",
    [
        (19, None),
        (20, 50.0),
        (39, 50.0),
        (40, 75.0),
        (50, 80.0),
        (99, 80.0),
        (100, 90.0),
        (200, 95.0),
        (500, 98.0),
        (999, 98.0),
        (1000, 99.0),
        (10**6, 99.0),
    ],
)
def test_tail_percentile_keeps_ten_samples_beyond(count, expected):
    assert stats.tail_percentile(count) == expected
    if expected is not None:
        assert count * (100.0 - expected) / 100.0 >= 10.0 - 1e-9


def test_tail_falls_back_to_max_below_twenty_samples():
    values = list(range(1, 11))
    assert stats.tail(values) == (10.0, "max")
    value, label = stats.tail(list(range(50)))
    assert label == "p80"
    assert value == pytest.approx(np.percentile(np.arange(50), 80))


# -- open-loop schedule and lateness --------------------------------------
def test_poisson_schedule_is_seeded_increasing_and_at_rate():
    a = stats.poisson_schedule(500.0, 20000, np.random.default_rng(7))
    b = stats.poisson_schedule(500.0, 20000, np.random.default_rng(7))
    assert np.array_equal(a, b)
    assert np.all(np.diff(a) > 0)
    assert a[-1] / a.size == pytest.approx(1 / 500.0, rel=0.03)


def test_stall_is_charged_to_the_requests_behind_it():
    clock = FakeClock()
    latency = {}

    def issue(index, due):
        if index == 1:
            clock.now += 0.025  # a synchronous miss forward
        latency[index] = clock.now - due

    start, late = stats.drive_open_loop(
        [0.0, 0.010, 0.020, 0.030, 0.050], issue, clock=clock, sleep=clock.sleep
    )
    assert start == 0.0
    # Request 1 goes out on time but takes 25 ms; 2 and 3 wait behind it.
    assert late == pytest.approx([0.0, 0.0, 0.015, 0.005, 0.0])
    assert latency == pytest.approx({0: 0.0, 1: 0.025, 2: 0.015, 3: 0.005, 4: 0.0})


# -- self times ------------------------------------------------------------
def test_self_time_subtracts_nested_spans_and_reconciles():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    with tracer.root():
        clock.now = 10.0
        outer = tracer.enter("outer")
        clock.now = 20.0
        inner = tracer.enter("inner")
        clock.now = 40.0
        tracer.exit(inner)
        clock.now = 60.0
        tracer.exit(outer)
        clock.now = 70.0
        again = tracer.enter("inner")
        clock.now = 75.0
        tracer.exit(again)
        clock.now = 100.0
    assert tracer.self_s["outer"] == pytest.approx(30.0)
    assert tracer.self_s["inner"] == pytest.approx(25.0)
    assert tracer.calls["inner"] == 2
    assert tracer.root_wall == pytest.approx(100.0)
    assert tracer.root_self == pytest.approx(45.0)
    assert tracer.attributed + tracer.root_self == pytest.approx(tracer.root_wall)


def test_spans_outside_a_root_count_calls_but_no_self_time():
    clock = FakeClock()
    tracer = Tracer(clock=clock)
    frame = tracer.enter("worker")
    clock.now = 5.0
    tracer.exit(frame, keep_duration=True)
    assert tracer.calls["worker"] == 1 and tracer.durations["worker"] == [5.0]
    assert "worker" not in tracer.self_s
    assert tracer.attributed == 0.0 and tracer.root_wall == 0.0


def test_wrapped_function_records_and_returns():
    clock = FakeClock()
    tracer = Tracer(clock=clock)

    def work(x):
        clock.now += 2.0
        return x * 3

    wrapped = tracer.timed(work, "work", keep_duration=True)
    assert wrapped(4) == 12
    assert tracer.durations["work"] == [2.0]
    assert wrapped.__perfbench_original__ is work


def test_forget_drops_the_durations_kept_so_far():
    tracer = Tracer(clock=FakeClock())
    tracer.sample("serve.forward", 1.0)
    tracer.forget("serve.forward")
    tracer.sample("serve.forward", 2.0)
    assert tracer.durations["serve.forward"] == [2.0]
    tracer.forget("never.recorded")


def test_traced_run_cells_makes_each_cell_a_root():
    import layers
    import repro.parallel

    tracer = Tracer()
    layers.install(tracer)
    try:
        assert repro.parallel.run_cells([1, 2, 3], lambda x: x * 2, jobs=1) == [2, 4, 6]
        with pytest.raises(RuntimeError):
            repro.parallel.run_cells([1, 2], lambda x: x, jobs=2)
    finally:
        tracer.uninstall()
    assert len(tracer.durations["parallel.cell"]) == 3
    assert tracer.root_wall > 0.0


# -- per-cell periods of the sweep ---------------------------------------------
def test_cell_clock_splits_the_sweep_into_one_period_per_cell():
    clock = FakeClock()
    cells = CellClock(clock=clock)
    for _cell in range(3):
        clock.now += 1.0  # set-up, and the previous cell's probe
        for epoch in range(2):
            clock.now += 0.5
            cells.on_epoch(SimpleNamespace(epoch=epoch))
    clock.now += 0.25  # the last cell's probe
    periods = cells.cell_cpu_ms()
    assert periods == pytest.approx([2000.0, 2000.0, 2250.0])
    assert sum(periods) == pytest.approx(clock.now * 1000.0)


# -- metric names ------------------------------------------------------------
@pytest.mark.parametrize("name", ["setup_s", "op.tensor.getitem.mb", "p99-ms", "9lives"])
def test_metric_name_accepts(name):
    assert stats.valid_metric_name(name)


@pytest.mark.parametrize("name", ["", ".hidden", "a b", "x/y", "ms%", "a" * 65, "é"])
def test_metric_name_rejects(name):
    assert not stats.valid_metric_name(name)


def test_benchmark_json_matches_the_emitted_metrics():
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in config["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in config["per_layer"]}
    assert end_to_end == run.END_TO_END
    assert per_layer == run.PER_LAYER
    from workloads import WORKLOADS

    assert [w["name"] for w in config["workloads"]] == list(WORKLOADS)
    for name in (*end_to_end, *per_layer, *WORKLOADS):
        assert stats.valid_metric_name(name), name


# -- traced runs leave the program untouched --------------------------------
def _repro_attributes():
    import inspect

    snapshot = {}
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            snapshot[(module_name, attr)] = value
            if inspect.isclass(value) and value.__module__ == module_name:
                for cls_attr, member in list(vars(value).items()):
                    snapshot[(module_name, attr, cls_attr)] = member
    return snapshot


def test_uninstall_restores_every_original_object():
    import layers

    layers.import_all()
    before = _repro_attributes()
    tracer = Tracer()
    layers.install(tracer)
    patched = tracer.installed()
    assert len(patched) > 20
    from repro.core import losses
    from repro.nn.tensor import Tensor

    assert losses.info_nce.__perfbench_original__ is before[("repro.core.losses", "info_nce")]
    assert hasattr(vars(Tensor)["backward"], "__perfbench_original__")
    tracer.uninstall()
    after = _repro_attributes()
    assert after.keys() == before.keys()
    changed = [key for key in before if after[key] is not before[key]]
    assert changed == []
    leftovers = [
        key for key, value in after.items() if hasattr(value, "__perfbench_original__")
    ]
    assert leftovers == []
