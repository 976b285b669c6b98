"""The spec-driven table runners reproduce committed golden tables bit-for-bit.

``golden_tables.json`` was captured from the hand-rolled runners that
preceded the spec ports (Tables 4/5/6/7/10, the extension comparison and the
design ablation), at the ``MICRO2`` profile and the arguments below, with
the embedding cache off.  Every runner now emits a spec and executes it
through :func:`repro.spec.run_spec` under the old determinism label, so
rows, columns, marks, notes and every cell's mean and std must match with
``==`` on floats, not ``pytest.approx``.
"""

import json
from pathlib import Path

import pytest

from repro.experiments import (
    run_design_ablation,
    run_extension_comparison,
    run_table10,
    run_table4,
    run_table5,
    run_table6,
    run_table7,
    table5_spec,
    table6_spec,
)
from repro.experiments.profiles import Profile
from repro.spec import expand_spec

GOLDEN = json.loads((Path(__file__).parent / "golden_tables.json").read_text())

# Two seeds so per-cell stds (seed derivation) are exercised, not just means.
MICRO2 = Profile(
    name="micro",
    hidden_dim=16,
    epochs=2,
    gcmae_epochs=2,
    num_seeds=2,
    graph_epochs=2,
    include_reddit=False,
)

CASES = {
    "table4": (
        run_table4,
        dict(datasets=["cora-like"], methods=["DGI", "GCMAE"], include_supervised=True),
    ),
    "table5": (run_table5, dict(datasets=["cora-like"], methods=["DGI", "GCMAE"])),
    "table6": (
        run_table6,
        dict(
            datasets=["cora-like"],
            methods=["DGI", "GCMAE"],
            include_clustering_specialists=True,
        ),
    ),
    "table7": (run_table7, dict(datasets=["mutag-like"], methods=["GraphCL", "GCMAE"])),
    "table10": (run_table10, dict(datasets=["cora-like"])),
    "extension_comparison": (run_extension_comparison, dict(datasets=["cora-like"])),
    "design_ablation": (
        run_design_ablation,
        dict(
            datasets=["cora-like"],
            variants={
                "GCMAE (full)": {},
                "no contrast": {"use_contrastive": False},
                "L_E: bce only": {"structure_terms": ("bce",)},
            },
        ),
    ),
}


@pytest.fixture(autouse=True)
def no_cache(monkeypatch):
    monkeypatch.setenv("REPRO_NO_CACHE", "1")


def assert_matches_golden(name):
    runner, kwargs = CASES[name]
    table = runner(profile=MICRO2, **kwargs)
    golden = GOLDEN[name]
    assert table.name == golden["name"]
    assert table.rows == golden["rows"]
    assert table.columns == golden["columns"]
    assert [[r, c, m] for (r, c), m in table.missing.items()] == golden["missing"]
    assert table.notes == golden["notes"]
    cells = [
        [row, column, cell.mean, cell.std]
        for row in table.rows
        for column in table.columns
        if (cell := table.get(row, column)) is not None
    ]
    assert cells == golden["cells"]


# One test per table, each named for the hand-rolled runner it replaced.
def test_table4_matches_legacy():
    assert_matches_golden("table4")


def test_table5_matches_legacy():
    assert_matches_golden("table5")


def test_table6_matches_legacy():
    assert_matches_golden("table6")


def test_table7_matches_legacy():
    assert_matches_golden("table7")


def test_table10_matches_legacy():
    assert_matches_golden("table10")


def test_extension_comparison_matches_legacy():
    assert_matches_golden("extension_comparison")


def test_design_ablation_matches_legacy():
    assert_matches_golden("design_ablation")


@pytest.mark.parametrize(
    "runner, emit, kwargs",
    [
        (run_table5, table5_spec, {}),
        (run_table6, table6_spec, {"include_clustering_specialists": False}),
    ],
)
def test_mvgrl_on_reddit_is_premarked_without_cells(runner, emit, kwargs):
    kwargs = dict(kwargs, datasets=["reddit-like"], methods=["MVGRL"])
    plan = expand_spec(emit(MICRO2, **kwargs), MICRO2)
    assert plan.cells == ()
    table = runner(profile=MICRO2, **kwargs)
    assert table.cells == {}
    assert table.missing == {("MVGRL", column): "OOM" for column in table.columns}
    assert len(table.columns) == 2
