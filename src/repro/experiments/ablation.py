"""Table 10: component ablation of GCMAE.

Rows: the full model, minus contrastive loss ("w/o Con."), minus adjacency
reconstruction ("w/o Stru. Rec."), minus discrimination loss ("w/o Disc."),
and the GraphMAE backbone as the floor.
"""

from __future__ import annotations

from typing import List, Optional

from .profiles import Profile, current_profile
from .registry import MVGRL_SKIP
from .results import ExperimentTable

ABLATION_ROWS = ("GCMAE", "w/o Con.", "w/o Stru. Rec.", "w/o Disc.", "GraphMAE")

# The GCMAE config switch each "w/o" row turns off.
_REMOVED = {
    "w/o Con.": "use_contrastive",
    "w/o Stru. Rec.": "use_structure_reconstruction",
    "w/o Disc.": "use_discrimination",
}


def _ablation_method(row: str, profile: Profile) -> dict:
    if row == "GCMAE":
        return {"name": "GCMAE"}
    if row in _REMOVED:
        return {"name": "GCMAE", "label": row, "overrides": {_REMOVED[row]: False}}
    if row == "GraphMAE":
        # The floor is GraphMAE at the shared profile budget, not its own
        # longer registered epoch default.
        return {"name": "GraphMAE", "overrides": {"epochs": profile.epochs}}
    raise ValueError(f"unknown ablation row {row!r}")


def table10_spec(
    profile: Profile,
    datasets: Optional[List[str]] = None,
    rows: Optional[List[str]] = None,
):
    """The Table 10 run spec: one GCMAE line per removed component."""
    from ..spec import parse_spec

    if datasets is None:
        datasets = ["cora-like", "citeseer-like", "pubmed-like"]
        if profile.name == "fast":
            datasets = datasets[:2]
    rows = list(rows) if rows is not None else list(ABLATION_ROWS)
    return parse_spec(
        {
            "name": "table10",
            "title": "Table 10 — component ablation, node classification accuracy (%)",
            "protocol": "classification",
            "datasets": list(datasets),
            "methods": [_ablation_method(row, profile) for row in rows],
            "skip": [MVGRL_SKIP],
        }
    )


def run_table10(
    profile: Optional[Profile] = None,
    datasets: Optional[List[str]] = None,
    rows: Optional[List[str]] = None,
    jobs: Optional[int] = None,
) -> ExperimentTable:
    """Reproduce Table 10 on the three citation datasets."""
    from ..spec import run_spec

    profile = profile if profile is not None else current_profile()
    spec = table10_spec(profile, datasets=datasets, rows=rows)
    table = run_spec(spec, profile=profile, jobs=jobs)
    table.notes.append(
        "paper claims: every removal hurts; removing structure reconstruction "
        "hurts most; even 'w/o Con.' still beats GraphMAE"
    )
    return table
