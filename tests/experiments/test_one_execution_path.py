"""Guard: table sweeps go through ``repro.spec.run_spec``, not their own loops.

Tables 4-7 and 10, the design ablation and the extension comparison are
spec emitters.  Only the runners whose read-out is not a score protocol
(Table 8's unregistered encoder variants, Table 9's timings, the figures'
panels and series) may call :func:`repro.parallel.run_cells` directly.
A new call elsewhere means a table re-grew a second execution path.
"""

import re
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src" / "repro"
RUN_CELLS = re.compile(r"\brun_cells\(")
LEGACY = re.compile(r"def\s+_run_\w*_legacy\b")
ALLOWED = {
    "parallel/executor.py",  # the definition and its usage example
    "spec/runner.py",
    "experiments/encoder_variants.py",
    "experiments/efficiency.py",
    "experiments/figures.py",
}


def _matches(pattern, skip=()):
    found = []
    for path in sorted(SRC.rglob("*.py")):
        relative = path.relative_to(SRC).as_posix()
        if relative in skip:
            continue
        for number, line in enumerate(path.read_text().splitlines(), start=1):
            if pattern.search(line):
                found.append(f"{relative}:{number}: {line.strip()}")
    return found


def test_run_cells_only_in_the_named_runners():
    offenders = _matches(RUN_CELLS, skip=ALLOWED)
    assert not offenders, (
        "run_cells called outside the spec runner and the non-spec runners "
        "(emit a spec and use repro.spec.run_spec):\n" + "\n".join(offenders)
    )


def test_no_legacy_oracles():
    offenders = _matches(LEGACY)
    assert not offenders, "legacy table oracles found:\n" + "\n".join(offenders)
