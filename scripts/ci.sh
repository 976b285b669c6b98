#!/usr/bin/env bash
# Local mirror of .github/workflows/ci.yml: lint, tier-1 tests, perfbench's
# own tests, perf smoke, budget-2 golden suites, serving smoke, bench-history
# regression check, telemetry sample run.
#
# Usage: scripts/ci.sh [--report-only]
#   --report-only   run the perf benchmark without enforcing min_speedup
#                   (what CI does on pull requests)
set -euo pipefail

cd "$(dirname "$0")/.."

REPORT_ONLY=0
if [[ "${1:-}" == "--report-only" ]]; then
    REPORT_ONLY=1
elif [[ $# -gt 0 ]]; then
    echo "unknown argument: $1 (usage: scripts/ci.sh [--report-only])" >&2
    exit 2
fi

echo "== lint =="
if command -v ruff >/dev/null 2>&1; then
    ruff check src tests benchmarks
    # Blocking, matching CI: the tree is formatter-clean and stays that way.
    ruff format --check src tests benchmarks
else
    echo "ruff not installed; skipping lint (CI will run it)"
fi

echo "== tier-1 tests =="
PYTHONPATH=src python -m pytest -x -q

echo "== benchmark arithmetic tests (perfbench) =="
python -m pytest perfbench -q

echo "== perf smoke (node sparse path + graph-classification batching) =="
# Covers both committed gates: the CSR-cached node path and the
# block-diagonal graph-batching path (`make perf` / `make bench-gc`).
REPRO_PERF_REPORT_ONLY="$REPORT_ONLY" \
    PYTHONPATH=src python -m pytest benchmarks/test_perf_regression.py -q -s

echo "== float32 smoke (policy-scoped tier-1 subset under REPRO_DTYPE=float32) =="
# End-to-end training/eval/serving plus the dtype/kernel/arena unit tests
# under the float32 policy.  Precision-bound modules that compare against
# float64 numpy references stay on the default-policy run above.
REPRO_DTYPE=float32 PYTHONPATH=src python -m pytest -q \
    tests/core tests/eval tests/serve tests/test_integration.py \
    tests/nn/test_dtype.py tests/nn/test_kernels.py tests/nn/test_arena.py

echo "== thread budget 2 (golden suites bit-identical at REPRO_NUM_THREADS=2) =="
# The tier-1 run above holds the golden curves and tables at the default
# budget of 1; this leg holds them with 2 spmm and 2 OpenBLAS threads.
REPRO_NUM_THREADS=2 PYTHONPATH=src python -m pytest -q \
    tests/engine/test_golden_equivalence.py tests/engine/test_resume.py \
    tests/spec/test_equivalence.py

echo "== kernel smoke (dtype bytes, threaded spmm, arena warmup) =="
# Gated by the "kernels" key in benchmarks/perf_baseline.json; writes
# benchmarks/BENCH_kernels.json.  The thread-speedup gate self-skips
# below 4 usable cores; equality and bytes gates run everywhere.
REPRO_PERF_REPORT_ONLY="$REPORT_ONLY" \
    PYTHONPATH=src python -m pytest benchmarks/test_kernels.py -q -s

echo "== serving smoke (micro-batched queue vs per-request forwards) =="
# Gated by the "serving" key in benchmarks/perf_baseline.json; writes
# benchmarks/BENCH_serving.json (p50/p99 latency, req/s, speedup).
REPRO_PERF_REPORT_ONLY="$REPORT_ONLY" \
    PYTHONPATH=src python -m pytest benchmarks/test_serving.py -q -s

echo "== large-graph smoke (50k-node sampled GCMAE vs full-graph ceiling) =="
# Gated by the "large_graph" key in benchmarks/perf_baseline.json; writes
# benchmarks/BENCH_large_graph.json (sampled epoch seconds, block sizes,
# full-graph extrapolation).  Report-only on PRs like the other perf gates.
REPRO_PERF_REPORT_ONLY="$REPORT_ONLY" \
    PYTHONPATH=src python -m pytest benchmarks/test_large_graph.py -q -s

echo "== bench history (append BENCH_*.json, trend, regression check) =="
# Appends the kernel/serving artifacts written above to benchmarks/history/
# and checks the newest entry against the rolling median of prior entries
# from the same host.  Report-only on PRs: a regression prints but passes.
PYTHONPATH=src python -m repro bench record
PYTHONPATH=src python -m repro bench trend
if [[ "$REPORT_ONLY" == "1" ]]; then
    PYTHONPATH=src python -m repro bench check --report-only
else
    PYTHONPATH=src python -m repro bench check
fi

echo "== parallel tables gate (jobs>1 speedup; tests/parallel runs in tier-1) =="
REPRO_PERF_REPORT_ONLY="$REPORT_ONLY" \
    PYTHONPATH=src python -m pytest benchmarks/test_parallel_tables.py -q -s

echo "== telemetry sample run (runs/<id>/, schema-validated) =="
python scripts/runs_demo.py runs

echo "== spec smoke (2-cell toy spec via 'repro run --jobs 2', merged telemetry) =="
python scripts/spec_smoke.py specruns

echo "== ci.sh: all stages passed =="
