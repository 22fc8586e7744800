#!/bin/bash
# Final deliverable runs: full test suite + every figure/table bench.
cd "$(dirname "$0")/.." || exit 1
python -m pytest tests/ 2>&1 | tee test_output.txt
python -m pytest benchmarks/ --benchmark-only 2>&1 | tee bench_output.txt
echo "FINAL_RUNS_COMPLETE rc_tests=$(grep -c 'passed' test_output.txt) " >> bench_output.txt
